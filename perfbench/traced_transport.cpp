#include "traced_transport.hpp"

#include <utility>

namespace mdgan::perfbench {
namespace {

// kNumTags for any tag outside the MD-GAN data plane.
TransportTrace::Tag tag_of(const std::string& tag) {
  if (tag == "gen_batches") return TransportTrace::kGenBatches;
  if (tag == "feedback") return TransportTrace::kFeedback;
  if (tag == "disc_swap") return TransportTrace::kDiscSwap;
  return TransportTrace::kNumTags;
}

}  // namespace

const char* TransportTrace::tag_name(Tag t) {
  switch (t) {
    case kGenBatches:
      return "gen_batches";
    case kFeedback:
      return "feedback";
    case kDiscSwap:
      return "disc_swap";
    case kNumTags:
      break;
  }
  return "?";
}

TransportTrace::Totals& TransportTrace::Totals::operator+=(const Totals& o) {
  for (int i = 0; i < kNumTags; ++i) {
    send_s[i] += o.send_s[i];
    recv_wait_s[i] += o.recv_wait_s[i];
  }
  worker_wait_s += o.worker_wait_s;
  worker_compute_s += o.worker_compute_s;
  worker_steps += o.worker_steps;
  server_compute_s += o.server_compute_s;
  server_gaps += o.server_gaps;
  return *this;
}

TransportTrace::Totals TransportTrace::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

void TransportTrace::on_send_start(int from, Tag tag, double t) {
  const bool armed = armed_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (tag == kFeedback && from != dist::kServerId) {
    double& since = last_gen_recv_.at(static_cast<std::size_t>(from));
    if (since >= 0.0 && armed) {
      totals_.worker_compute_s += t - since;
      ++totals_.worker_steps;
    }
    since = -1.0;
  } else if (tag == kGenBatches && from == dist::kServerId) {
    // Only the first broadcast of a round closes the server's gap.
    if (last_feedback_recv_ >= 0.0 && armed) {
      totals_.server_compute_s += t - last_feedback_recv_;
      ++totals_.server_gaps;
    }
    last_feedback_recv_ = -1.0;
  }
}

void TransportTrace::on_send_done(Tag tag, double t0, double t1) {
  if (!armed_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lk(mu_);
  totals_.send_s[tag] += t1 - t0;
}

void TransportTrace::on_receive(int node, Tag tag, bool got, double t0,
                                double t1) {
  const bool armed = armed_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (armed) {
    totals_.recv_wait_s[tag] += t1 - t0;
    if (node != dist::kServerId) totals_.worker_wait_s += t1 - t0;
  }
  if (!got) return;
  if (tag == kGenBatches && node != dist::kServerId) {
    last_gen_recv_.at(static_cast<std::size_t>(node)) = t1;
  } else if (tag == kFeedback && node == dist::kServerId) {
    last_feedback_recv_ = t1;
  }
}

template <typename Payload>
void TracedTransport::timed_send(int from, int to, const std::string& tag,
                                 Payload&& payload) {
  const auto t = tag_of(tag);
  if (t == TransportTrace::kNumTags) {
    inner_.send(from, to, tag, std::forward<Payload>(payload));
    return;
  }
  const double t0 = steady_seconds();
  trace_.on_send_start(from, t, t0);
  inner_.send(from, to, tag, std::forward<Payload>(payload));
  trace_.on_send_done(t, t0, steady_seconds());
}

template <typename Receive>
std::optional<dist::Message> TracedTransport::timed_receive(
    int node, const std::string& tag, Receive&& receive) {
  const auto t = tag_of(tag);
  if (t == TransportTrace::kNumTags) return receive();
  const double t0 = steady_seconds();
  auto msg = receive();
  trace_.on_receive(node, t, msg.has_value(), t0, steady_seconds());
  return msg;
}

void TracedTransport::send(int from, int to, const std::string& tag,
                           ByteBuffer&& payload) {
  timed_send(from, to, tag, std::move(payload));
}

void TracedTransport::send(int from, int to, const std::string& tag,
                           dist::SharedBuf&& payload) {
  timed_send(from, to, tag, std::move(payload));
}

std::optional<dist::Message> TracedTransport::receive_tagged(
    int node, const std::string& tag) {
  return timed_receive(node, tag,
                       [&] { return inner_.receive_tagged(node, tag); });
}

std::optional<dist::Message> TracedTransport::try_receive_tagged(
    int node, const std::string& tag) {
  return timed_receive(node, tag,
                       [&] { return inner_.try_receive_tagged(node, tag); });
}

}  // namespace mdgan::perfbench
