// Benchmark-side instrumentation of the transport seam: a
// dist::Transport that forwards every virtual to a real endpoint and
// times the three protocol tags on the way through. Used only in the
// traced run, so the end-to-end numbers run on bare transports.
//
// Telemetry sinks stay on the wrapped endpoint: attach them there
// before wrapping, so the registry counters and the accountant charges
// are the real transport's, never the wrapper's.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/transport.hpp"

namespace mdgan::perfbench {

// Timings shared by every wrapped endpoint of one traced episode. Only
// events that complete while `armed` is set are accumulated, so the
// benchmark arms it for the timed rounds alone.
class TransportTrace {
 public:
  enum Tag { kGenBatches, kFeedback, kDiscSwap, kNumTags };
  static const char* tag_name(Tag t);

  explicit TransportTrace(std::size_t n_workers)
      : last_gen_recv_(n_workers + 1, -1.0) {}

  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }

  struct Totals {
    std::array<double, kNumTags> send_s{};
    std::array<double, kNumTags> recv_wait_s{};
    double worker_wait_s = 0.0;   // blocked in receives on worker nodes
    double worker_compute_s = 0.0;  // gen_batches received -> feedback sent
    std::int64_t worker_steps = 0;
    double server_compute_s = 0.0;  // last feedback -> next broadcast
    std::int64_t server_gaps = 0;

    Totals& operator+=(const Totals& o);
  };
  Totals totals() const;

  // Hooks called by TracedTransport; `t` is seconds on steady_clock.
  void on_send_start(int from, Tag tag, double t);
  void on_send_done(Tag tag, double t0, double t1);
  void on_receive(int node, Tag tag, bool got, double t0, double t1);

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;  // guards everything below
  Totals totals_;
  std::vector<double> last_gen_recv_;  // per worker; < 0 = none pending
  double last_feedback_recv_ = -1.0;   // server; < 0 = none pending
};

class TracedTransport final : public dist::Transport {
 public:
  TracedTransport(dist::Transport& inner, TransportTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::size_t n_workers() const override { return inner_.n_workers(); }
  void begin_iteration(std::int64_t iter) override {
    inner_.begin_iteration(iter);
  }
  void send(int from, int to, const std::string& tag,
            ByteBuffer&& payload) override;
  void send(int from, int to, const std::string& tag,
            dist::SharedBuf&& payload) override;
  std::optional<dist::Message> receive_tagged(int node,
                                              const std::string& tag) override;
  std::optional<dist::Message> try_receive_tagged(
      int node, const std::string& tag) override;
  std::size_t pending(int node) const override { return inner_.pending(node); }

  dist::LinkTotals totals(dist::LinkKind kind) const override {
    return inner_.totals(kind);
  }
  std::uint64_t message_count(dist::LinkKind kind) const override {
    return inner_.message_count(kind);
  }
  std::uint64_t max_ingress_per_iteration(int node) const override {
    return inner_.max_ingress_per_iteration(node);
  }

  double sim_time(int node) const override { return inner_.sim_time(node); }
  void advance_time(int node, double seconds) override {
    inner_.advance_time(node, seconds);
  }
  double max_sim_time() const override { return inner_.max_sim_time(); }

  void crash(int worker) override { inner_.crash(worker); }
  bool is_alive(int node) const override { return inner_.is_alive(node); }
  std::vector<int> alive_workers() const override {
    return inner_.alive_workers();
  }
  std::size_t alive_worker_count() const override {
    return inner_.alive_worker_count();
  }
  std::uint64_t membership_epoch() const override {
    return inner_.membership_epoch();
  }

  std::vector<int> take_rejoin_grants() override {
    return inner_.take_rejoin_grants();
  }
  std::vector<Admission> take_admissions() override {
    return inner_.take_admissions();
  }
  void announce_admission(int worker, std::int64_t round) override {
    inner_.announce_admission(worker, round);
  }
  void ship_rejoin_state(int worker, ByteBuffer&& state) override {
    inner_.ship_rejoin_state(worker, std::move(state));
  }
  bool await_alive(int node, double timeout_s) override {
    return inner_.await_alive(node, timeout_s);
  }

 protected:
  // MdGan::train attaches its sink to whatever transport it holds; the
  // wrapper never charges a send, so that attachment counts nothing and
  // the wrapped endpoint's own sink keeps every counter.
  void on_sink_attached() override {}

 private:
  template <typename Payload>
  void timed_send(int from, int to, const std::string& tag,
                  Payload&& payload);
  template <typename Receive>
  std::optional<dist::Message> timed_receive(int node, const std::string& tag,
                                             Receive&& receive);

  dist::Transport& inner_;
  TransportTrace& trace_;
};

inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace mdgan::perfbench
