#include "dist/tcp_network.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/log.hpp"
#include "dist/frame.hpp"

namespace mdgan::dist {

namespace {

// A dialer owes its hello (or !stats probe) within this long of the
// accept; close() lingers as long for queued frames to flush.
constexpr double kHelloTimeoutS = 5.0;
constexpr double kCloseLingerS = 5.0;
// Most iovecs one sendmsg gathers: the heads and payload segments of
// several queued frames.
constexpr std::size_t kMaxIov = 64;

bool write_exact(int fd, const std::uint8_t* src, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = ::send(fd, src + put, n - put, MSG_NOSIGNAL);
    if (r > 0) {
      put += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::chrono::steady_clock::time_point after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

// One send:<tag> / recv:<tag> span of the network category.
void emit_net_span(obs::Tracer& tracer, int node, const char* dir,
                   const std::string& tag, std::int64_t wall_t0,
                   double sim_t0, double sim_t1, std::size_t bytes,
                   std::uint64_t flow) {
  obs::TraceEvent ev;
  std::snprintf(ev.name, obs::TraceEvent::kNameCap, "%s:%s", dir,
                tag.c_str());
  ev.cat = obs::Cat::kNet;
  ev.node = node;
  ev.wall_t0_ns = wall_t0;
  ev.wall_dur_ns = tracer.now_ns() - wall_t0;
  ev.sim_t0 = sim_t0;
  ev.sim_t1 = sim_t1;
  ev.bytes = bytes;
  ev.flow = flow;
  tracer.emit(ev);
}

void set_recv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<long>(seconds);
  tv.tv_usec = static_cast<long>((seconds - static_cast<double>(tv.tv_sec)) *
                                 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

TcpNetwork::TcpNetwork(int local, std::size_t n_workers, Options opts)
    : local_(local),
      n_workers_(n_workers),
      opts_(opts),
      liveness_(n_workers, opts.liveness) {
  if (n_workers_ == 0) {
    throw std::invalid_argument("TcpNetwork: need at least one worker");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw std::runtime_error("TcpNetwork: eventfd() failed");
  alive_.assign(n_workers_ + 1, true);
  registered_.assign(n_workers_ + 1, false);
  recv_seq_.assign(n_workers_ + 1, 0);
  flow_seq_.assign(n_workers_ + 1, 0);
  conns_.resize(n_workers_ + 1);
  start_ = std::chrono::steady_clock::now();
  rendezvous_deadline_ = after(opts_.rendezvous_timeout_s);
}

std::unique_ptr<TcpNetwork> TcpNetwork::serve(std::uint16_t port,
                                              std::size_t n_workers,
                                              Options opts) {
  auto net = std::unique_ptr<TcpNetwork>(
      new TcpNetwork(kServerId, n_workers, opts));

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("TcpNetwork: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpNetwork: bind() failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(fd, static_cast<int>(n_workers) + 8) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpNetwork: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  net->port_ = ntohs(addr.sin_port);
  net->listen_fd_ = fd;
  net->io_ = std::thread([raw = net.get()] { raw->run_loop(); });
  return net;
}

std::unique_ptr<TcpNetwork> TcpNetwork::connect(const std::string& host,
                                                std::uint16_t port,
                                                int worker_id,
                                                std::size_t n_workers,
                                                Options opts) {
  if (worker_id < 1 || worker_id > static_cast<int>(n_workers)) {
    throw std::invalid_argument("TcpNetwork: worker id " +
                                std::to_string(worker_id) +
                                " outside [1, " + std::to_string(n_workers) +
                                "]");
  }
  auto net =
      std::unique_ptr<TcpNetwork>(new TcpNetwork(worker_id, n_workers, opts));
  net->port_ = port;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("TcpNetwork: cannot resolve host " + host);
  }

  // The server may not be up yet (processes race at launch, rejoiners
  // dial into churn): retry the dial with bounded exponential backoff
  // plus deterministic per-worker jitter, giving up at whichever trips
  // first — the retry budget or the rendezvous deadline.
  constexpr double kDialBackoffCapMs = 2000.0;
  int fd = -1;
  int attempt = 0;
  // Small LCG seeded from the worker id: reproducible jitter that still
  // decorrelates a thundering herd of rejoiners.
  std::uint64_t jitter_state = 0x9e3779b97f4a7c15ull ^
                               (static_cast<std::uint64_t>(worker_id) *
                                0xd1342543de82ef95ull);
  while (fd < 0) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    if (fd >= 0 &&
        ::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
      break;
    }
    if (fd >= 0) ::close(fd);
    fd = -1;
    ++net->dial_retries_done_;
    if (attempt >= opts.dial_retries) {
      ::freeaddrinfo(res);
      throw std::runtime_error(
          "TcpNetwork: cannot reach " + host + ":" + std::to_string(port) +
          " after " + std::to_string(attempt + 1) +
          " dial attempts (dial_retries exhausted)");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= net->rendezvous_deadline_) {
      ::freeaddrinfo(res);
      throw std::runtime_error("TcpNetwork: cannot reach " + host + ":" +
                               std::to_string(port) + " before the "
                               "rendezvous deadline");
    }
    double backoff_ms = opts.dial_backoff_ms;
    for (int i = 0; i < attempt && backoff_ms < kDialBackoffCapMs; ++i) {
      backoff_ms *= 2.0;
    }
    if (backoff_ms > kDialBackoffCapMs) backoff_ms = kDialBackoffCapMs;
    jitter_state = jitter_state * 6364136223846793005ull +
                   1442695040888963407ull;
    // Jitter in [0, backoff/2).
    backoff_ms += backoff_ms * 0.5 *
                  (static_cast<double>(jitter_state >> 40) / 16777216.0);
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(net->rendezvous_deadline_ -
                                                  now)
            .count();
    if (backoff_ms > remaining_ms) backoff_ms = remaining_ms;
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    ++attempt;
  }
  ::freeaddrinfo(res);
  set_nodelay(fd);

  // Introduce ourselves; the server maps this connection to our id.
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker_id));
  hello.write_pod<std::uint64_t>(n_workers);
  const auto wire = encode_frame(worker_id, kServerId, kTagHello, hello);
  if (!write_exact(fd, wire.data(), wire.size())) {
    ::close(fd);
    throw std::runtime_error("TcpNetwork: rendezvous hello failed");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  net->conns_[kServerId].fd = fd;
  net->io_ = std::thread([raw = net.get()] { raw->run_loop(); });
  return net;
}

TcpNetwork::~TcpNetwork() {
  close();
  ::close(wake_fd_);
}

void TcpNetwork::close() {
  std::call_once(close_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_.store(true);
    }
    cv_.notify_all();
    poke();
    if (io_.joinable()) io_.join();
  });
}

void TcpNetwork::poke() {
  const std::uint64_t one = 1;
  const ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  (void)r;  // a full counter is already a pending wakeup
}

void TcpNetwork::run_loop() {
  std::vector<pollfd> fds;
  std::vector<int> ids;  // per fds entry: node slot, or one of the below
  constexpr int kWake = -1, kListen = -2, kPending = -3;
  double linger_until = -1.0;
  for (;;) {
    const double now = elapsed_s();
    double wake_at = -1.0;  // earliest timer, endpoint seconds
    const auto until = [&](double t) {
      if (wake_at < 0.0 || t < wake_at) wake_at = t;
    };
    fds.assign(1, pollfd{wake_fd_, POLLIN, 0});
    ids.assign(1, kWake);
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool queued = false;
      for (std::size_t w = 0; w < conns_.size(); ++w) {
        Conn& c = conns_[w];
        if (c.fd < 0) continue;
        if (!alive_[w]) {
          drop_conn(static_cast<int>(w));
          continue;
        }
        queued = queued || !c.queue.empty();
        // A relay into a full queue paused this source; resume once
        // the destination drained (or died).
        const auto rw = static_cast<std::size_t>(c.relay_wait);
        if (c.relay_wait >= 0 &&
            (!alive_[rw] ||
             conns_[rw].queue.size() < opts_.send_queue_depth)) {
          c.relay_wait = -1;
        }
        const auto ev = static_cast<short>((c.relay_wait < 0 ? POLLIN : 0) |
                                           (c.out_blocked ? POLLOUT : 0));
        if (ev != 0) {
          fds.push_back({c.fd, ev, 0});
          ids.push_back(static_cast<int>(w));
        }
      }
      if (closing_.load()) {
        if (linger_until < 0.0) linger_until = now + kCloseLingerS;
        done = !queued || now >= linger_until;
        until(linger_until);
      } else if (listen_fd_ >= 0) {
        const bool joined = all_registered();
        if (!joined && now >= opts_.rendezvous_timeout_s) {
          ::close(listen_fd_);  // a missed rendezvous ends the run
          listen_fd_ = -1;
        } else {
          fds.push_back({listen_fd_, POLLIN, 0});
          ids.push_back(kListen);
          if (!joined) until(opts_.rendezvous_timeout_s);
        }
      }
      for (const Conn& p : pending_) {
        fds.push_back(
            {p.fd, static_cast<short>(p.reply_then_close ? POLLOUT : POLLIN), 0});
        ids.push_back(kPending);
        until(p.hello_deadline);
      }
      if (local_ == kServerId && liveness_.config().enabled()) {
        until(last_ping_s_ + liveness_.config().heartbeat_interval_s);
      }
    }
    if (done) break;

    int timeout_ms = -1;  // no timer: sleep until an fd is ready
    if (wake_at >= 0.0) {
      timeout_ms = static_cast<int>(std::ceil(
          std::clamp(wake_at - elapsed_s(), 0.0, 60.0) * 1000.0));
    }
    ::poll(fds.data(), fds.size(), timeout_ms);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const short re = fds[i].revents;
      if (re == 0 || ids[i] == kPending) continue;  // serve_pending polls
      if (ids[i] == kWake) {
        std::uint64_t n = 0;
        const ssize_t r = ::read(wake_fd_, &n, sizeof(n));
        (void)r;
      } else if (ids[i] == kListen) {
        for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
          set_nodelay(fd);
          pending_.emplace_back();
          pending_.back().fd = fd;
          pending_.back().hello_deadline = elapsed_s() + kHelloTimeoutS;
        }
      } else {
        Conn& c = conns_[static_cast<std::size_t>(ids[i])];
        if (re & POLLOUT) c.out_blocked = false;
        if ((re & (POLLIN | POLLHUP | POLLERR)) && c.relay_wait < 0 &&
            !drain(ids[i], c)) {
          mark_dead(ids[i]);
        }
      }
    }
    serve_pending();
    pump_heartbeats();
    // Optimistic writes: whatever got queued since the last pass goes
    // out now, without waiting a poll round for POLLOUT.
    for (std::size_t w = 0; w < conns_.size(); ++w) {
      Conn& c = conns_[w];
      if (c.fd >= 0 && !c.out_blocked && !flush(c)) {
        mark_dead(static_cast<int>(w));
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t w = 0; w < conns_.size(); ++w) {
    if (conns_[w].fd >= 0) drop_conn(static_cast<int>(w));
  }
  for (const Conn& p : pending_) ::close(p.fd);
  pending_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

bool TcpNetwork::read_some(Conn& c) {
  while (!c.dec.ready()) {
    const std::size_t want = c.dec.want();
    const ssize_t r = ::recv(c.fd, c.dec.next(), want, 0);
    if (r > 0) {
      if (!c.dec.advance(static_cast<std::size_t>(r))) return false;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

bool TcpNetwork::drain(int peer, Conn& c) {
  while (c.relay_wait < 0) {
    if (!read_some(c)) return false;
    if (!c.dec.ready()) return true;  // socket drained mid-frame
    deliver(peer, c.dec.take());
  }
  return true;
}

bool TcpNetwork::flush(Conn& c) {
  std::vector<OutFrame> written;
  for (;;) {
    const OutFrame* frames[kMaxIov];
    std::size_t n_frames = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      n_frames = std::min(c.queue.size(), kMaxIov);
      for (std::size_t i = 0; i < n_frames; ++i) frames[i] = &c.queue[i];
    }
    if (n_frames == 0) return true;
    // Gather heads and payload segments, skipping what a partial write
    // already put on the wire; the payload bytes are never copied.
    iovec iov[kMaxIov];
    std::size_t n_iov = 0, skip = c.sent, offered = 0;
    const auto add = [&](const std::uint8_t* p, std::size_t len) {
      if (skip >= len) {
        skip -= len;
      } else if (n_iov < kMaxIov) {
        iov[n_iov++] = {const_cast<std::uint8_t*>(p) + skip, len - skip};
        offered += len - skip;
        skip = 0;
      }
    };
    for (std::size_t i = 0; i < n_frames; ++i) {
      add(frames[i]->head.data(), frames[i]->head.size());
      for (const auto& seg : frames[i]->body.segments()) {
        add(seg->data(), seg->size());
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t r = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c.out_blocked = true;
      return true;
    }
    if (r < 0) return false;
    std::size_t done = c.sent + static_cast<std::size_t>(r);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool was_full = c.queue.size() >= opts_.send_queue_depth;
      while (!c.queue.empty() && done >= c.queue.front().size()) {
        done -= c.queue.front().size();
        written.push_back(std::move(c.queue.front()));  // freed unlocked
        c.queue.pop_front();
      }
      c.sent = done;
      if (was_full) cv_.notify_all();  // a producer may wait for room
    }
    written.clear();
    if (static_cast<std::size_t>(r) < offered) {
      c.out_blocked = true;  // the socket buffer is full
      return true;
    }
  }
}

void TcpNetwork::drop_conn(int peer) {
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  std::uint64_t frames = 0, bytes = 0;
  for (const auto& f : c.queue) {
    ++frames;
    bytes += f.size();
  }
  // What a dead peer never received goes into the flight recorder (the
  // post-mortem's "what was lost on the epoch bump"); a live peer's
  // leftovers at the end of close()'s linger are not a fault.
  if (frames > 0 && !alive_[static_cast<std::size_t>(peer)]) {
    obs_writer_drop(peer, frames, bytes);
    if (!closing_.load()) {
      MDGAN_LOG_WARN << "TcpNetwork: dropped " << frames
                     << " queued frame(s) (" << bytes
                     << " bytes) to dead peer " << peer;
    }
  }
  c.queue.clear();
  ::close(c.fd);
  c.fd = -1;
  c.sent = 0;
  c.out_blocked = false;
  c.dec = FrameDecoder();
  c.relay_wait = -1;
  c.said_bye = false;
  ++c.generation;  // producers waiting for this connection give up
  cv_.notify_all();
}

bool TcpNetwork::enqueue(int peer, OutFrame&& f,
                         std::unique_lock<std::mutex>* lock) {
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  const std::uint64_t generation = c.generation;
  const auto gone = [&] {
    return closing_.load() || !alive_[static_cast<std::size_t>(peer)] ||
           c.fd < 0 || c.generation != generation;
  };
  if (gone()) return false;
  if (lock != nullptr && c.queue.size() >= opts_.send_queue_depth) {
    // Backpressure: wait for the loop to write a frame out or for the
    // peer to die (its queue is then dropped, so this never outlives
    // it).
    const auto t0 = std::chrono::steady_clock::now();
    cv_.wait(*lock, [&] {
      return gone() || c.queue.size() < opts_.send_queue_depth;
    });
    obs_queue_stall(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    if (gone()) return false;
  }
  c.queue.push_back(std::move(f));
  obs_queue_depth(c.queue.size());
  // A non-empty queue is already being written or waits for POLLOUT.
  if (lock != nullptr && c.queue.size() == 1) poke();
  return true;
}

void TcpNetwork::queue_control(int peer, const char* tag,
                               const ByteBuffer& payload) {
  enqueue(peer, OutFrame{encode_frame(local_, peer, tag, payload), {}});
}

void TcpNetwork::broadcast_control(const char* tag,
                                   const ByteBuffer& payload) {
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w] && registered_[w]) {
      queue_control(static_cast<int>(w), tag, payload);
    }
  }
}

void TcpNetwork::serve_pending() {
  const double now = elapsed_s();
  for (Conn& p : pending_) {
    bool keep = now < p.hello_deadline;
    if (p.reply_then_close) {
      keep = keep && flush(p) && p.out_blocked;  // hang up once it is out
    } else if (!read_some(p) || (!p.dec.ready() && !keep)) {
      MDGAN_LOG_WARN << "TcpNetwork: rejecting connection with bad hello";
      keep = false;
    } else if (p.dec.ready()) {
      const Frame first = p.dec.take();
      // A `!stats` probe in hello position is not a join: answer with
      // one snapshot frame and hang up. Any client may dial it anytime.
      if (first.tag == kTagStats) {
        p.queue.push_back(OutFrame{stats_frame(), {}});
        p.reply_then_close = true;
        keep = flush(p) && p.out_blocked;
      } else {
        admit_hello(p, first);  // takes p.fd over on success
        keep = false;
      }
    }
    if (!keep && p.fd >= 0) ::close(p.fd);
    if (!keep) p.fd = -1;
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const Conn& p) { return p.fd < 0; }),
                 pending_.end());
}

void TcpNetwork::admit_hello(Conn& p, const Frame& hello) {
  int id = -1;
  if (hello.tag == kTagHello && hello.payload.size() >= 12) {
    ByteBuffer payload = ByteBuffer::wrap(hello.payload.data(),
                                          hello.payload.size());
    const auto claimed = payload.read_pod<std::uint32_t>();
    const auto n = payload.read_pod<std::uint64_t>();
    if (claimed >= 1 && claimed <= n_workers_ && n == n_workers_ &&
        hello.src == static_cast<int>(claimed)) {
      id = static_cast<int>(claimed);
    }
  }
  if (id <= 0) {
    MDGAN_LOG_WARN << "TcpNetwork: rejecting connection with bad hello";
    return;
  }
  const auto wi = static_cast<std::size_t>(id);
  std::unique_lock<std::mutex> lock(mu_);
  if (registered_[wi] && alive_[wi]) {
    lock.unlock();
    MDGAN_LOG_WARN << "TcpNetwork: rejecting duplicate hello for live "
                      "worker " << id;
    return;
  }
  // A re-dial from an id whose connection died is a rejoin. It can
  // overtake the teardown of the dead incarnation.
  const bool rejoin = registered_[wi];
  if (conns_[wi].fd >= 0) drop_conn(id);
  conns_[wi].fd = p.fd;
  conns_[wi].rx = ConnRxStats{};
  p.fd = -1;
  alive_[wi] = true;
  registered_[wi] = true;
  liveness_.track(id, elapsed_s());
  std::uint64_t epoch = epoch_;
  if (rejoin) {
    pending_grants_.push_back(id);  // the engine admits at a boundary
    epoch = ++epoch_;
    ByteBuffer grant;
    grant.write_pod<std::uint64_t>(epoch);
    queue_control(id, kTagRejoin, grant);
    // The new epoch reaches every live worker, the rejoiner's hello ack
    // included.
    broadcast_control(kTagEpoch, encode_epoch_locked());
  } else {
    // Hello ack: current epoch + live bitmap, so a late joiner learns
    // of any deaths that predate it.
    queue_control(id, kTagEpoch, encode_epoch_locked());
  }
  lock.unlock();
  if (rejoin) {
    obs_rejoin(id, epoch);
    obs_membership_epoch(epoch);
    MDGAN_LOG_INFO << "TcpNetwork: granting rejoin to worker " << id
                   << " (epoch " << epoch << ")";
  }
  cv_.notify_all();
}

void TcpNetwork::deliver(int peer, Frame&& f) {
  bool reseated = false;
  const bool control = is_control_tag(f.tag);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Conn& c = conns_[static_cast<std::size_t>(peer)];
    c.rx.any = true;
    c.rx.src = f.src;
    c.rx.tag = f.tag;
    ++c.rx.frames;
    c.rx.at_s = elapsed_s();
    // Any frame is proof of life: clear suspicion (server side; the
    // tracker is inert on workers and when heartbeats are off).
    reseated = liveness_.heard_from(peer, c.rx.at_s);
    const auto n = static_cast<int>(n_workers_);
    const bool mine = local_ == kServerId
                          ? f.src == peer && f.dst == kServerId
                          : f.dst == local_ && f.src >= 0 && f.src <= n;
    if (control) {
      // handle_control runs below, outside mu_
    } else if (mine) {
      charge(f.src, local_, f.tag, f.payload.size());
      ingress_window_ += f.payload.size();
      Stored s;
      s.seq = recv_seq_[static_cast<std::size_t>(f.src)]++;
      s.msg.from = f.src;
      s.msg.tag = std::move(f.tag);
      s.msg.payload = std::move(f.payload);
      s.msg.arrival_s = c.rx.at_s;
      s.msg.flow = f.ctx.span;
      mailbox_.push_back(std::move(s));
      cv_.notify_all();
    } else if (local_ == kServerId && f.src == peer && f.dst >= 1 &&
               f.dst <= n && f.dst != peer &&
               alive_[static_cast<std::size_t>(f.dst)] &&
               registered_[static_cast<std::size_t>(f.dst)]) {
      // Relay W->W through the star. Charged on the logical
      // worker->worker link by payload size, exactly like the simulator
      // charges a direct send, and stamped with the ORIGINAL sender's
      // trace context so the merged trace draws one W->W arrow.
      charge(f.src, f.dst, f.tag, f.payload.size());
      OutFrame out{encode_frame_head(f.src, f.dst, f.tag, f.payload.size(),
                                     f.ctx),
                   SharedBuf::wrap(std::move(f.payload))};
      // A full destination pauses reading from this worker: TCP then
      // backpressures its sends, and the loop itself never waits.
      if (enqueue(f.dst, std::move(out)) &&
          conns_[static_cast<std::size_t>(f.dst)].queue.size() >=
              opts_.send_queue_depth) {
        c.relay_wait = f.dst;
      }
    }
  }
  if (reseated) {
    obs_reseat(peer);
    MDGAN_LOG_INFO << "TcpNetwork: worker " << peer
                   << " resumed inside the grace window; re-seated "
                      "(no epoch change)";
  }
  if (control) handle_control(peer, f);
}

namespace {
const char* peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::kUntracked:
      return "untracked";
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  return "?";
}
}  // namespace

std::vector<std::uint8_t> TcpNetwork::stats_frame() {
  obs::Sink* sink = this->sink();
  std::ostringstream os;
  os << "{\"kind\":\"stats\",\"node\":" << local_
     << ",\"n_workers\":" << n_workers_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    os << ",\"epoch\":" << epoch_
       << ",\"round\":" << (sink != nullptr ? sink->live_round() : -1)
       << ",\"phase\":\""
       << (sink != nullptr ? sink->live_phase() : "unknown") << '"'
       << ",\"workers\":[";
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (w > 1) os << ',';
      os << "{\"id\":" << w << ",\"alive\":"
         << (alive_[w] ? "true" : "false") << ",\"registered\":"
         << (registered_[w] ? "true" : "false") << ",\"liveness\":\""
         << peer_state_name(liveness_.state(static_cast<int>(w))) << '"';
      const ConnRxStats& rx = conns_[w].rx;
      if (rx.any) {
        os << ",\"last_rx_tag\":\"" << rx.tag << "\",\"last_rx_s\":" << rx.at_s
           << ",\"rx_frames\":" << rx.frames;
      }
      os << '}';
    }
    os << ']';
  }
  // The registry serializes itself (own mutex) — embed the exact same
  // snapshot shape the metrics JSONL stream uses, so the byte counters
  // a client reads here equal totals(LinkKind) at this instant.
  if (sink != nullptr) {
    os << ",\"metrics\":";
    sink->registry().write_snapshot_json(
        os, "stats", sink->live_round(),
        static_cast<double>(sink->tracer().now_ns()) / 1e9, elapsed_s());
  }
  os << '}';
  const std::string snap = os.str();
  ByteBuffer payload;
  payload.append_raw(reinterpret_cast<const std::uint8_t*>(snap.data()),
                     snap.size());
  return encode_frame(local_, local_, kTagStats, payload);
}

void TcpNetwork::pump_heartbeats() {
  if (local_ != kServerId || !liveness_.config().enabled()) return;
  const double now = elapsed_s();
  if (now - last_ping_s_ < liveness_.config().heartbeat_interval_s) return;
  last_ping_s_ = now;
  std::vector<LivenessTracker::Transition> transitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    transitions = liveness_.advance(now);
    for (const auto& t : transitions) {
      if (t.to == PeerState::kSuspect) ++suspect_count_;
    }
  }
  for (const auto& t : transitions) {
    if (t.to == PeerState::kSuspect) {
      obs_suspect(t.worker);
      MDGAN_LOG_WARN << "TcpNetwork: worker " << t.worker
                     << " silent past the suspect threshold ("
                     << liveness_.config().suspect_after_s
                     << "s); suspected, grace window "
                     << liveness_.config().grace_s << "s";
    } else if (t.to == PeerState::kDead) {
      obs_grace_death(t.worker);
      MDGAN_LOG_WARN << "TcpNetwork: worker " << t.worker
                     << " silent past the grace window; declaring it dead";
      mark_dead(t.worker);  // the normal eviction path
    }
  }
  ByteBuffer ping;
  ping.write_pod<std::uint64_t>(ping_seq_++);
  ping.write_pod<double>(now);
  // Trace-clock stamp for offset estimation: the worker echoes this and
  // appends its own, and the pong handler pairs the two with the RTT
  // midpoint. -1 = no tracer attached here, nothing to align against.
  obs::Tracer* tracer = obs_tracer();
  ping.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns() : -1);
  std::lock_guard<std::mutex> lock(mu_);
  broadcast_control(kTagPing, ping);
}

void TcpNetwork::handle_control(int peer, const Frame& f) {
  // Control payloads come off the wire; a malformed one from a confused
  // peer is dropped, never fatal — data-plane correctness must not
  // depend on any single control frame.
  try {
    ByteBuffer payload = ByteBuffer::wrap(f.payload.data(),
                                          f.payload.size());
    if (local_ == kServerId) {
      // Server side: a worker's goodbye marks its connection so the EOF
      // that follows reads as an orderly end of run, not a crash.
      if (f.tag == kTagBye && f.src == peer) {
        std::lock_guard<std::mutex> lock(mu_);
        conns_[static_cast<std::size_t>(peer)].said_bye = true;
        return;
      }
      // The only other worker->server control frame is the heartbeat
      // echo. deliver() already fed the tracker; here we only recover
      // the RTT. A pong with a garbage payload or a mismatched source is
      // dropped like any malformed control frame.
      if (f.tag == kTagPong && f.src == peer) {
        payload.read_pod<std::uint64_t>();  // sequence, unused
        const double sent_s = payload.read_pod<double>();
        const double rtt = elapsed_s() - sent_s;
        if (rtt >= 0.0) obs_heartbeat_rtt(rtt);
        // Extended echo: our trace-clock stamp came back with the
        // worker's own appended. The worker's stamp was taken roughly
        // mid-flight, so server_send + RTT/2 estimates the same instant
        // on OUR clock — the difference is the per-worker trace-clock
        // offset (NTP style; the tracer keeps the minimum-RTT sample).
        obs::Tracer* tracer = obs_tracer();
        if (tracer != nullptr && rtt >= 0.0 && payload.remaining() >= 16) {
          const auto sent_ns = payload.read_pod<std::int64_t>();
          const auto worker_ns = payload.read_pod<std::int64_t>();
          if (sent_ns >= 0 && worker_ns >= 0) {
            const auto rtt_ns = static_cast<std::int64_t>(rtt * 1e9);
            tracer->offer_clock_offset(
                peer, sent_ns + rtt_ns / 2 - worker_ns, rtt);
          }
        }
      }
      return;
    }
    if (f.tag == kTagPing) {
      // Echo the payload verbatim (appending our trace-clock stamp when
      // the ping carries the server's); the server computes the RTT.
      ByteBuffer echo;
      echo.append_raw(f.payload.data(), f.payload.size());
      if (f.payload.size() >= 24) {  // u64 + f64 + i64: stamped ping
        obs::Tracer* tracer = obs_tracer();
        echo.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns()
                                                       : -1);
      }
      std::lock_guard<std::mutex> lock(mu_);
      queue_control(kServerId, kTagPong, echo);
    } else if (f.tag == kTagState) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        rejoin_state_ = ByteBuffer::wrap(f.payload.data(), f.payload.size());
      }
      MDGAN_LOG_INFO << "TcpNetwork: rejoin state received ("
                     << f.payload.size() << " bytes)";
    } else if (f.tag == kTagAdmit) {
      const auto w = payload.read_pod<std::uint32_t>();
      const auto round = payload.read_pod<std::int64_t>();
      const auto epoch = payload.read_pod<std::uint64_t>();
      if (w < 1 || w > n_workers_) return;
      std::uint64_t pub = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        admissions_.push_back(
            {static_cast<int>(w), static_cast<std::int64_t>(round)});
        if (static_cast<int>(w) != local_) alive_[w] = true;
        // Publish the post-max epoch, never the raw broadcast value: an
        // !admit overtaken by a newer !epoch/!death must not regress
        // the membership_epoch gauge.
        pub = epoch_ = std::max(epoch_, epoch);
      }
      obs_membership_epoch(pub);
      MDGAN_LOG_INFO << "TcpNetwork: worker " << w
                     << " re-admitted at round " << round << " (epoch "
                     << epoch << ")";
    } else if (f.tag == kTagDeath) {
      const auto w = payload.read_pod<std::uint32_t>();
      const auto epoch = payload.read_pod<std::uint64_t>();
      if (w < 1 || w > n_workers_ || static_cast<int>(w) == local_) return;
      bool fresh = false;
      std::uint64_t pub = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (alive_[w]) {
          alive_[w] = false;
          fresh = true;
        }
        pub = epoch_ = std::max(epoch_, epoch);
      }
      if (fresh) {
        obs_peer_death(static_cast<int>(w), elapsed_s());
        obs_membership_epoch(pub);
        if (!closing_.load()) {
          MDGAN_LOG_WARN << "TcpNetwork: death notice for worker " << w
                         << " (epoch " << epoch
                         << "); mapping peer to fail-stop";
        }
      }
    } else if (f.tag == kTagEpoch) {
      const auto epoch = payload.read_pod<std::uint64_t>();
      const auto n = payload.read_pod<std::uint32_t>();
      if (n != n_workers_) return;
      std::uint64_t pub = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (epoch >= epoch_) {
          epoch_ = epoch;
          for (std::size_t w = 1; w <= n_workers_; ++w) {
            const bool live = payload.read_pod<std::uint8_t>() != 0;
            // The bitmap covers worker slots only, and never overrides
            // what this endpoint knows about itself.
            if (static_cast<int>(w) == local_) continue;
            alive_[w] = live;
          }
        }
        hello_acked_ = true;
        pub = epoch_;
      }
      obs_membership_epoch(pub);
    } else if (f.tag == kTagRejoin) {
      const auto epoch = payload.read_pod<std::uint64_t>();
      std::uint64_t pub = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        pub = epoch_ = std::max(epoch_, epoch);
        rejoin_granted_ = true;
      }
      obs_rejoin(local_, epoch);
      obs_membership_epoch(pub);
      MDGAN_LOG_INFO << "TcpNetwork: rejoin granted under epoch " << epoch;
    }
    // Unknown '!' tags are ignored: forward compatibility.
  } catch (const std::exception&) {
  }
  cv_.notify_all();  // waiters re-check membership, grants, state
}

ByteBuffer TcpNetwork::encode_epoch_locked() const {
  ByteBuffer buf;
  buf.write_pod<std::uint64_t>(epoch_);
  buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(n_workers_));
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    buf.write_pod<std::uint8_t>(alive_[w] ? 1 : 0);
  }
  return buf;
}

bool TcpNetwork::wait_ready() {
  std::unique_lock<std::mutex> lock(mu_);
  if (local_ != kServerId) {
    // Worker: ready once the server's !epoch hello-ack lands. On a
    // rejoining endpoint the !rejoin grant precedes the ack on the same
    // ordered connection, so readiness implies the grant was consumed.
    cv_.wait_until(lock, rendezvous_deadline_, [&] {
      return closing_.load() || !alive_[kServerId] || hello_acked_;
    });
    return hello_acked_ && !closing_.load();
  }
  cv_.wait_until(lock, rendezvous_deadline_,
                 [&] { return closing_.load() || all_registered(); });
  // Tearing down is not readiness, even if every worker had registered:
  // the caller must not proceed into send() on a closing endpoint.
  return !closing_.load() && all_registered();
}

bool TcpNetwork::all_registered() const {
  return std::all_of(registered_.begin() + 1, registered_.end(),
                     [](bool r) { return r; });
}

void TcpNetwork::check_node(int node) const {
  if (node < 0 || node > static_cast<int>(n_workers_)) {
    throw std::out_of_range("TcpNetwork: node id " + std::to_string(node) +
                            " outside [0, " + std::to_string(n_workers_) +
                            "]");
  }
}

void TcpNetwork::check_local(int node, const char* what) const {
  check_node(node);
  if (node != local_) {
    throw std::logic_error(std::string("TcpNetwork: ") + what +
                           " addresses node " + std::to_string(node) +
                           ", but this endpoint is node " +
                           std::to_string(local_));
  }
}

double TcpNetwork::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void TcpNetwork::charge(int src, int dst, const std::string& tag,
                        std::size_t bytes) {
  const LinkKind kind = link_kind(src, dst);
  auto& t = totals_[static_cast<std::size_t>(kind)];
  t.bytes += bytes;
  t.messages += 1;
  obs_charge(kind, tag, bytes);
}

void TcpNetwork::mark_dead(int peer) {
  ConnRxStats rx;
  std::size_t inflight_msgs = 0, inflight_bytes = 0;
  std::uint64_t epoch = 0;
  bool said_bye = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto pi = static_cast<std::size_t>(peer);
    if (!alive_[pi]) return;
    alive_[pi] = false;
    liveness_.mark_dead(peer);
    epoch = ++epoch_;
    Conn& conn = conns_[pi];
    rx = conn.rx;
    said_bye = conn.said_bye;
    // Sever now; the loop closes the fd (only it ever does, under mu_,
    // so the number cannot be reused here) and drops the queue.
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    for (const auto& s : mailbox_) {
      ++inflight_msgs;
      inflight_bytes += s.msg.payload.size();
    }
    if (local_ == kServerId) {
      // Survivors map the victim onto fail-stop without ever having
      // exchanged a byte with it.
      ByteBuffer death;
      death.write_pod<std::uint32_t>(static_cast<std::uint32_t>(peer));
      death.write_pod<std::uint64_t>(epoch);
      broadcast_control(kTagDeath, death);
      broadcast_control(kTagEpoch, encode_epoch_locked());
    }
  }
  obs_membership_epoch(epoch);
  if (said_bye) {
    // An orderly end of run: the same membership change, but no death.
    MDGAN_LOG_INFO << "TcpNetwork: worker " << peer
                   << " said bye and disconnected (epoch " << epoch << ")";
  } else {
    obs_peer_death(peer, elapsed_s());
  }
  if (!said_bye && !closing_.load()) {
    // Drop diagnostics BEFORE the fail-stop mapping takes effect: who
    // died, how far ITS OWN stream got (per-connection, not the
    // endpoint-global last arrival), and what is still parked locally.
    detail::LogLine line(LogLevel::kWarn);
    line << "TcpNetwork: node " << peer
         << " disconnected, mapping to fail-stop (epoch " << epoch
         << "); last frame on its connection ";
    if (rx.any) {
      line << "(#" << rx.frames << ", sender=" << rx.src << ", tag=" << rx.tag
           << ", t=" << rx.at_s << "s)";
    } else {
      line << "(none)";
    }
    line << "; " << inflight_msgs << " message(s) / " << inflight_bytes
         << " payload byte(s) in flight in the local mailbox";
  }
  cv_.notify_all();
  poke();  // the loop drops the queue and flushes the notices
}

void TcpNetwork::begin_iteration(std::int64_t /*iter*/) {
  std::lock_guard<std::mutex> lock(mu_);
  ingress_max_ = std::max(ingress_max_, ingress_window_);
  ingress_window_ = 0;
}

void TcpNetwork::send(int from, int to, const std::string& tag,
                      ByteBuffer&& payload) {
  send(from, to, tag, SharedBuf::wrap(std::move(payload)));
}

void TcpNetwork::send(int from, int to, const std::string& tag,
                      SharedBuf&& payload) {
  check_node(to);
  check_local(from, "send(from)");
  if (to == local_) {
    throw std::logic_error("TcpNetwork: send to self");
  }
  if (is_control_tag(tag)) {
    throw std::invalid_argument("TcpNetwork: '!' tags are reserved for "
                                "transport control frames");
  }

  const auto ti = static_cast<std::size_t>(to);
  int route = to;  // which connection carries the frame
  std::unique_lock<std::mutex> lock(mu_);
  if (local_ == kServerId) {
    // Wait out the rendezvous if this worker has not dialed in yet.
    const bool up = cv_.wait_until(lock, rendezvous_deadline_, [&] {
      return closing_.load() || registered_[ti] || !alive_[ti];
    });
    if (closing_.load() || !alive_[ti]) return;  // fail-stop drop
    if (!up || !registered_[ti]) {
      throw std::runtime_error("TcpNetwork: worker " + std::to_string(to) +
                               " never joined the rendezvous");
    }
  } else {
    route = kServerId;  // star topology: everything goes via the server
    if (!alive_[kServerId] || !alive_[ti]) {
      return;  // fail-stop: a dead endpoint moves no bytes
    }
  }
  // Refcount dividend: payload bytes whose segment is shared with
  // another recipient's frame were serialized once, not per worker.
  obs_broadcast_saved(payload.shared_bytes());
  const std::size_t n_bytes = payload.size();  // the move below empties it
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  const double sim_t0 = tracer != nullptr ? elapsed_s() : -1.0;
  // Stamp the frame with this send's causal context even when no tracer
  // is attached: the receiver may be tracing, and the stamp is what its
  // recv:<tag> span carries. flow_seq is assigned under mu_, so program
  // order on one link is sequence order (same rule as the simulator).
  TraceCtx ctx;
  ctx.node = static_cast<std::uint32_t>(local_);
  ctx.seq = ++flow_seq_[ti];
  ctx.span = flow_id(local_, to, ctx.seq);
  OutFrame f{encode_frame_head(local_, to, tag, n_bytes, ctx),
             std::move(payload)};
  if (!enqueue(route, std::move(f), &lock)) return;
  charge(local_, to, tag, n_bytes);
  lock.unlock();
  if (tracer != nullptr) {
    emit_net_span(*tracer, local_, "send", tag, wall_t0, sim_t0, elapsed_s(),
                  n_bytes, ctx.span);
  }
}

std::optional<Message> TcpNetwork::pop_locked(const std::string& tag) {
  auto best = mailbox_.end();
  for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
    if (it->msg.tag != tag) continue;
    if (best == mailbox_.end() || it->msg.from < best->msg.from ||
        (it->msg.from == best->msg.from && it->seq < best->seq)) {
      best = it;
    }
  }
  if (best == mailbox_.end()) return std::nullopt;
  Message out = std::move(best->msg);
  mailbox_.erase(best);
  return out;
}

std::optional<Message> TcpNetwork::receive_tagged(int node,
                                                  const std::string& tag) {
  check_local(node, "receive_tagged");
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  using Clock = std::chrono::steady_clock;
  const auto deadline = opts_.receive_timeout_s > 0.0
                            ? after(opts_.receive_timeout_s)
                            : Clock::time_point::max();
  auto churn_until = Clock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  // True when nothing can ever arrive anymore: on a worker endpoint
  // every frame comes via the server; on the server, from the workers.
  auto peers_gone = [&] {
    if (local_ != kServerId) return !alive_[kServerId];
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (alive_[w]) return false;
    }
    return true;
  };
  const std::uint64_t epoch0 = epoch_;
  std::optional<Message> out;
  while (alive_[static_cast<std::size_t>(local_)] && !(out = pop_locked(tag))) {
    if (closing_.load() || peers_gone()) return std::nullopt;
    // Membership moved while we were blocked: wake the caller with
    // nullopt so it can re-check which senders it still expects
    // (mid-round degrade) instead of waiting out the full timeout on a
    // peer that is already gone. After a short grace, though: a frame
    // the server sent just after it learned of the change queues behind
    // the change notice (per-connection FIFO) and still completes this
    // receive.
    const auto now = Clock::now();
    if (epoch_ != epoch0 && churn_until == Clock::time_point::max()) {
      churn_until = now + std::chrono::milliseconds(100);
    }
    // The scan above re-ran after the last wait, so a frame that slipped
    // in before the deadline is returned, not dropped on the floor.
    const auto until = std::min(deadline, churn_until);
    if (now >= until) return std::nullopt;
    cv_.wait_until(lock, until);
  }
  lock.unlock();  // never trace while holding mu_
  if (out && tracer != nullptr) {
    emit_net_span(*tracer, local_, "recv", tag, wall_t0, out->arrival_s,
                  elapsed_s(), out->payload.size(), out->flow);
  }
  return out;
}

std::optional<Message> TcpNetwork::try_receive_tagged(int node,
                                                      const std::string& tag) {
  check_local(node, "try_receive_tagged");
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  std::unique_lock<std::mutex> lock(mu_);
  std::optional<Message> out = pop_locked(tag);
  lock.unlock();
  if (out && tracer != nullptr) {
    emit_net_span(*tracer, local_, "recv", tag, wall_t0, out->arrival_s,
                  elapsed_s(), out->payload.size(), out->flow);
  }
  return out;
}

std::size_t TcpNetwork::pending(int node) const {
  check_local(node, "pending");
  std::lock_guard<std::mutex> lock(mu_);
  return mailbox_.size();
}

LinkTotals TcpNetwork::totals(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[static_cast<std::size_t>(kind)];
}

std::uint64_t TcpNetwork::message_count(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[static_cast<std::size_t>(kind)].messages;
}

std::uint64_t TcpNetwork::max_ingress_per_iteration(int node) const {
  check_node(node);
  // Each endpoint observes only its own ingress; remote nodes report 0.
  if (node != local_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(ingress_max_, ingress_window_);
}

double TcpNetwork::sim_time(int node) const {
  check_node(node);
  // Measured time: one wall clock for the whole endpoint.
  return elapsed_s();
}

void TcpNetwork::advance_time(int node, double seconds) {
  check_node(node);
  if (seconds < 0.0) {
    throw std::invalid_argument("TcpNetwork: cannot advance time backwards");
  }
  // No-op: local compute takes real time on a real cluster.
}

double TcpNetwork::max_sim_time() const { return elapsed_s(); }

void TcpNetwork::crash(int worker) {
  check_node(worker);
  if (worker == kServerId) {
    throw std::invalid_argument("TcpNetwork: the server cannot crash");
  }
  // Server endpoint: actively sever the connection (the worker sees EOF
  // and fail-stops). Worker endpoint: record the death locally so sends
  // to the victim are dropped.
  mark_dead(worker);
}

bool TcpNetwork::is_alive(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  return alive_[static_cast<std::size_t>(node)];
}

std::vector<int> TcpNetwork::alive_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  out.reserve(n_workers_);
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w]) out.push_back(static_cast<int>(w));
  }
  return out;
}

std::size_t TcpNetwork::alive_worker_count() const {
  return alive_workers().size();
}

std::uint64_t TcpNetwork::membership_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool TcpNetwork::rejoin_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejoin_granted_;
}

bool TcpNetwork::wait_membership_epoch(std::uint64_t at_least,
                                       double timeout_s) {
  const auto deadline = after(timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline,
                 [&] { return closing_.load() || epoch_ >= at_least; });
  return epoch_ >= at_least;
}

TcpNetwork::ConnRxStats TcpNetwork::last_rx_of(int peer) const {
  check_node(peer);
  std::lock_guard<std::mutex> lock(mu_);
  return conns_[static_cast<std::size_t>(peer)].rx;
}

std::vector<int> TcpNetwork::take_rejoin_grants() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  out.swap(pending_grants_);
  return out;
}

std::vector<Transport::Admission> TcpNetwork::take_admissions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Admission> out;
  out.swap(admissions_);
  return out;
}

void TcpNetwork::say_bye() {
  if (local_ == kServerId) {
    throw std::logic_error("TcpNetwork: only a worker endpoint says bye");
  }
  std::unique_lock<std::mutex> lock(mu_);
  enqueue(kServerId,
          OutFrame{encode_frame(local_, kServerId, kTagBye, ByteBuffer{}), {}},
          &lock);
}

void TcpNetwork::announce_admission(int worker, std::int64_t round) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // The caller is the ENGINE thread, and `round` is strictly in the
  // future of the round it is currently processing: queueing the !admit
  // here — before that round's data frames go out on the same
  // connections — is what pins the admission round across roles. A
  // survivor must consume its round-R data frames before it can reach
  // its round-R+1 membership boundary, so per-connection FIFO puts the
  // !admit in its hands no later than that boundary, i.e. at or before
  // the admission round itself.
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t epoch = epoch_;
  ByteBuffer p;
  p.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker));
  p.write_pod<std::int64_t>(round);
  p.write_pod<std::uint64_t>(epoch);
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w] && registered_[w]) {
      const auto wi = static_cast<int>(w);
      enqueue(wi, OutFrame{encode_frame(local_, wi, kTagAdmit, p), {}},
              &lock);
    }
  }
  lock.unlock();
  MDGAN_LOG_INFO << "TcpNetwork: announced admission of worker " << worker
                 << " at round " << round << " (epoch " << epoch << ")";
}

void TcpNetwork::ship_rejoin_state(int worker, ByteBuffer&& state) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // Also engine-thread: the rejoiner receives !state before the
  // admission round's data frames on its (fresh) connection, so it can
  // adopt the transferred generator before the first batch lands.
  const std::size_t state_bytes = state.size();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (registered_[static_cast<std::size_t>(worker)]) {
      enqueue(worker,
              OutFrame{encode_frame_head(local_, worker, kTagState,
                                         state_bytes),
                       SharedBuf::wrap(std::move(state))},
              &lock);
    }
  }
  obs_rejoin_admitted(worker, static_cast<std::int64_t>(state_bytes));
  MDGAN_LOG_INFO << "TcpNetwork: shipped rejoin state to worker " << worker
                 << " (" << state_bytes << " bytes)";
}

bool TcpNetwork::await_alive(int node, double timeout_s) {
  check_node(node);
  const auto deadline = after(timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline, [&] {
    return closing_.load() || alive_[static_cast<std::size_t>(node)];
  });
  return alive_[static_cast<std::size_t>(node)];
}

std::optional<ByteBuffer> TcpNetwork::wait_rejoin_state(double timeout_s) {
  const auto deadline = after(timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline, [&] {
    return closing_.load() || rejoin_state_.has_value();
  });
  std::optional<ByteBuffer> out;
  out.swap(rejoin_state_);
  return out;
}

bool TcpNetwork::is_suspect(int worker) const {
  check_node(worker);
  std::lock_guard<std::mutex> lock(mu_);
  return liveness_.state(worker) == PeerState::kSuspect;
}

std::uint64_t TcpNetwork::suspect_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suspect_count_;
}

std::uint64_t TcpNetwork::dial_retry_count() const {
  // Written only during connect(), before any other thread exists.
  return dial_retries_done_;
}

void TcpNetwork::on_sink_attached() {
  // Dial retries necessarily predate the sink (they happen inside
  // connect()); flush the count once.
  const std::uint64_t unflushed = dial_retries_done_ - dial_retries_flushed_;
  obs_dial_retries(unflushed);
  dial_retries_flushed_ = dial_retries_done_;
  // Tell the tracer which cluster node this process records for — the
  // trace merger reads it back out of the file head (localNode) to pick
  // the clock-offset reference.
  obs::Tracer* tracer = obs_tracer();
  if (tracer != nullptr) tracer->set_local_node(local_);
}

std::optional<std::string> fetch_stats(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_s) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0) {
    return std::nullopt;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return std::nullopt;
  set_nodelay(fd);
  if (timeout_s > 0.0) set_recv_timeout(fd, timeout_s);
  const auto wire = encode_frame(kServerId, kServerId, kTagStats, {});
  std::optional<std::string> out;
  Frame reply;
  if (write_exact(fd, wire.data(), wire.size()) &&
      read_frame(fd, reply) && reply.tag == kTagStats) {
    out = std::string(reinterpret_cast<const char*>(reply.payload.data()),
                      reply.payload.size());
  }
  ::close(fd);
  return out;
}


}  // namespace mdgan::dist
