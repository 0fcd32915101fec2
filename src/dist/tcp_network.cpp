#include "dist/tcp_network.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/log.hpp"
#include "dist/frame.hpp"

namespace mdgan::dist {

namespace {

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

// Gathered write of `iov[0..n)` via sendmsg(2), resuming after partial
// writes by advancing the iovec cursor in place.
bool write_iovecs(int fd, iovec* iov, std::size_t n) {
  std::size_t at = 0;  // first iovec with bytes left
  while (at < n) {
    msghdr msg{};
    msg.msg_iov = iov + at;
    msg.msg_iovlen = n - at;
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto left = static_cast<std::size_t>(r);
    while (at < n && left >= iov[at].iov_len) {
      left -= iov[at].iov_len;
      ++at;
    }
    if (at < n && left > 0) {
      iov[at].iov_base = static_cast<std::uint8_t*>(iov[at].iov_base) + left;
      iov[at].iov_len -= left;
    }
  }
  return true;
}

// Puts one staged frame (head + payload segments) on the wire: every
// segment goes to sendmsg as its own iovec, so the payload bytes go
// from the shared buffers straight onto the socket, never copied into
// a contiguous wire buffer.
bool write_out(int fd, const std::vector<std::uint8_t>& head,
               const SharedBuf& body) {
  std::vector<iovec> iov;
  iov.reserve(1 + body.segments().size());
  iov.push_back({const_cast<std::uint8_t*>(head.data()), head.size()});
  for (const auto& seg : body.segments()) {
    iov.push_back({const_cast<std::uint8_t*>(seg->data()), seg->size()});
  }
  return write_iovecs(fd, iov.data(), iov.size());
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
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
      liveness_(n_workers, LivenessConfig{opts.heartbeat_interval_s,
                                          opts.suspect_after_s,
                                          opts.grace_s}) {
  if (n_workers_ == 0) {
    throw std::invalid_argument("TcpNetwork: need at least one worker");
  }
  alive_.assign(n_workers_ + 1, true);
  registered_.assign(n_workers_ + 1, false);
  recv_seq_.assign(n_workers_ + 1, 0);
  flow_seq_.assign(n_workers_ + 1, 0);
  conns_.resize(n_workers_ + 1);
  start_ = std::chrono::steady_clock::now();
  rendezvous_deadline_ =
      start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(opts_.rendezvous_timeout_s));
}

std::unique_ptr<TcpNetwork> TcpNetwork::serve(std::uint16_t port,
                                              std::size_t n_workers,
                                              Options opts) {
  auto net = std::unique_ptr<TcpNetwork>(
      new TcpNetwork(kServerId, n_workers, opts));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

  net->acceptor_ = std::thread([raw = net.get(), fd] {
    raw->accept_loop(fd);
  });
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

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  Conn* raw_conn = conn.get();
  net->conns_[kServerId] = std::move(conn);
  net->conns_[kServerId]->reader = std::thread(
      [raw = net.get(), raw_conn] { raw->reader_loop(kServerId, raw_conn); });
  net->spawn_writer(kServerId, raw_conn);
  return net;
}

TcpNetwork::~TcpNetwork() { close_all(); }

void TcpNetwork::close() { close_all(); }

void TcpNetwork::close_all() {
  std::lock_guard<std::mutex> guard(close_mu_);
  if (closed_) return;
  closed_ = true;
  closing_.store(true);
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& conn : conns_) {
    if (!conn) continue;
    // flush=true: let the writer drain frames already accepted into its
    // queue (bounded linger) before the fd is severed.
    retire_conn_threads(*conn, /*flush=*/true);
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  // Retired connections (replaced by a rejoin) already had their
  // threads joined and fd closed when they were retired.
}

void TcpNetwork::accept_loop(int listen_fd) {
  while (!closing_.load()) {
    bool all_joined = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t w = 1; w <= n_workers_; ++w) {
        if (!registered_[w]) {
          all_joined = false;
          break;
        }
      }
    }
    // A missed rendezvous ends the run; but once every worker has dialed
    // in at least once, the acceptor stays alive as the control-plane
    // pump and the rejoin listener.
    if (!all_joined &&
        std::chrono::steady_clock::now() >= rendezvous_deadline_) {
      break;
    }
    pump_control();
    pollfd pfd{listen_fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200 /*ms*/);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    set_nodelay(fd);
    // A connector that never completes its hello must not stall the
    // acceptor forever.
    set_recv_timeout(fd, 5.0);
    Frame hello;
    int id = -1;
    const bool got_hello = read_frame(fd, hello);
    // A `!stats` probe in hello position is not a join: answer with one
    // snapshot frame and move on. Any client may dial it at any time.
    if (got_hello && hello.tag == kTagStats) {
      serve_stats(fd);
      ::close(fd);
      continue;
    }
    if (got_hello && hello.tag == kTagHello &&
        hello.payload.size() >= 12) {
      const auto claimed = hello.payload.read_pod<std::uint32_t>();
      const auto n = hello.payload.read_pod<std::uint64_t>();
      if (claimed >= 1 && claimed <= n_workers_ && n == n_workers_ &&
          hello.src == static_cast<int>(claimed)) {
        id = static_cast<int>(claimed);
      }
    }
    if (id <= 0) {
      MDGAN_LOG_WARN << "TcpNetwork: rejecting connection with bad hello";
      ::close(fd);
      continue;
    }
    set_recv_timeout(fd, 0.0);  // back to fully blocking
    // The acceptor is the only writer of worker conn slots; classify the
    // hello against the slot's state (reads race nothing, but take mu_
    // anyway for the liveness flag).
    bool duplicate = false, is_rejoin = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_[static_cast<std::size_t>(id)] != nullptr) {
        if (alive_[static_cast<std::size_t>(id)]) {
          duplicate = true;
        } else {
          is_rejoin = true;  // the slot's connection died: welcome back
        }
      }
    }
    if (duplicate) {
      MDGAN_LOG_WARN << "TcpNetwork: rejecting duplicate hello for live "
                        "worker " << id;
      ::close(fd);
      continue;
    }
    if (is_rejoin) {
      grant_rejoin(id, fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    // Publish the connection BEFORE flagging the worker registered
    // (both under mu_): senders gate on registered_ under the same
    // mutex, so they can never observe a registered worker whose conn
    // slot is still being written.
    ByteBuffer epoch_payload;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_[static_cast<std::size_t>(id)] = std::move(conn);
      registered_[static_cast<std::size_t>(id)] = true;
      liveness_.track(id, elapsed_s());
      epoch_payload = encode_epoch_locked();
    }
    conns_[static_cast<std::size_t>(id)]->reader =
        std::thread([this, id, raw] { reader_loop(id, raw); });
    spawn_writer(id, raw);
    // Hello ack: current epoch + live bitmap, so a late joiner learns of
    // any deaths that predate it.
    write_frame(*raw, id, kServerId, id, kTagEpoch, epoch_payload);
    cv_.notify_all();
  }
  ::close(listen_fd);
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

void TcpNetwork::serve_stats(int fd) {
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
      const Conn* c = conns_[w].get();
      if (c != nullptr && c->rx.any) {
        os << ",\"last_rx_tag\":\"" << c->rx.tag
           << "\",\"last_rx_s\":" << c->rx.at_s
           << ",\"rx_frames\":" << c->rx.frames;
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
  const auto wire = encode_frame(local_, local_, kTagStats, payload);
  write_exact(fd, wire.data(), wire.size());
}

void TcpNetwork::pump_control() {
  // Heartbeats and the liveness timer run every pump cycle; the
  // broadcast work below short-circuits when nothing is queued.
  pump_heartbeats();
  std::vector<int> deaths;
  std::uint64_t epoch = 0;
  ByteBuffer epoch_payload;
  std::vector<std::pair<int, Conn*>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_deaths_.empty() && !epoch_dirty_) {
      return;
    }
    deaths.swap(pending_deaths_);
    epoch_dirty_ = false;
    epoch = epoch_;
    epoch_payload = encode_epoch_locked();
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (alive_[w] && registered_[w] && conns_[w] != nullptr) {
        targets.emplace_back(static_cast<int>(w), conns_[w].get());
      }
    }
  }
  // Writes happen outside mu_ (they can block); conn replacement only
  // happens on this same thread, so the Conn*s cannot go stale here. A
  // failed write marks that peer dead, queueing the next pump round.
  for (auto [w, conn] : targets) {
    bool ok = true;
    for (int dead : deaths) {
      ByteBuffer p;
      p.write_pod<std::uint32_t>(static_cast<std::uint32_t>(dead));
      p.write_pod<std::uint64_t>(epoch);
      if (!write_frame(*conn, w, kServerId, w, kTagDeath, p)) {
        ok = false;
        break;
      }
    }
    if (ok) write_frame(*conn, w, kServerId, w, kTagEpoch, epoch_payload);
  }
}

void TcpNetwork::pump_heartbeats() {
  if (local_ != kServerId || !liveness_.config().enabled()) return;
  const double now = elapsed_s();
  std::vector<LivenessTracker::Transition> transitions;
  std::vector<std::pair<int, Conn*>> targets;
  bool ping_due = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    transitions = liveness_.advance(now);
    ping_due = now - last_ping_s_ >= liveness_.config().heartbeat_interval_s;
    if (ping_due) {
      last_ping_s_ = now;
      for (std::size_t w = 1; w <= n_workers_; ++w) {
        if (alive_[w] && registered_[w] && conns_[w] != nullptr) {
          targets.emplace_back(static_cast<int>(w), conns_[w].get());
        }
      }
    }
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
      // The normal eviction path: severs the conn, queues the !death
      // fan-out for the next pump cycle.
      mark_dead(t.worker);
    }
  }
  if (!ping_due) return;
  ByteBuffer ping;
  ping.write_pod<std::uint64_t>(ping_seq_++);
  ping.write_pod<double>(now);
  // Trace-clock stamp for offset estimation: the worker echoes this and
  // appends its own, and the pong handler pairs the two with the RTT
  // midpoint. -1 = no tracer attached here, nothing to align against.
  obs::Tracer* tracer = obs_tracer();
  ping.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns() : -1);
  for (auto [w, conn] : targets) {
    write_frame(*conn, w, kServerId, w, kTagPing, ping);
  }
}

void TcpNetwork::grant_rejoin(int id, int fd) {
  const auto wi = static_cast<std::size_t>(id);
  // Retire the dead incarnation first: flag its writer dead (frames
  // still queued to the old incarnation drop — the peer restarted; its
  // new life must not replay them), sever its fd, join both threads,
  // then close the fd under its own write_mu — the lock acquisition is
  // the barrier that drains any straggling producer before the fd
  // number can be reused. The Conn object itself is parked in retired_,
  // never destroyed until close_all, so a sender still holding the old
  // Conn* fails on the dead flag instead of touching freed memory.
  std::unique_ptr<Conn> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old = std::move(conns_[wi]);
  }
  if (old) {
    retire_conn_threads(*old, /*flush=*/false);
    std::lock_guard<std::mutex> wlock(old->write_mu);
    if (old->fd >= 0) ::close(old->fd);
    old->fd = -1;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  Conn* raw = conn.get();
  std::uint64_t epoch = 0;
  ByteBuffer epoch_payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (old) retired_.push_back(std::move(old));
    conns_[wi] = std::move(conn);
    alive_[wi] = true;
    registered_[wi] = true;
    liveness_.track(id, elapsed_s());
    pending_grants_.push_back(id);  // the engine admits at a boundary
    epoch = ++epoch_;
    epoch_dirty_ = true;  // the pump tells everyone else
    epoch_payload = encode_epoch_locked();
  }
  obs_rejoin(id, epoch);
  obs_membership_epoch(epoch);
  MDGAN_LOG_INFO << "TcpNetwork: granting rejoin to worker " << id
                 << " (epoch " << epoch << ")";
  conns_[wi]->reader = std::thread([this, id, raw] { reader_loop(id, raw); });
  spawn_writer(id, raw);
  ByteBuffer grant;
  grant.write_pod<std::uint64_t>(epoch);
  write_frame(*raw, id, kServerId, id, kTagRejoin, grant);
  write_frame(*raw, id, kServerId, id, kTagEpoch, epoch_payload);
  cv_.notify_all();
}

void TcpNetwork::handle_control(int peer, const Frame& f) {
  // Control payloads come off the wire; a malformed one from a confused
  // peer is dropped, never fatal — data-plane correctness must not
  // depend on any single control frame.
  try {
    ByteBuffer payload = ByteBuffer::wrap(f.payload.data(),
                                          f.payload.size());
    if (local_ == kServerId) {
      // Server side: the only worker->server control frame is the
      // heartbeat echo. The reader loop already fed the tracker; here
      // we only recover the RTT. A pong with a garbage payload or a
      // mismatched source is dropped like any malformed control frame.
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
      Conn* conn = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn = conns_[kServerId].get();
      }
      if (conn != nullptr) {
        ByteBuffer echo;
        echo.append_raw(f.payload.data(), f.payload.size());
        if (f.payload.size() >= 24) {  // u64 + f64 + i64: stamped ping
          obs::Tracer* tracer = obs_tracer();
          echo.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns()
                                                         : -1);
        }
        write_frame(*conn, kServerId, local_, kServerId, kTagPong,
                    SharedBuf::wrap(std::move(echo)));
      }
    } else if (f.tag == kTagState) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        rejoin_state_ = ByteBuffer::wrap(f.payload.data(), f.payload.size());
      }
      MDGAN_LOG_INFO << "TcpNetwork: rejoin state received ("
                     << f.payload.size() << " bytes)";
      cv_.notify_all();
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
      cv_.notify_all();
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
      cv_.notify_all();
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
      cv_.notify_all();
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
      cv_.notify_all();
    }
    // Unknown '!' tags are ignored: forward compatibility.
  } catch (const std::exception&) {
  }
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
  cv_.wait_until(lock, rendezvous_deadline_, [&] {
    if (closing_.load()) return true;
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (!registered_[w]) return false;
    }
    return true;
  });
  // Tearing down is not readiness, even if every worker had registered:
  // the caller must not proceed into send() on a closing endpoint.
  if (closing_.load()) return false;
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (!registered_[w]) return false;
  }
  return true;
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

void TcpNetwork::mark_dead(int peer, const Conn* expect) {
  ConnRxStats rx;
  std::size_t inflight_msgs = 0, inflight_bytes = 0;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto pi = static_cast<std::size_t>(peer);
    if (expect != nullptr && conns_[pi].get() != expect) {
      return;  // a retired incarnation failed; the live one is fine
    }
    if (!alive_[pi]) return;
    alive_[pi] = false;
    liveness_.mark_dead(peer);
    epoch = ++epoch_;
    Conn* conn = conns_[pi].get();
    if (conn != nullptr) {
      rx = conn->rx;
      // Sever under mu_: the fd cannot be concurrently closed-and-reused
      // here, because every close path first takes mu_ to unlink the
      // conn from its slot.
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (const auto& s : mailbox_) {
      ++inflight_msgs;
      inflight_bytes += s.msg.payload.size();
    }
    if (local_ == kServerId) {
      // Broadcasting from here could deadlock (the caller may hold some
      // connection's write_mu); queue the notice for the acceptor-thread
      // control pump instead.
      pending_deaths_.push_back(peer);
      epoch_dirty_ = true;
    }
  }
  obs_peer_death(peer, elapsed_s());
  obs_membership_epoch(epoch);
  if (!closing_.load()) {
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
}

bool TcpNetwork::write_frame(Conn& conn, int peer, int src, int dst,
                             const std::string& tag, SharedBuf&& payload,
                             const TraceCtx& ctx) {
  OutFrame f;
  f.head = encode_frame_head(src, dst, tag, payload.size(), ctx);
  f.body = std::move(payload);
  std::unique_lock<std::mutex> lock(conn.write_mu);
  if (conn.fd < 0 || conn.dead || conn.stop) {
    lock.unlock();
    mark_dead(peer, &conn);
    return false;
  }
  if (conn.queue.size() >= opts_.send_queue_depth) {
    // Backpressure: the producer blocks until the writer frees a slot
    // or the connection dies (a dead peer's queue is dropped, so this
    // wait never outlives the peer).
    const auto t0 = std::chrono::steady_clock::now();
    conn.write_cv.wait(lock, [&] {
      return conn.dead || conn.stop ||
             conn.queue.size() < opts_.send_queue_depth;
    });
    obs_queue_stall(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    if (conn.dead || conn.stop) {
      lock.unlock();
      mark_dead(peer, &conn);
      return false;
    }
  }
  conn.queue.push_back(std::move(f));
  obs_queue_depth(conn.queue.size());
  conn.write_cv.notify_all();
  return true;
}

bool TcpNetwork::write_frame(Conn& conn, int peer, int src, int dst,
                             const std::string& tag,
                             const ByteBuffer& payload,
                             const TraceCtx& ctx) {
  // The queue owns its payloads; copy the (small, reused) control
  // buffer into a fresh segment.
  return write_frame(conn, peer, src, dst, tag,
                     SharedBuf::wrap(ByteBuffer(payload)), ctx);
}

void TcpNetwork::spawn_writer(int peer, Conn* conn) {
  conn->writer = std::thread([this, peer, conn] { writer_loop(peer, conn); });
}

void TcpNetwork::writer_loop(int peer, Conn* conn) {
  std::unique_lock<std::mutex> lock(conn->write_mu);
  for (;;) {
    conn->write_cv.wait(lock, [&] {
      return conn->stop || conn->dead || !conn->queue.empty();
    });
    if (conn->dead) break;
    if (conn->queue.empty()) {
      if (conn->stop) break;  // flushed: nothing queued, close requested
      continue;
    }
    OutFrame f = std::move(conn->queue.front());
    conn->queue.pop_front();
    conn->inflight = true;
    const int fd = conn->fd;
    conn->write_cv.notify_all();  // a producer may be waiting for space
    lock.unlock();
    const bool ok = fd >= 0 && write_out(fd, f.head, f.body);
    lock.lock();
    conn->inflight = false;
    if (!ok) {
      conn->dead = true;
      conn->write_cv.notify_all();
      lock.unlock();
      mark_dead(peer, conn);
      lock.lock();
      break;
    }
    conn->write_cv.notify_all();  // close_all's flush linger watches this
  }
  // Exit drain: whatever is still queued will never reach the wire.
  // Count it into the flight recorder (the post-mortem's "what was lost
  // on the epoch bump") and free any producer blocked on a full queue.
  std::uint64_t frames = 0, bytes = 0;
  for (const auto& q : conn->queue) {
    ++frames;
    bytes += q.head.size() + q.body.size();
  }
  conn->queue.clear();
  conn->write_cv.notify_all();
  const bool was_dead = conn->dead;
  lock.unlock();
  if (frames > 0 && was_dead) {
    obs_writer_drop(peer, frames, bytes);
    if (!closing_.load()) {
      MDGAN_LOG_WARN << "TcpNetwork: dropped " << frames
                     << " queued frame(s) (" << bytes
                     << " bytes) to dead peer " << peer;
    }
  }
}

void TcpNetwork::retire_conn_threads(Conn& conn, bool flush) {
  {
    std::unique_lock<std::mutex> lock(conn.write_mu);
    if (flush) {
      // Bounded linger so already-accepted frames (a final feedback, a
      // control ack) reach the wire before the fd is severed.
      conn.write_cv.wait_for(lock, std::chrono::seconds(5), [&] {
        return conn.dead || (conn.queue.empty() && !conn.inflight);
      });
    } else {
      conn.dead = true;  // no flush: the peer is gone, drop the queue
    }
    conn.stop = true;
    conn.write_cv.notify_all();
  }
  // Sever before joining: a writer blocked in sendmsg (peer not
  // reading) or a reader blocked in read only returns once the socket
  // is shut down.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  if (conn.writer.joinable()) conn.writer.join();
  if (conn.reader.joinable()) conn.reader.join();
}

void TcpNetwork::enqueue_local(int src, const std::string& tag,
                               ByteBuffer&& payload, std::uint64_t flow) {
  std::lock_guard<std::mutex> lock(mu_);
  charge(src, local_, tag, payload.size());
  ingress_window_ += payload.size();
  Stored s;
  s.seq = recv_seq_[static_cast<std::size_t>(src)]++;
  s.msg.from = src;
  s.msg.tag = tag;
  s.msg.payload = std::move(payload);
  s.msg.arrival_s = elapsed_s();
  s.msg.flow = flow;
  mailbox_.push_back(std::move(s));
  cv_.notify_all();
}

void TcpNetwork::reader_loop(int peer, Conn* conn) {
  Frame f;
  while (!closing_.load() && read_frame(conn->fd, f)) {
    bool reseated = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn->rx.any = true;
      conn->rx.src = f.src;
      conn->rx.tag = f.tag;
      ++conn->rx.frames;
      conn->rx.at_s = elapsed_s();
      // Any frame is proof of life: clear suspicion (server side; the
      // tracker is inert on workers and when heartbeats are off).
      reseated = liveness_.heard_from(peer, elapsed_s());
    }
    if (reseated) {
      obs_reseat(peer);
      MDGAN_LOG_INFO << "TcpNetwork: worker " << peer
                     << " resumed inside the grace window; re-seated "
                        "(no epoch change)";
    }
    if (is_control_tag(f.tag)) {
      handle_control(peer, f);
      continue;
    }
    if (local_ == kServerId) {
      if (f.src != peer) continue;  // a worker may only speak as itself
      if (f.dst == kServerId) {
        enqueue_local(f.src, f.tag, std::move(f.payload), f.ctx.span);
      } else if (f.dst >= 1 && f.dst <= static_cast<int>(n_workers_) &&
                 f.dst != peer) {
        // Relay W->W through the star. Charged on the logical
        // worker->worker link by payload size, exactly like the
        // simulator charges a direct send.
        Conn* dst_conn = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (alive_[static_cast<std::size_t>(f.dst)] &&
              registered_[static_cast<std::size_t>(f.dst)]) {
            dst_conn = conns_[static_cast<std::size_t>(f.dst)].get();
            charge(f.src, f.dst, f.tag, f.payload.size());
          }
        }
        if (dst_conn != nullptr) {
          // Preserve the ORIGINAL sender's trace context across the
          // relay so the merged trace draws one W->W arrow, not a
          // W->S->W pair with a broken middle. Moving the payload is
          // safe: read_frame fills it fresh on the next frame.
          write_frame(*dst_conn, f.dst, f.src, f.dst, f.tag,
                      SharedBuf::wrap(std::move(f.payload)), f.ctx);
        }
      }
    } else {
      if (f.dst == local_) {
        enqueue_local(f.src, f.tag, std::move(f.payload), f.ctx.span);
      }
    }
  }
  mark_dead(peer, conn);
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

  int route = to;  // which connection carries the frame
  Conn* conn = nullptr;
  std::uint32_t flow_seq = 0;
  if (local_ == kServerId) {
    // Wait out the rendezvous if this worker has not dialed in yet.
    std::unique_lock<std::mutex> lock(mu_);
    const bool up = cv_.wait_until(lock, rendezvous_deadline_, [&] {
      return closing_.load() || registered_[static_cast<std::size_t>(to)] ||
             !alive_[static_cast<std::size_t>(to)];
    });
    if (closing_.load()) return;
    if (!alive_[static_cast<std::size_t>(to)]) return;  // fail-stop drop
    if (!up || !registered_[static_cast<std::size_t>(to)]) {
      throw std::runtime_error("TcpNetwork: worker " + std::to_string(to) +
                               " never joined the rendezvous");
    }
    conn = conns_[static_cast<std::size_t>(to)].get();
    flow_seq = ++flow_seq_[static_cast<std::size_t>(to)];
  } else {
    route = kServerId;  // star topology: everything goes via the server
    std::lock_guard<std::mutex> lock(mu_);
    if (!alive_[kServerId] || !alive_[static_cast<std::size_t>(to)]) {
      return;  // fail-stop: a dead endpoint moves no bytes
    }
    conn = conns_[kServerId].get();
    flow_seq = ++flow_seq_[static_cast<std::size_t>(to)];
  }

  if (conn == nullptr) return;
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
  ctx.seq = flow_seq;
  ctx.span = flow_id(local_, to, flow_seq);
  if (!write_frame(*conn, route, local_, to, tag, std::move(payload), ctx)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    charge(local_, to, tag, n_bytes);
  }
  if (tracer != nullptr) {
    obs::TraceEvent ev;
    std::snprintf(ev.name, obs::TraceEvent::kNameCap, "send:%s", tag.c_str());
    ev.cat = obs::Cat::kNet;
    ev.node = local_;
    ev.wall_t0_ns = wall_t0;
    ev.wall_dur_ns = tracer->now_ns() - wall_t0;
    ev.sim_t0 = sim_t0;
    ev.sim_t1 = elapsed_s();
    ev.bytes = n_bytes;
    ev.flow = ctx.span;
    tracer->emit(ev);
  }
}

std::optional<Message> TcpNetwork::receive_tagged(int node,
                                                  const std::string& tag) {
  check_local(node, "receive_tagged");
  std::unique_lock<std::mutex> lock(mu_);
  auto find_best = [&] {
    auto best = mailbox_.end();
    for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
      if (it->msg.tag != tag) continue;
      if (best == mailbox_.end() || it->msg.from < best->msg.from ||
          (it->msg.from == best->msg.from && it->seq < best->seq)) {
        best = it;
      }
    }
    return best;
  };
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts_.receive_timeout_s));
  // True when nothing can ever arrive anymore: on a worker endpoint
  // every frame comes via the server; on the server, from the workers.
  auto peers_gone = [&] {
    if (local_ != kServerId) return !alive_[kServerId];
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (alive_[w]) return false;
    }
    return true;
  };
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  const std::uint64_t epoch0 = epoch_;
  bool timed_out = false;
  for (;;) {
    if (!alive_[static_cast<std::size_t>(local_)]) return std::nullopt;
    auto best = find_best();
    if (best != mailbox_.end()) {
      Message out = std::move(best->msg);
      mailbox_.erase(best);
      if (tracer != nullptr) {
        lock.unlock();  // never trace while holding mu_
        obs::TraceEvent ev;
        std::snprintf(ev.name, obs::TraceEvent::kNameCap, "recv:%s",
                      tag.c_str());
        ev.cat = obs::Cat::kNet;
        ev.node = local_;
        ev.wall_t0_ns = wall_t0;
        ev.wall_dur_ns = tracer->now_ns() - wall_t0;
        ev.sim_t0 = out.arrival_s;
        ev.sim_t1 = elapsed_s();
        ev.bytes = out.payload.size();
        ev.flow = out.flow;
        tracer->emit(ev);
      }
      return out;
    }
    if (closing_.load() || peers_gone()) return std::nullopt;
    // Membership moved while we were blocked: wake the caller with
    // nullopt so it can re-check which senders it still expects
    // (mid-round degrade) instead of waiting out the full timeout on a
    // peer that is already gone.
    if (epoch_ != epoch0) return std::nullopt;
    // The deadline expired on a previous wait, and the scan above just
    // re-ran: only a still-empty mailbox is a real timeout. A frame that
    // slipped in between the last scan and the deadline is returned, not
    // dropped on the floor.
    if (timed_out) return std::nullopt;
    // Block: the sender runs in another process. nullopt only on
    // timeout, an epoch bump, or a dead cluster.
    if (opts_.receive_timeout_s <= 0.0) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      timed_out = true;
    }
  }
}

std::optional<Message> TcpNetwork::try_receive_tagged(int node,
                                                      const std::string& tag) {
  check_local(node, "try_receive_tagged");
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  std::optional<Message> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto best = mailbox_.end();
    for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
      if (it->msg.tag != tag) continue;
      if (best == mailbox_.end() || it->msg.from < best->msg.from ||
          (it->msg.from == best->msg.from && it->seq < best->seq)) {
        best = it;
      }
    }
    if (best == mailbox_.end()) return std::nullopt;
    out = std::move(best->msg);
    mailbox_.erase(best);
  }
  if (tracer != nullptr) {
    obs::TraceEvent ev;
    std::snprintf(ev.name, obs::TraceEvent::kNameCap, "recv:%s", tag.c_str());
    ev.cat = obs::Cat::kNet;
    ev.node = local_;
    ev.wall_t0_ns = wall_t0;
    ev.wall_dur_ns = tracer->now_ns() - wall_t0;
    ev.sim_t0 = out->arrival_s;
    ev.sim_t1 = elapsed_s();
    ev.bytes = out->payload.size();
    ev.flow = out->flow;
    tracer->emit(ev);
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
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w]) ++n;
  }
  return n;
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
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline,
                 [&] { return closing_.load() || epoch_ >= at_least; });
  return epoch_ >= at_least;
}

TcpNetwork::ConnRxStats TcpNetwork::last_rx_of(int peer) const {
  check_node(peer);
  std::lock_guard<std::mutex> lock(mu_);
  const auto* conn = conns_[static_cast<std::size_t>(peer)].get();
  return conn != nullptr ? conn->rx : ConnRxStats{};
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

void TcpNetwork::announce_admission(int worker, std::int64_t round) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // The caller is the ENGINE thread, and `round` is strictly in the
  // future of the round it is currently processing: writing the !admit
  // here — before that round's data frames go out on the same
  // connections — is what pins the admission round across roles. A
  // survivor must consume its round-R data frames before it can reach
  // its round-R+1 membership boundary, so per-connection FIFO puts the
  // !admit in its hands no later than that boundary, i.e. at or before
  // the admission round itself. The async acceptor pump gives no such
  // guarantee, which is why this broadcast does not go through it.
  std::uint64_t epoch = 0;
  std::vector<std::pair<int, Conn*>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_;
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (alive_[w] && registered_[w] && conns_[w] != nullptr) {
        targets.emplace_back(static_cast<int>(w), conns_[w].get());
      }
    }
  }
  // Writes outside mu_ (they can block). A Conn* can only be replaced
  // by the acceptor's grant_rejoin, which parks the old conn in
  // retired_ with fd -1: a straggling write fails harmlessly and the
  // identity-checked mark_dead spares the fresh incarnation — the same
  // contract the data-plane send() relies on.
  ByteBuffer p;
  p.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker));
  p.write_pod<std::int64_t>(round);
  p.write_pod<std::uint64_t>(epoch);
  for (auto [w, conn] : targets) {
    write_frame(*conn, w, kServerId, w, kTagAdmit, p);
  }
  MDGAN_LOG_INFO << "TcpNetwork: announced admission of worker " << worker
                 << " at round " << round << " (epoch " << epoch << ")";
}

void TcpNetwork::ship_rejoin_state(int worker, ByteBuffer&& state) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // Also engine-thread: the rejoiner receives !state before the
  // admission round's data frames on its (fresh) connection, so it can
  // adopt the transferred generator before the first batch lands.
  Conn* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (alive_[static_cast<std::size_t>(worker)] &&
        registered_[static_cast<std::size_t>(worker)]) {
      conn = conns_[static_cast<std::size_t>(worker)].get();
    }
  }
  const std::size_t state_bytes = state.size();
  if (conn != nullptr) {
    write_frame(*conn, worker, kServerId, worker, kTagState,
                SharedBuf::wrap(std::move(state)));
  }
  obs_rejoin_admitted(worker, static_cast<std::int64_t>(state_bytes));
  MDGAN_LOG_INFO << "TcpNetwork: shipped rejoin state to worker " << worker
                 << " (" << state_bytes << " bytes)";
}

bool TcpNetwork::await_alive(int node, double timeout_s) {
  check_node(node);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline, [&] {
    return closing_.load() || alive_[static_cast<std::size_t>(node)];
  });
  return alive_[static_cast<std::size_t>(node)];
}

std::optional<ByteBuffer> TcpNetwork::wait_rejoin_state(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
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
