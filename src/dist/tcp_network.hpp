// Real TCP transport: the dist::Transport contract over POSIX sockets,
// so the MD-GAN protocol runs as actual processes on one machine or
// many instead of inside the SimNetwork test double.
//
// Topology: a star. The server (node 0) listens; each worker dials in
// and introduces itself with a control frame carrying its 1-based id
// (the rendezvous). Worker->worker traffic (discriminator swaps) is
// relayed through the server, which makes the server endpoint's traffic
// accountant *global*: it observes every S->W send, every W->S arrival
// and every W->W relay, so its totals(LinkKind) match the SimNetwork's
// for the same protocol run — the property the loopback equivalence
// test pins. Relayed frames are charged by payload size on the logical
// W->W link, exactly like SimNetwork charges them; transport framing
// overhead and control frames are never charged.
//
// Ordering: each endpoint feeds arriving frames into the same
// (sender, per-sender sequence)-ordered mailbox the simulator uses.
// Per-sender FIFO is inherited from TCP's in-order delivery (one
// connection per worker; relayed frames from one source are forwarded
// by a single reader thread in arrival order), and receive_tagged pops
// the lowest (sender, seq) key among queued matches. Unlike SimNetwork
// it BLOCKS until a match arrives — the sender lives in another
// process — returning std::nullopt only when the local node is dead or
// the configured receive timeout expires.
//
// Liveness: fail-stop, detected, and PROPAGATED. A dropped connection
// (EOF or a socket error on read/write) marks the peer dead exactly
// like SimNetwork::crash: it leaves alive_workers(), and future sends
// to it are silently dropped. crash(w) on the server endpoint actively
// severs the connection.
//
// Control plane: only the server endpoint observes a worker's TCP drop
// directly, so it runs a small '!'-tagged control-frame protocol (see
// frame.hpp for the vocabulary) that the other workers consume:
//  * every membership change bumps a monotonically increasing
//    membership epoch (membership_epoch()), and the server broadcasts
//    the new epoch plus its live-worker bitmap as a !epoch frame;
//  * a detected death additionally broadcasts a !death notice, so
//    surviving workers map the victim onto fail-stop without ever
//    having exchanged a byte with it;
//  * the acceptor stays alive past the rendezvous, and a re-dial from
//    an id whose previous connection died is GRANTED (a !rejoin frame,
//    then the !epoch ack) instead of rejected as a duplicate hello —
//    the worker comes back under a bumped epoch, exactly like an
//    AvailabilitySchedule rejoin. A hello for an id that is still
//    connected remains a rejected duplicate.
// An epoch bump wakes any blocked receive_tagged (it returns nullopt),
// which is how the round engine learns to re-check liveness mid-round.
// Control frames are never charged to the traffic accountants.
//
// Time: sim_time()/max_sim_time() report *measured* wall-clock seconds
// since the endpoint finished construction — the same API the PR 2
// virtual clock defined, so MdGan::round_sim_seconds() becomes measured
// round time on a real cluster. advance_time() is a no-op: local
// compute takes actual time here.
//
// Each endpoint is ONE node: send()/receive_tagged()/pending() only
// accept the local node id (plus any destination for send). Use
// core::NodeRole to run MdGan against an endpoint.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/frame.hpp"
#include "dist/liveness.hpp"
#include "dist/transport.hpp"

namespace mdgan::dist {

struct TcpOptions {
  // Deadline for the rendezvous: the server waits this long for all
  // workers to dial in; a worker retries its connect until it.
  double rendezvous_timeout_s = 30.0;
  // Blocking receive deadline; 0 waits forever.
  double receive_timeout_s = 120.0;
  // Worker dial policy: up to 1 + dial_retries connect attempts, with
  // bounded exponential backoff between them — attempt i sleeps
  // min(dial_backoff_ms * 2^i, 2000ms) plus a deterministic jitter
  // derived from (worker id, attempt), so a thundering herd of
  // rejoiners decorrelates without losing reproducibility. The
  // rendezvous deadline still bounds the whole dial, whichever limit
  // trips first.
  int dial_retries = 100;
  double dial_backoff_ms = 25.0;
  // Heartbeats (server endpoint): `!ping` every heartbeat_interval_s on
  // the acceptor pump; 0 (default) disables them and with them the
  // suspect machinery — liveness then only reacts to connection drops,
  // the pre-liveness behavior. A worker silent for suspect_after_s is
  // SUSPECTED (logged + counted, nothing evicted; the engine degrades
  // exactly as it does for a slow worker); silent for a further grace_s
  // it is declared dead and evicted through the normal !death path. Any
  // frame from a suspect re-seats it with no epoch change.
  double heartbeat_interval_s = 0.0;
  double suspect_after_s = 2.0;
  double grace_s = 8.0;
  // Bound of the per-connection async send queue (frames). Every write
  // is enqueued and drained by the connection's writer thread, which
  // puts the frame head and each payload segment on the wire as the
  // iovecs of one sendmsg(2), never copying the payload; a full
  // queue blocks the producer (backpressure, observed by the
  // send_queue_stall_seconds histogram) until the writer frees a slot
  // or the peer dies — a dead peer's queue is dropped wholesale so the
  // crash control plane never waits on undeliverable frames.
  std::size_t send_queue_depth = 128;
};

class TcpNetwork final : public Transport {
 public:
  using Options = TcpOptions;

  // Server endpoint: binds 0.0.0.0:`port` (0 picks an ephemeral port,
  // see port()) and accepts `n_workers` registrations in the
  // background. Returns immediately after listen; sends to a worker
  // that has not yet registered block until it does (or the rendezvous
  // deadline passes). Throws std::runtime_error on socket failure.
  static std::unique_ptr<TcpNetwork> serve(std::uint16_t port,
                                           std::size_t n_workers,
                                           Options opts = {});

  // Worker endpoint `worker_id` in [1, n_workers]: dials host:port,
  // retrying until the rendezvous deadline. Throws std::runtime_error
  // if the server cannot be reached.
  static std::unique_ptr<TcpNetwork> connect(const std::string& host,
                                             std::uint16_t port,
                                             int worker_id,
                                             std::size_t n_workers,
                                             Options opts = {});

  ~TcpNetwork() override;

  int local_node() const { return local_; }
  // The actually-bound listen port (server endpoint only).
  std::uint16_t port() const { return port_; }
  // Blocks until every worker has registered (server) or until the
  // server's !epoch hello-ack arrives (worker). Returns false if the
  // rendezvous deadline passed first, or if the endpoint began closing
  // mid-rendezvous — callers must not proceed into send() on an
  // endpoint that is tearing down.
  bool wait_ready();

  // Idempotent teardown (also run by the destructor): stops the
  // acceptor and reader threads and severs every connection. Any
  // blocked wait_ready()/receive_tagged() returns false/nullopt.
  void close();

  // True once the server granted this worker endpoint a rejoin (its id
  // had dialed in before on a connection that has since died).
  bool rejoin_granted() const;

  // Worker endpoint: blocks until the server's `!state` rejoin transfer
  // arrives (the serialized core::RejoinState, opaque at this layer) or
  // timeout_s elapses / the endpoint closes (nullopt). The engine
  // re-admits at a round boundary, so expect up to one round of delay
  // after the grant.
  std::optional<ByteBuffer> wait_rejoin_state(double timeout_s);

  // Liveness introspection (server endpoint; tests and drills).
  bool is_suspect(int worker) const;
  std::uint64_t suspect_count() const;
  // Failed connect attempts this endpoint retried through (worker).
  std::uint64_t dial_retry_count() const;

  // Blocks until membership_epoch() >= at_least (true) or timeout_s
  // elapsed / the endpoint is closing (false).
  bool wait_membership_epoch(std::uint64_t at_least, double timeout_s);

  // Last frame delivered by the connection to `peer`, for drop
  // diagnostics: this is the dead peer's OWN stream position (frames
  // counted per connection), not the endpoint-global last arrival.
  struct ConnRxStats {
    bool any = false;          // false: nothing ever arrived on it
    int src = -1;              // original sender of the last frame
    std::string tag;           // tag of the last frame
    std::uint64_t frames = 0;  // frames delivered by this connection
    double at_s = 0.0;         // arrival time, endpoint clock
  };
  ConnRxStats last_rx_of(int peer) const;

  std::size_t n_workers() const override { return n_workers_; }
  void begin_iteration(std::int64_t iter) override;
  void send(int from, int to, const std::string& tag,
            ByteBuffer&& payload) override;
  // Zero-copy broadcast path: the payload segments ride the queue and
  // the sendmsg iovec array by reference; W queued broadcast frames
  // share one serialized batch. Wire bytes and charges are identical to
  // sending payload.concat().
  void send(int from, int to, const std::string& tag,
            SharedBuf&& payload) override;
  std::optional<Message> receive_tagged(int node,
                                        const std::string& tag) override;
  std::optional<Message> try_receive_tagged(int node,
                                            const std::string& tag) override;
  std::size_t pending(int node) const override;

  LinkTotals totals(LinkKind kind) const override;
  std::uint64_t message_count(LinkKind kind) const override;
  std::uint64_t max_ingress_per_iteration(int node) const override;

  double sim_time(int node) const override;
  void advance_time(int node, double seconds) override;
  double max_sim_time() const override;

  void crash(int worker) override;
  bool is_alive(int node) const override;
  std::vector<int> alive_workers() const override;
  std::size_t alive_worker_count() const override;
  std::uint64_t membership_epoch() const override;

  std::vector<int> take_rejoin_grants() override;
  std::vector<Admission> take_admissions() override;
  void announce_admission(int worker, std::int64_t round) override;
  void ship_rejoin_state(int worker, ByteBuffer&& state) override;
  bool await_alive(int node, double timeout_s) override;

 private:
  // One frame staged for the connection's writer thread: the pre-payload
  // bytes (header + fixed fields + tag) plus the refcounted payload
  // segments, written as one gathered sendmsg. Broadcast frames queued
  // to W connections share their batch segments — the queue holds
  // references, never copies.
  struct OutFrame {
    std::vector<std::uint8_t> head;
    SharedBuf body;
  };
  struct Conn {
    int fd = -1;
    // Guards queue/stop/dead/inflight (and fd at close). Producers
    // enqueue under it; the writer thread drains in enqueue order, so
    // per-connection FIFO — the ordering contract the !admit broadcast
    // and the mailbox rely on — is preserved across the async hop.
    std::mutex write_mu;
    std::condition_variable write_cv;
    std::deque<OutFrame> queue;
    bool stop = false;      // close requested: drain, then exit
    bool dead = false;      // writer hit a socket error; queue dropped
    bool inflight = false;  // writer is mid-write outside the lock
    std::thread writer;
    std::thread reader;
    ConnRxStats rx;  // last frame this connection delivered; under mu_
  };
  struct Stored {
    std::uint64_t seq = 0;
    Message msg;
  };

  TcpNetwork(int local, std::size_t n_workers, Options opts);

  void check_node(int node) const;
  void check_local(int node, const char* what) const;
  double elapsed_s() const;
  // Frames one message and hands it to `conn`'s writer thread; returns
  // false (and marks `peer` dead, if `conn` is still its current
  // connection) when the connection is already gone. A full queue
  // blocks until the writer frees a slot (backpressure) or the
  // connection dies. True means accepted in FIFO order, not yet on the
  // wire — the writer drains asynchronously.
  // `ctx` is the causal trace context stamped into the frame head: the
  // sender's flow id on first hop, or the ORIGINAL sender's context
  // preserved verbatim on the W->W relay.
  bool write_frame(Conn& conn, int peer, int src, int dst,
                   const std::string& tag, SharedBuf&& payload,
                   const TraceCtx& ctx = {});
  // Copying convenience for small control payloads the caller reuses.
  bool write_frame(Conn& conn, int peer, int src, int dst,
                   const std::string& tag, const ByteBuffer& payload,
                   const TraceCtx& ctx = {});
  // The per-connection drain loop: pops frames in enqueue order and
  // writes them (head + payload segments as sendmsg iovecs). On a write
  // failure it drops whatever is queued (counted into the flight
  // recorder), marks the peer dead, and exits.
  void writer_loop(int peer, Conn* conn);
  void spawn_writer(int peer, Conn* conn);
  // Teardown half of the writer protocol: bounded linger for the queue
  // to flush, then stop + sever + join (writer first, then reader).
  void retire_conn_threads(Conn& conn, bool flush);
  void reader_loop(int peer, Conn* conn);
  void accept_loop(int listen_fd);
  // Answers a `!stats` probe on a freshly accepted connection: one
  // frame carrying a JSON snapshot of epoch, live round/phase, the
  // per-worker liveness table and (when a sink is attached) the full
  // metrics registry. The caller closes the fd.
  void serve_stats(int fd);
  // Server side: drains queued death notices and epoch bumps into
  // !death / !epoch broadcasts. Runs on the acceptor thread so no
  // mark_dead caller ever writes control frames while holding a
  // connection's write_mu (which could deadlock across two conns).
  void pump_control();
  // Accepted a hello for an id whose previous connection died: tear the
  // old conn down, install the new one under a bumped epoch, and send
  // the !rejoin grant. Acceptor thread only.
  void grant_rejoin(int id, int fd);
  // Dispatch one control frame from connection `peer` (worker side:
  // server->worker notices; server side: !pong echoes).
  void handle_control(int peer, const Frame& f);
  // Server side, acceptor thread: heartbeat emission + liveness-timer
  // advance (suspect / dead transitions). No-op unless
  // opts_.heartbeat_interval_s > 0.
  void pump_heartbeats();
  // !epoch payload for the current state; call with mu_ held.
  ByteBuffer encode_epoch_locked() const;
  void enqueue_local(int src, const std::string& tag, ByteBuffer&& payload,
                     std::uint64_t flow = 0);
  void charge(int src, int dst, const std::string& tag, std::size_t bytes);
  // Marks `peer` dead (fail-stop). When `expect` is non-null the mark
  // only applies if `expect` is still peer's current connection — a
  // write failure on a connection that was already retired by a rejoin
  // must not kill the fresh incarnation.
  void mark_dead(int peer, const Conn* expect = nullptr);
  void close_all();
  void on_sink_attached() override;

  const int local_;  // kServerId for the server endpoint, else worker id
  const std::size_t n_workers_;
  const Options opts_;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point rendezvous_deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // mailbox / liveness / rendezvous events
  std::vector<bool> alive_;     // index 0 = server
  std::vector<bool> registered_;  // per worker id; server endpoint only
  std::vector<Stored> mailbox_;   // the local node's mailbox
  std::vector<std::uint64_t> recv_seq_;  // per sender, assigned at enqueue
  std::vector<std::uint32_t> flow_seq_;  // per destination, trace flow ids
  LinkTotals totals_[3];
  std::uint64_t ingress_window_ = 0;  // the local node's open window
  std::uint64_t ingress_max_ = 0;
  std::atomic<bool> closing_{false};

  // Control-plane state, all under mu_.
  std::uint64_t epoch_ = 0;          // bumped on every membership change
  bool epoch_dirty_ = false;         // server: pump should broadcast !epoch
  std::vector<int> pending_deaths_;  // server: queued !death notices
  bool hello_acked_ = false;         // worker: first !epoch received
  bool rejoin_granted_ = false;      // worker: !rejoin received
  std::vector<int> pending_grants_;  // server: grants not yet harvested
  std::vector<Admission> admissions_;  // worker: !admit notices
  std::optional<ByteBuffer> rejoin_state_;  // worker: !state payload
  LivenessTracker liveness_;         // server; advanced on the acceptor
  double last_ping_s_ = 0.0;         // server: last heartbeat broadcast
  std::uint64_t ping_seq_ = 0;
  std::uint64_t suspect_count_ = 0;  // suspect episodes (mirrors metric)
  std::uint64_t dial_retries_done_ = 0;  // worker: failed dial attempts
  std::uint64_t dial_retries_flushed_ = 0;  // already pushed to the sink

  // conns_[w] is the server's connection to worker w; a worker endpoint
  // uses conns_[0] for its single connection to the server. Slots are
  // written by the acceptor thread (under mu_); a conn replaced by a
  // rejoin is parked in retired_ instead of destroyed, so a straggling
  // sender still holding the old Conn* fails its write harmlessly
  // (fd -1, identity-checked mark_dead) instead of using freed memory.
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> retired_;
  std::thread acceptor_;
  std::mutex close_mu_;  // serializes close() vs destructor
  bool closed_ = false;  // under close_mu_
};

// One-shot live introspection: dial a serving TcpNetwork endpoint,
// send a `!stats` probe in place of the hello and return the JSON
// snapshot it answers with (see serve_stats for the shape). Returns
// nullopt when the dial, the probe or the reply fails within
// `timeout_s`. Any client may call this at any time — the server's
// acceptor answers between rendezvous/rejoin duties without touching
// membership.
std::optional<std::string> fetch_stats(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_s = 5.0);

}  // namespace mdgan::dist
