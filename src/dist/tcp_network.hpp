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
// Threads: each endpoint runs exactly ONE I/O thread, a poll(2) loop
// over every socket it owns — the listen fd (server), each worker
// connection, each accepted socket still owed its hello — plus one
// eventfd producers poke. Sends never touch a socket: they append the
// frame to the connection's bounded FIFO queue, and the loop writes
// queued frames (head plus payload segments as sendmsg iovecs, never
// copied) and cuts arriving bytes into frames with a FrameDecoder. The
// loop never blocks: a hello is owed within a per-socket deadline, so a
// dialer that connects and says nothing stalls neither the rendezvous
// nor the control plane; a W->W relay into a full queue pauses reading
// from the sending worker until the destination drains.
//
// Ordering: each endpoint feeds arriving frames into the same
// (sender, per-sender sequence)-ordered mailbox the simulator uses.
// Per-sender FIFO is inherited from TCP's in-order delivery (one
// connection per worker; relayed frames from one source are forwarded
// in arrival order into one FIFO queue), and receive_tagged pops
// the lowest (sender, seq) key among queued matches. Unlike SimNetwork
// it BLOCKS until a match arrives — the sender lives in another
// process — returning std::nullopt only when the local node is dead or
// the configured receive timeout expires.
//
// Liveness: fail-stop, detected, and PROPAGATED. A dropped connection
// (EOF or a socket error on read/write) marks the peer dead exactly
// like SimNetwork::crash: it leaves alive_workers(), and future sends
// to it are silently dropped. crash(w) on the server endpoint actively
// severs the connection. A worker that finished its run says `!bye`
// first (say_bye): its EOF takes the same membership path but is not
// counted or recorded as a death.
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
//  * the listener stays open past the rendezvous, and a re-dial from
//    an id whose previous connection died is GRANTED (a !rejoin frame,
//    then the !epoch ack) instead of rejected as a duplicate hello —
//    the worker comes back under a bumped epoch, exactly like an
//    AvailabilitySchedule rejoin. A hello for an id that is still
//    connected remains a rejected duplicate.
// An epoch bump wakes any blocked receive_tagged: unless a match lands
// within 100 ms, it returns nullopt, which is how the round engine
// learns to re-check liveness mid-round. (A frame the server sends
// right after it learned of the change queues behind the change notice,
// so the grace lets it complete the receive.)
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
  // Heartbeats (server endpoint): `!ping` every
  // liveness.heartbeat_interval_s from the I/O loop; 0 (default)
  // disables them and with them the suspect machinery — liveness then
  // only reacts to connection drops, the pre-liveness behavior. A
  // worker silent for suspect_after_s is SUSPECTED (logged + counted,
  // nothing evicted; the engine degrades exactly as it does for a slow
  // worker); silent for a further grace_s it is declared dead and
  // evicted through the normal !death path. Any frame from a suspect
  // re-seats it with no epoch change.
  LivenessConfig liveness;
  // Bound of each connection's send queue (frames). A producer thread
  // (send, announce_admission, ship_rejoin_state) finding the queue full
  // blocks until the I/O loop writes a frame out or the peer dies
  // (backpressure, observed by the send_queue_stall_seconds histogram);
  // a dead peer's queue is dropped wholesale so the crash control plane
  // never waits on undeliverable frames. Control frames the loop itself
  // queues skip the bound.
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

  // Idempotent teardown (also run by the destructor): lets the I/O
  // thread flush queued frames for up to 5 s, then stops it and severs
  // every connection. Any blocked wait_ready()/receive_tagged() returns
  // false/nullopt.
  void close();

  // Worker endpoint: tell the server this worker's run ended in order
  // (a `!bye` frame). Call after the last round and before close(),
  // which flushes it. The server still maps the EOF that follows to
  // fail-stop and fans it out, so survivors see the same membership,
  // but it counts no peer death. A close() without it keeps its crash
  // meaning.
  void say_bye();

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
  // One queued frame: the pre-payload bytes (header + fixed fields +
  // tag) plus the refcounted payload segments. Broadcast frames queued
  // to W connections share their batch segments — the queue holds
  // references, never copies.
  struct OutFrame {
    std::vector<std::uint8_t> head;
    SharedBuf body;
    std::size_t size() const { return head.size() + body.size(); }
  };
  // A socket the I/O thread owns: a node slot in conns_, or (server) an
  // accepted socket in pending_ that still owes its hello. Only the
  // loop assigns or closes fd, and always under mu_ (connect() sets the
  // first one before the loop starts).
  struct Conn {
    int fd = -1;
    // FIFO send queue: producers append under mu_, the loop writes and
    // pops. Elements never move, so the loop writes them outside mu_.
    std::deque<OutFrame> queue;
    std::uint64_t generation = 0;  // bumped when a connection ends; mu_
    ConnRxStats rx;                // last frame delivered; under mu_
    // Loop-only state.
    std::size_t sent = 0;       // bytes of queue.front() on the wire
    bool out_blocked = false;   // last write hit EAGAIN: poll POLLOUT
    FrameDecoder dec;           // the frame being read
    int relay_wait = -1;        // paused until this slot's queue drains
    double hello_deadline = 0;  // pending: dropped if no hello by then
    bool reply_then_close = false;  // pending: answered a !stats probe
    bool said_bye = false;  // server: the peer sent !bye; under mu_
  };
  struct Stored {
    std::uint64_t seq = 0;
    Message msg;
  };

  TcpNetwork(int local, std::size_t n_workers, Options opts);

  // Pops the (sender, seq)-smallest queued message tagged `tag`; mu_
  // held.
  std::optional<Message> pop_locked(const std::string& tag);
  bool all_registered() const;  // mu_ held
  void check_node(int node) const;
  void check_local(int node, const char* what) const;
  double elapsed_s() const;
  // The I/O thread, started by serve()/connect() once its first sockets
  // are in place. Runs until close(), then flushes queued frames for at
  // most 5 s and closes every socket.
  void run_loop();
  // Appends `f` to `peer`'s queue; mu_ held. With `lock`, the caller is
  // a producer thread: it blocks while the queue is full and pokes the
  // loop when the queue was empty. Without, it is the loop (or the
  // control fan-out, which pokes afterwards) and never blocks. False
  // when the peer is dead, the endpoint is closing, or the connection
  // the frame was meant for ended meanwhile (a rejoined worker's new
  // connection never carries frames accepted for its previous one).
  bool enqueue(int peer, OutFrame&& f,
               std::unique_lock<std::mutex>* lock = nullptr);
  // A small control frame from this node to `peer`, queued unbounded;
  // mu_ held.
  void queue_control(int peer, const char* tag, const ByteBuffer& payload);
  // Writes queued frames until the queue is empty or the socket is
  // full (several frames per sendmsg). False on a socket error.
  bool flush(Conn& c);
  // Reads until c.dec holds a whole frame or the socket is drained.
  // False on EOF, a socket error or a malformed stream.
  static bool read_some(Conn& c);
  // read_some + deliver, frame by frame, until the socket is drained or
  // a relay paused the connection.
  bool drain(int peer, Conn& c);
  // Loop, mu_ held: closes `peer`'s socket and drops its queue (a dead
  // peer's drop is recorded as writer_drop).
  void drop_conn(int peer);
  // Routes one decoded frame from connection `peer`: mailbox, W->W
  // relay (server) or the control handler.
  void deliver(int peer, Frame&& f);
  // Server: drains and classifies pending sockets — a valid hello
  // joins (or rejoins) its slot, a !stats probe gets one snapshot
  // frame, anything else or a missed deadline is closed.
  void serve_pending();
  void admit_hello(Conn& p, const Frame& hello);
  // One frame carrying a JSON snapshot of epoch, live round/phase, the
  // per-worker liveness table and (when a sink is attached) the full
  // metrics registry: the answer to a `!stats` probe.
  std::vector<std::uint8_t> stats_frame();
  // Dispatch one control frame from connection `peer` (worker side:
  // server->worker notices; server side: !pong echoes).
  void handle_control(int peer, const Frame& f);
  // Server, loop: heartbeat emission + liveness-timer advance (suspect
  // / dead transitions). No-op unless opts_.heartbeat_interval_s > 0.
  void pump_heartbeats();
  // !epoch payload for the current state; call with mu_ held.
  ByteBuffer encode_epoch_locked() const;
  // Server, mu_ held: `tag` + payload to every live registered worker.
  void broadcast_control(const char* tag, const ByteBuffer& payload);
  void charge(int src, int dst, const std::string& tag, std::size_t bytes);
  // Marks `peer` dead (fail-stop): severs its socket, and on the server
  // fans the !death + !epoch notices out to the survivors. Counted as a
  // peer death unless the peer said !bye first.
  void mark_dead(int peer);
  void poke();
  void on_sink_attached() override;

  const int local_;  // kServerId for the server endpoint, else worker id
  const std::size_t n_workers_;
  const Options opts_;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point rendezvous_deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // mailbox / liveness / queue-space events
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
  bool hello_acked_ = false;         // worker: first !epoch received
  bool rejoin_granted_ = false;      // worker: !rejoin received
  std::vector<int> pending_grants_;  // server: grants not yet harvested
  std::vector<Admission> admissions_;  // worker: !admit notices
  std::optional<ByteBuffer> rejoin_state_;  // worker: !state payload
  LivenessTracker liveness_;         // server; advanced by the loop
  double last_ping_s_ = 0.0;         // server: last heartbeat broadcast
  std::uint64_t ping_seq_ = 0;
  std::uint64_t suspect_count_ = 0;  // suspect episodes (mirrors metric)
  std::uint64_t dial_retries_done_ = 0;  // worker: failed dial attempts
  std::uint64_t dial_retries_flushed_ = 0;  // already pushed to the sink

  // conns_[w] is the server's connection to worker w; a worker endpoint
  // uses conns_[0]. Sized once, so a Conn never moves: a rejoin reuses
  // the slot in place.
  std::vector<Conn> conns_;
  std::vector<Conn> pending_;  // server, loop-only
  int listen_fd_ = -1;         // server, loop-only after start
  int wake_fd_ = -1;           // eventfd: producers poke the loop
  std::thread io_;
  std::once_flag close_once_;
};

// One-shot live introspection: dial a serving TcpNetwork endpoint,
// send a `!stats` probe in place of the hello and return the JSON
// snapshot it answers with (see stats_frame for the shape). Returns
// nullopt when the dial, the probe or the reply fails within
// `timeout_s`. Any client may call this at any time — the server's I/O
// loop answers it without touching membership.
std::optional<std::string> fetch_stats(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_s = 5.0);

}  // namespace mdgan::dist
