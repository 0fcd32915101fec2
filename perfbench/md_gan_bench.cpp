// End-to-end MD-GAN cluster benchmark: one server plus W = 3 workers,
// driven through the library's public API from a single process.
//
//   md_gan_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (k = k_log_n(3) = 1, L = 1, shard 64, E = 1):
//  * tcp-sync-swap: MLP-MNIST, sync server, swap every 2 rounds
//    (batch 32), real TcpNetwork loopback endpoints, one thread per
//    role. The relayed W->W swap dominates the wire here, so transport,
//    serialization and swap changes show on this workload.
//  * tcp-async-b8: MLP-MNIST, async server (§VII-1), swap off, batch 8,
//    over TcpNetwork: many small frames and W generator steps per round,
//    so per-message and per-step fixed costs show.
//  * sim-cnn: CNN-MNIST in process over SimNetwork, sync, swap off,
//    batch 32: compute-bound (GEMM, conv/convT, thread pool), no socket.
//
// A run repeats whole training episodes of a fixed round count until
// --seconds have passed: each episode synthesizes its data from --seed,
// brings the cluster up, trains, and tears it down. Repeating episodes
// gives several set-up samples per run and keeps FID a function of the
// seed alone. The load is closed-loop: every round waits for the
// previous one. Round timestamps come from the server's EvalHook, which
// only records a time.
//
// --trace 0 prints the end-to-end metrics; --trace 1 spends half the
// run on untraced episodes and half on traced ones (phase spans, compute
// spans, a timing transport wrapper on every endpoint) and prints the
// per-layer metrics. The last stdout line is the result JSON; the line
// before it carries diagnostics: seed, sample counts, host steal share,
// and the wall-clock round times, which steal makes too noisy to gate.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/log.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"
#include "layer_replay.hpp"
#include "metrics/evaluator.hpp"
#include "obs/sink.hpp"
#include "traced_transport.hpp"

namespace mdgan::perfbench {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kShard = 64;
// --seed generates the workload's inputs: the synthetic dataset and its
// i.i.d. sharding. The cluster's own seed (model init, latent draws,
// swap stream) is part of the fixed configuration, as it is for one
// deployment, so runs with different seeds differ in their data only.
constexpr std::uint64_t kModelSeed = 0x6D6447414E;
constexpr std::uint64_t kFidSeed = 0xF1D5EED;

struct Workload {
  const char* name;
  gan::ArchKind arch;
  bool tcp;
  bool async;
  bool swap;
  std::size_t batch;
  std::int64_t rounds;  // per episode, warm-up included
  std::int64_t warmup;  // leading rounds left out of every timing
};

const Workload kWorkloads[] = {
    {"tcp-sync-swap", gan::ArchKind::kMlpMnist, true, false, true, 32, 32, 2},
    {"tcp-async-b8", gan::ArchKind::kMlpMnist, true, true, false, 8, 32, 2},
    {"sim-cnn", gan::ArchKind::kCnnMnist, false, false, false, 32, 16, 2},
};

core::MdGanConfig make_config(const Workload& wl) {
  core::MdGanConfig cfg;
  cfg.hp.batch = wl.batch;
  cfg.hp.disc_steps = 1;
  cfg.k = core::k_log_n(kWorkers);
  cfg.epochs_per_swap = 1;
  cfg.swap_enabled = wl.swap;
  cfg.async = wl.async;
  cfg.shard_size = kShard;
  return cfg;
}

// ---------------------------------------------------------------- helpers

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile of a sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Host CPU ticks from /proc/stat: steal and total over all states.
struct StealSample {
  double steal = 0.0;
  double total = 0.0;
  bool ok = false;
};

StealSample read_steal() {
  StealSample s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return s;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) return s;
    s.total += v;
    if (i == 7) s.steal = v;
  }
  s.ok = true;
  return s;
}

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

// Every role constructs its MdGan, then all start round 1 together; a
// role that failed during set-up still arrives so no one waits forever.
class StartGate {
 public:
  explicit StartGate(std::size_t n) : left_(n) {}
  void arrive() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--left_ == 0) cv_.notify_all();
  }
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (--left_ == 0) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [this] { return left_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t left_;
};

// FID of a generator against a fixed held-out synthetic set, scored
// with the library's evaluator. A fresh evaluator per call keeps the
// latent draw identical for every generator scored; a generator whose
// parameters were already scored (every episode of a deterministic
// run) reuses that score.
class FidScorer {
 public:
  FidScorer()
      : train_(data::make_synthetic_digits(1024, kFidSeed)),
        test_(data::make_synthetic_digits(512, kFidSeed + 1)) {}

  double score(nn::Sequential& g, std::uint64_t g_fnv,
               const gan::GanArch& arch, const gan::ClassCodes& codes) {
    const auto hit = cache_.find(g_fnv);
    if (hit != cache_.end()) return hit->second;
    metrics::Evaluator ev(train_, test_, {64, 3, 64, 1e-3f},
                          /*eval_samples=*/512, kFidSeed);
    const double fid = ev.evaluate(g, arch, codes).fid;
    cache_.emplace(g_fnv, fid);
    return fid;
  }

 private:
  data::InMemoryDataset train_, test_;
  std::map<std::uint64_t, double> cache_;
};

// ---------------------------------------------------------------- episode

// What one traced episode adds: the server's span trace and the
// transport wrapper's timings.
struct TraceData {
  std::map<std::string, double> phase_s;  // phase:* over timed rounds
  double round_span_s = 0.0;
  double gemm_calls = 0.0, gemm_s = 0.0, pool_dispatches = 0.0;
  std::uint64_t spans_dropped = 0;
  TransportTrace::Totals transport;
};

struct Episode {
  double setup_s = 0.0;
  std::vector<double> round_s;  // timed rounds only
  double timed_wall_s = 0.0;
  double timed_cpu_s = 0.0;
  AllocStats timed_allocs;
  double peak_rss_mb = 0.0;  // at the end of training, before scoring
  dist::LinkTotals totals[3];
  std::uint64_t generator_fnv = 0;
  bool finite = true;  // every model ended with finite parameters
  std::int64_t rounds_run = 0;
  std::int64_t gen_updates = 0;
  std::int64_t stale_dropped = 0;
  double fid = 0.0;
  std::string error;  // empty = every role finished
  TraceData trace;
};

constexpr dist::LinkKind kLinks[3] = {dist::LinkKind::kServerToWorker,
                                      dist::LinkKind::kWorkerToServer,
                                      dist::LinkKind::kWorkerToWorker};

// Per-round timestamps from the server's EvalHook, plus the resource
// snapshots taken at the edges of the timed region.
class RoundClock {
 public:
  RoundClock(const Workload& wl, obs::Sink* sink, TransportTrace* trace)
      : wl_(wl), sink_(sink), trace_(trace), ends_(wl.rounds + 1, 0.0) {}

  void start() { ends_[0] = steady_seconds(); }

  gan::EvalHook hook() {
    return [this](std::int64_t iter, nn::Sequential&) {
      const double t = steady_seconds();
      if (iter < 1 || iter > wl_.rounds) return;
      ends_[static_cast<std::size_t>(iter)] = t;
      if (iter == wl_.warmup || iter == wl_.rounds) {
        const bool open = iter == wl_.warmup;
        cpu_[open ? 0 : 1] = cpu_seconds();
        allocs_[open ? 0 : 1] = alloc_stats();
        if (sink_ != nullptr) ns_[open ? 0 : 1] = sink_->tracer().now_ns();
        if (trace_ != nullptr) trace_->set_armed(open);
      }
    };
  }

  void finish(Episode& ep) const {
    for (std::int64_t i = wl_.warmup + 1; i <= wl_.rounds; ++i) {
      ep.round_s.push_back(ends_[static_cast<std::size_t>(i)] -
                           ends_[static_cast<std::size_t>(i - 1)]);
    }
    ep.timed_wall_s = ends_[static_cast<std::size_t>(wl_.rounds)] -
                      ends_[static_cast<std::size_t>(wl_.warmup)];
    ep.timed_cpu_s = cpu_[1] - cpu_[0];
    ep.timed_allocs = allocs_[1] - allocs_[0];
  }

  std::int64_t window_start_ns() const { return ns_[0]; }
  std::int64_t window_end_ns() const { return ns_[1]; }

 private:
  const Workload& wl_;
  obs::Sink* sink_;
  TransportTrace* trace_;
  std::vector<double> ends_;  // [0] = start of round 1
  double cpu_[2] = {0.0, 0.0};
  AllocStats allocs_[2];
  std::int64_t ns_[2] = {0, 0};
};

// Span-derived layer numbers over the timed window of one episode.
void read_spans(const obs::Tracer& tracer, const Workload& wl,
                const RoundClock& clock, TraceData& out) {
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    const double dur = 1e-9 * static_cast<double>(ev.wall_dur_ns);
    if (ev.cat == obs::Cat::kCompute) {
      if (ev.wall_t0_ns < clock.window_start_ns() ||
          ev.wall_t0_ns >= clock.window_end_ns()) {
        continue;
      }
      if (std::strcmp(ev.name, "gemm_f32") == 0) {
        out.gemm_calls += 1.0;
        out.gemm_s += dur;
      } else if (std::strcmp(ev.name, "pool_dispatch") == 0) {
        out.pool_dispatches += 1.0;
      }
      continue;
    }
    if (ev.node != dist::kServerId || ev.iter <= wl.warmup) continue;
    if (ev.cat == obs::Cat::kRound) {
      out.round_span_s += dur;
    } else if (ev.cat == obs::Cat::kPhase &&
               std::strncmp(ev.name, "phase:", 6) == 0) {
      out.phase_s[ev.name + 6] += dur;
    }
  }
  out.spans_dropped = tracer.dropped();
}

std::vector<data::InMemoryDataset> make_shards(std::uint64_t seed) {
  auto full = data::make_synthetic_digits(kWorkers * kShard, seed);
  Rng split_rng(seed);
  return data::split_iid(full, kWorkers, split_rng);
}

// The traced episodes' sink: spans in memory, compute spans on, no
// files written. Null for untraced episodes.
std::unique_ptr<obs::Sink> make_trace_sink(bool traced) {
  if (!traced) return nullptr;
  obs::SinkConfig sc;
  sc.force_trace = true;
  sc.compute_spans = true;
  return std::make_unique<obs::Sink>(sc);
}

void finish_server(core::MdGan& md, Episode& ep, FidScorer& fid) {
  ep.rounds_run = md.iterations_run();
  ep.gen_updates = md.generator_updates();
  ep.stale_dropped = md.stale_feedbacks_dropped();
  const std::vector<float> g = md.generator().flatten_parameters();
  ep.generator_fnv = fnv1a(g);
  ep.finite = ep.finite && all_finite(g);
  ep.peak_rss_mb = peak_rss_mb();
  ep.fid = fid.score(md.generator(), ep.generator_fnv, md.arch(), md.codes());
}

Episode run_sim_episode(const Workload& wl, std::uint64_t seed, bool traced,
                        FidScorer& fid) {
  Episode ep;
  const double launch = steady_seconds();
  std::unique_ptr<obs::Sink> sink = make_trace_sink(traced);
  TransportTrace trace(kWorkers);
  RoundClock clock(wl, sink.get(), traced ? &trace : nullptr);
  try {
    auto shards = make_shards(seed);
    dist::SimNetwork sim(kWorkers);
    sim.set_sink(sink.get());
    TracedTransport wrapped(sim, trace);
    dist::Transport& net = traced ? static_cast<dist::Transport&>(wrapped)
                                  : static_cast<dist::Transport&>(sim);
    core::MdGanConfig cfg = make_config(wl);
    cfg.sink = sink.get();
    core::MdGan md(gan::make_arch(wl.arch), cfg, std::move(shards),
                   kModelSeed, net);
    if (traced) obs::install_global_sink(sink.get());
    ep.setup_s = steady_seconds() - launch;
    clock.start();
    md.train(wl.rounds, /*eval_every=*/1, clock.hook());
    obs::install_global_sink(nullptr);
    for (std::size_t w = 1; w <= kWorkers; ++w) {
      ep.finite = ep.finite &&
                  all_finite(md.discriminator_of(w).flatten_parameters());
    }
    for (int i = 0; i < 3; ++i) ep.totals[i] = sim.totals(kLinks[i]);
    finish_server(md, ep, fid);
  } catch (const std::exception& e) {
    obs::install_global_sink(nullptr);
    ep.error = e.what();
  }
  clock.finish(ep);
  if (traced) {
    read_spans(sink->tracer(), wl, clock, ep.trace);
    ep.trace.transport = trace.totals();
  }
  return ep;
}

Episode run_tcp_episode(const Workload& wl, std::uint64_t seed, bool traced,
                        FidScorer& fid) {
  Episode ep;
  const double launch = steady_seconds();
  std::unique_ptr<obs::Sink> sink = make_trace_sink(traced);
  TransportTrace trace(kWorkers);
  RoundClock clock(wl, sink.get(), traced ? &trace : nullptr);
  const gan::GanArch arch = gan::make_arch(wl.arch);
  const core::MdGanConfig cfg = make_config(wl);
  dist::TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 30.0;

  std::vector<data::InMemoryDataset> shards;
  std::unique_ptr<dist::TcpNetwork> server;
  try {
    shards = make_shards(seed);
    server = dist::TcpNetwork::serve(0, kWorkers, opts);
  } catch (const std::exception& e) {
    ep.error = e.what();
    return ep;
  }
  server->set_sink(sink.get());
  const std::uint16_t port = server->port();

  StartGate gate(kWorkers + 1);
  std::vector<std::string> errors(kWorkers + 1);
  std::vector<std::unique_ptr<dist::TcpNetwork>> endpoints(kWorkers + 1);
  std::vector<char> worker_finite(kWorkers + 1, 1);

  std::thread server_thread([&] {
    bool arrived = false;
    try {
      if (!server->wait_ready()) {
        throw std::runtime_error("server rendezvous timed out");
      }
      TracedTransport wrapped(*server, trace);
      dist::Transport& net = traced ? static_cast<dist::Transport&>(wrapped)
                                    : static_cast<dist::Transport&>(*server);
      core::MdGanConfig scfg = cfg;
      scfg.sink = sink.get();
      core::MdGan md(arch, scfg, {}, kModelSeed, net, nullptr,
                     core::NodeRole::server());
      arrived = true;
      gate.arrive_and_wait();
      if (traced) obs::install_global_sink(sink.get());
      ep.setup_s = steady_seconds() - launch;
      clock.start();
      md.train(wl.rounds, /*eval_every=*/1, clock.hook());
      finish_server(md, ep, fid);
    } catch (const std::exception& e) {
      errors[0] = e.what();
      if (!arrived) gate.arrive();
      server->close();
    }
  });
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w <= kWorkers; ++w) {
    workers.emplace_back([&, w] {
      bool arrived = false;
      const int id = static_cast<int>(w);
      try {
        endpoints[w] = dist::TcpNetwork::connect("127.0.0.1", port, id,
                                                 kWorkers, opts);
        if (!endpoints[w]->wait_ready()) {
          throw std::runtime_error("worker rendezvous timed out");
        }
        TracedTransport wrapped(*endpoints[w], trace);
        dist::Transport& net =
            traced ? static_cast<dist::Transport&>(wrapped)
                   : static_cast<dist::Transport&>(*endpoints[w]);
        core::MdGan md(arch, cfg, {shards[w - 1]}, kModelSeed, net,
                       nullptr, core::NodeRole::worker(id));
        arrived = true;
        gate.arrive_and_wait();
        md.train(wl.rounds);
        worker_finite[w] =
            all_finite(md.discriminator_of(w).flatten_parameters()) ? 1 : 0;
      } catch (const std::exception& e) {
        errors[w] = e.what();
        if (!arrived) gate.arrive();
        if (endpoints[w] != nullptr) endpoints[w]->close();
      }
    });
  }
  server_thread.join();
  for (auto& t : workers) t.join();
  obs::install_global_sink(nullptr);

  for (std::size_t i = 0; i <= kWorkers; ++i) {
    if (!errors[i].empty() && ep.error.empty()) {
      ep.error = (i == 0 ? std::string("server: ")
                         : "worker " + std::to_string(i) + ": ") +
                 errors[i];
    }
    if (i > 0) ep.finite = ep.finite && worker_finite[i] != 0;
  }
  for (int i = 0; i < 3; ++i) ep.totals[i] = server->totals(kLinks[i]);
  clock.finish(ep);
  if (traced) {
    read_spans(sink->tracer(), wl, clock, ep.trace);
    ep.trace.transport = trace.totals();
  }
  return ep;
}

Episode run_episode(const Workload& wl, std::uint64_t seed, bool traced,
                    FidScorer& fid) {
  return wl.tcp ? run_tcp_episode(wl, seed, traced, fid)
                : run_sim_episode(wl, seed, traced, fid);
}

// The in-process SimNetwork run every TCP episode must reproduce.
struct Reference {
  dist::LinkTotals totals[3];
  std::uint64_t generator_fnv = 0;
};

Reference run_reference(const Workload& wl, std::uint64_t seed) {
  dist::SimNetwork sim(kWorkers);
  core::MdGan md(gan::make_arch(wl.arch), make_config(wl), make_shards(seed),
                 kModelSeed, sim);
  md.train(wl.rounds);
  Reference ref;
  for (int i = 0; i < 3; ++i) ref.totals[i] = sim.totals(kLinks[i]);
  ref.generator_fnv = fnv1a(md.generator().flatten_parameters());
  return ref;
}

// ---------------------------------------------------------------- checks

// Feedbacks one episode attempted and the ones that were never folded
// or applied; a failed episode counts every feedback as failed.
struct Feedbacks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

// Returns the reasons this episode fails the correctness gate (empty =
// passes) and adds its feedbacks to `fb`.
std::vector<std::string> check_episode(const Workload& wl, const Episode& ep,
                                       const Reference* ref, Feedbacks& fb) {
  std::vector<std::string> bad;
  if (!ep.error.empty()) bad.push_back("error: " + ep.error);
  if (ep.rounds_run != wl.rounds) {
    bad.push_back("ran " + std::to_string(ep.rounds_run) + " of " +
                  std::to_string(wl.rounds) + " rounds");
  }
  if (!ep.finite) bad.push_back("non-finite parameters");
  if (ref != nullptr) {
    for (int i = 0; i < 3; ++i) {
      if (ep.totals[i].bytes != ref->totals[i].bytes ||
          ep.totals[i].messages != ref->totals[i].messages) {
        bad.push_back(std::string("link ") + dist::link_label(kLinks[i]) +
                      " totals differ from the SimNetwork reference");
      }
    }
    if (!wl.async && ep.generator_fnv != ref->generator_fnv) {
      bad.push_back("generator differs from the SimNetwork reference");
    }
  }
  const std::int64_t attempted =
      static_cast<std::int64_t>(kWorkers) * wl.rounds;
  if (wl.async && ep.gen_updates != attempted - ep.stale_dropped) {
    bad.push_back("async updates " + std::to_string(ep.gen_updates) +
                  " != W * rounds - stale drops");
  }
  // Async applies feedbacks one update each; sync folds every feedback
  // that reached the server.
  const std::int64_t applied =
      wl.async ? ep.gen_updates
               : static_cast<std::int64_t>(ep.totals[1].messages);
  fb.attempted += attempted;
  fb.failed += bad.empty() ? std::max<std::int64_t>(0, attempted - applied)
                           : attempted;
  return bad;
}

// ---------------------------------------------------------------- output

class MetricsOut {
 public:
  void add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }

  // Human-readable table on stderr, then nothing on stdout.
  void print_table() const {
    for (const auto& r : rows_) {
      std::fprintf(stderr, "  %-40s %18.9g %s\n", r.name.c_str(), r.value,
                   r.unit);
    }
  }

  std::string json() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", rows_[i].value);
      os << (i ? ", " : "") << "\"" << rows_[i].name << "\": {\"value\": "
         << value << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------- run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flag without a value");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Runs episodes until `seconds` have passed (at least `min_episodes`).
std::vector<Episode> run_for(const Workload& wl, std::uint64_t seed,
                             bool traced, double seconds,
                             std::size_t min_episodes, FidScorer& fid) {
  std::vector<Episode> eps;
  const double start = steady_seconds();
  while (eps.size() < min_episodes ||
         steady_seconds() - start < seconds) {
    eps.push_back(run_episode(wl, seed, traced, fid));
    if (!eps.back().error.empty()) break;  // a broken cluster stays broken
  }
  return eps;
}

std::vector<double> pooled_rounds(const std::vector<Episode>& eps) {
  std::vector<double> all;
  for (const auto& ep : eps) {
    all.insert(all.end(), ep.round_s.begin(), ep.round_s.end());
  }
  return all;
}

std::vector<double> per_episode(const std::vector<Episode>& eps,
                                const std::function<double(const Episode&)>& f) {
  std::vector<double> out;
  for (const auto& ep : eps) out.push_back(f(ep));
  return out;
}

// Wall-clock speed of the measured episodes. On a host whose CPU steal
// drifts (3-25% of ticks measured), these moved by up to 2x between
// runs of the same code, so they are printed beside the result rather
// than gated.
void wall_clock_metrics(const Workload& wl, const std::vector<Episode>& eps,
                        MetricsOut& m) {
  const std::vector<double> rounds = pooled_rounds(eps);
  const double timed = static_cast<double>(wl.rounds - wl.warmup);
  const double samples_per_round =
      static_cast<double>(kWorkers * wl.batch);  // L = 1 real batch each
  m.add("round_s.p50", quantile(rounds, 0.5), "s");
  m.add("round_s.p90", quantile(rounds, 0.9), "s");
  m.add("samples_per_s", median(per_episode(eps, [&](const Episode& ep) {
          return samples_per_round * timed / ep.timed_wall_s;
        })),
        "1/s");
}

void end_to_end_metrics(const Workload& wl, const Episode& first,
                        const std::vector<Episode>& eps, const Feedbacks& fb,
                        MetricsOut& m) {
  const double timed = static_cast<double>(wl.rounds - wl.warmup);
  // Process CPU time excludes what the hypervisor stole, which makes it
  // the steadiest timing on a shared host.
  m.add("cpu_s_per_round", median(per_episode(eps, [&](const Episode& ep) {
          return ep.timed_cpu_s / timed;
        })),
        "s");
  std::uint64_t wire_bytes = 0;
  for (const auto& t : first.totals) wire_bytes += t.bytes;
  m.add("wire_bytes_per_round",
        static_cast<double>(wire_bytes) / static_cast<double>(wl.rounds), "B");
  m.add("fid", median(per_episode(eps, [](const Episode& ep) {
          return ep.fid;
        })),
        "fid");
  m.add("setup_s", median(per_episode(eps, [](const Episode& ep) {
          return ep.setup_s;
        })),
        "s");
  // ru_maxrss is a high-water mark and FID scoring allocates more than
  // training does, so the peak comes from the process's first episode,
  // read before anything was scored.
  m.add("peak_rss_mb", first.peak_rss_mb, "MB");
  m.add("feedback_applied_share",
        fb.attempted > 0 ? 1.0 - static_cast<double>(fb.failed) /
                                     static_cast<double>(fb.attempted)
                         : 0.0,
        "share");
}

const char* const kLayerNames[] = {
    "Dense",   "LeakyReLU", "ReLU",    "Tanh",    "BatchNorm",
    "Reshape", "Flatten",   "Conv2D",  "ConvTranspose2D",
    "MinibatchDiscrimination"};

void per_layer_metrics(const Workload& wl, std::uint64_t seed,
                       const std::vector<Episode>& plain,
                       const std::vector<Episode>& traced, MetricsOut& m) {
  const double timed = static_cast<double>(wl.rounds - wl.warmup);
  const double n_traced = static_cast<double>(traced.size());
  const double traced_rounds = timed * n_traced;

  m.add("obs.trace_overhead",
        median(pooled_rounds(traced)) / median(pooled_rounds(plain)) - 1.0,
        "ratio");

  // core: the server's phase spans and generator updates.
  std::map<std::string, double> phase_s;
  double round_span_s = 0.0;
  for (const auto& ep : traced) {
    for (const auto& [k, v] : ep.trace.phase_s) phase_s[k] += v;
    round_span_s += ep.trace.round_span_s;
  }
  for (const char* p : {"broadcast", "local", "collect", "swap"}) {
    m.add(std::string("core.phase_share.") + p,
          round_span_s > 0.0 ? phase_s[p] / round_span_s : 0.0, "share");
  }
  m.add("core.gen_updates_per_round",
        static_cast<double>(traced.front().gen_updates) /
            static_cast<double>(wl.rounds),
        "count");

  // dist: exact wire counts from the server endpoint's accountant, and
  // the wrapper's timings summed over every endpoint.
  const Episode& first = traced.front();
  for (int i = 0; i < 3; ++i) {
    const std::string link = dist::link_label(kLinks[i]);
    m.add("dist.bytes_per_round." + link,
          static_cast<double>(first.totals[i].bytes) /
              static_cast<double>(wl.rounds),
          "B");
    m.add("dist.msgs_per_round." + link,
          static_cast<double>(first.totals[i].messages) /
              static_cast<double>(wl.rounds),
          "count");
  }
  TransportTrace::Totals tt;
  double timed_wall = 0.0;
  for (const auto& ep : traced) {
    tt += ep.trace.transport;
    timed_wall += ep.timed_wall_s;
  }
  for (int i = 0; i < TransportTrace::kNumTags; ++i) {
    const auto tag = static_cast<TransportTrace::Tag>(i);
    m.add(std::string("dist.send_s_per_round.") + TransportTrace::tag_name(tag),
          tt.send_s[i] / traced_rounds, "s");
    m.add(std::string("dist.recv_wait_s_per_round.") +
              TransportTrace::tag_name(tag),
          tt.recv_wait_s[i] / traced_rounds, "s");
  }
  m.add("dist.worker_wait_share",
        tt.worker_wait_s / (static_cast<double>(kWorkers) * timed_wall),
        "share");
  m.add("worker.compute_s_per_round",
        tt.worker_steps > 0
            ? tt.worker_compute_s / static_cast<double>(tt.worker_steps)
            : 0.0,
        "s");
  m.add("server.compute_s_per_round",
        tt.server_gaps > 0
            ? tt.server_compute_s / static_cast<double>(tt.server_gaps)
            : 0.0,
        "s");

  // tensor / common: compute spans of the traced run, allocations of
  // the untraced one (span buffers allocate as they fill).
  double gemm_calls = 0.0, gemm_s = 0.0, dispatches = 0.0;
  for (const auto& ep : traced) {
    gemm_calls += ep.trace.gemm_calls;
    gemm_s += ep.trace.gemm_s;
    dispatches += ep.trace.pool_dispatches;
  }
  m.add("tensor.gemm_calls_per_round", gemm_calls / traced_rounds, "count");
  m.add("tensor.gemm_s_per_round", gemm_s / traced_rounds, "s");
  m.add("common.pool_dispatch_per_round", dispatches / traced_rounds,
        "count");
  m.add("common.allocs_per_round", median(per_episode(plain, [&](const Episode& ep) {
          return static_cast<double>(ep.timed_allocs.count) / timed;
        })),
        "count");
  m.add("common.alloc_bytes_per_round", median(per_episode(plain, [&](const Episode& ep) {
          return static_cast<double>(ep.timed_allocs.bytes) / timed;
        })),
        "B");

  // nn: per-layer replay at the workload's shapes.
  const LayerTimes lt = replay_layers(wl.arch, wl.batch, seed, 15);
  for (const char* name : kLayerNames) {
    const auto f = lt.fwd_s.find(name);
    const auto b = lt.bwd_s.find(name);
    m.add(std::string("nn.fwd_s.") + name,
          f != lt.fwd_s.end() ? f->second : 0.0, "s");
    m.add(std::string("nn.bwd_s.") + name,
          b != lt.bwd_s.end() ? b->second : 0.0, "s");
  }
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  set_log_level(LogLevel::kError);
  const StealSample steal0 = read_steal();
  FidScorer fid;

  // The first episode of a process pays one-time costs (allocator
  // growth, page faults, pool start-up) in its early rounds; it is
  // checked like every other episode but measured by none.
  std::vector<Episode> warm, plain, traced;
  warm.push_back(run_episode(*wl, args.seed, false, fid));
  if (warm.back().error.empty()) {
    if (args.trace) {
      plain = run_for(*wl, args.seed, false, args.seconds / 2, 2, fid);
      if (plain.back().error.empty()) {
        traced = run_for(*wl, args.seed, true, args.seconds / 2, 2, fid);
      }
    } else {
      plain = run_for(*wl, args.seed, false, args.seconds, 3, fid);
    }
  }

  // Correctness gate, against a reference run outside the timed region.
  std::unique_ptr<Reference> ref;
  if (wl->tcp) ref = std::make_unique<Reference>(run_reference(*wl, args.seed));
  Feedbacks fb;
  std::vector<std::string> failures;
  for (const auto* set : {&warm, &plain, &traced}) {
    for (const auto& ep : *set) {
      for (auto& why : check_episode(*wl, ep, ref.get(), fb)) {
        failures.push_back(std::move(why));
      }
    }
  }
  const StealSample steal1 = read_steal();

  const bool correct = failures.empty() && !plain.empty();
  MetricsOut m, wall;
  if (correct) {
    if (args.trace) {
      per_layer_metrics(*wl, args.seed, plain, traced, m);
    } else {
      end_to_end_metrics(*wl, warm.front(), plain, fb, m);
    }
    wall_clock_metrics(*wl, plain, wall);
  }
  std::fprintf(stderr, "%s seed=%llu trace=%d\n", wl->name,
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  m.print_table();
  wall.print_table();
  for (const auto& why : failures) std::fprintf(stderr, "FAIL %s\n", why.c_str());

  // Diagnostics: what a noisy run is explained by.
  const double steal_share =
      steal0.ok && steal1.ok && steal1.total > steal0.total
          ? (steal1.steal - steal0.steal) / (steal1.total - steal0.total)
          : -1.0;
  std::uint64_t spans_dropped = 0;
  for (const auto& ep : traced) spans_dropped += ep.trace.spans_dropped;
  const std::vector<double> rounds = pooled_rounds(plain);
  const double p90 = quantile(rounds, 0.9);
  const auto above_p90 = std::count_if(rounds.begin(), rounds.end(),
                                       [p90](double r) { return r > p90; });
  std::printf(
      "{\"diagnostics\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"warmup_episodes\": %zu, \"episodes\": %zu, "
      "\"traced_episodes\": %zu, \"rounds_per_episode\": %lld, "
      "\"warmup_rounds\": %lld, \"round_samples\": %zu, "
      "\"traced_round_samples\": %zu, \"round_samples_above_p90\": %lld, "
      "\"steal_share\": %.6f, \"spans_dropped\": %llu, "
      "\"wall_clock\": %s, \"failures\": [",
      json_string(wl->name).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      warm.size(), plain.size(), traced.size(),
      static_cast<long long>(wl->rounds), static_cast<long long>(wl->warmup),
      rounds.size(), pooled_rounds(traced).size(),
      static_cast<long long>(above_p90), steal_share,
      static_cast<unsigned long long>(spans_dropped), wall.json().c_str());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_string(failures[i]).c_str());
  }
  std::printf("]}}\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(fb.attempted),
      static_cast<long long>(fb.failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mdgan::perfbench

int main(int argc, char** argv) {
  try {
    return mdgan::perfbench::run(mdgan::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "md_gan_bench: %s\n", e.what());
    return 2;
  }
}
