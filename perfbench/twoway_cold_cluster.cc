/// \file perfbench/twoway_cold_cluster.cc
/// \brief twoway-cold-cluster: two-way queries whose operands are fresh
/// random 100-node subsets of two research areas, routed by
/// ClusterCoordinator::TwoWay to two loopback worker processes that
/// warm-start from a snapshot written during setup. The working set
/// dwarfs each worker's cache, so every query deepens from scratch,
/// writes back and evicts; the wire, the routing and the warm-state
/// restore ride on top.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/frame.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "join2/b_idj.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "serve/score_cache.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dhtjoin::ExtNodeId;
using dhtjoin::NodeSet;
using dhtjoin::ScoredPair;
using dhtjoin::cluster::ClusterCoordinator;
using dhtjoin::cluster::SpawnedWorker;
using dhtjoin::serve::DhtJoinService;

/// The run's request stream, and the stream of the previous life whose
/// warm state the workers restore.
constexpr uint64_t kStream = 2;
constexpr uint64_t kSnapshotStream = 4;
constexpr uint64_t kSnapshotSeed = 1;
/// Queries the previous life ran before it checkpointed.
constexpr int64_t kSnapshotQueries = 8;
constexpr int kWorkers = 2;
constexpr std::size_t kOperandSize = 100;
/// Answers compared against library B-IDJ per run: a seeded sample of
/// the queries run (all of them when fewer ran). A reference costs
/// about as much as the query, so checking all would double the run.
constexpr std::size_t kCheckSample = 48;
/// Enough warmup replies for the coordinator's hedge delay to arm
/// (HedgePolicy::warmup_samples = 16).
constexpr int64_t kClusterWarmupPerClient = 16;
/// Grace for a worker's SIGTERM drain plus its final checkpoint.
constexpr int64_t kStopGraceMillis = 20000;

struct Request {
  NodeSet P;
  NodeSet Q;
};

NodeSet RandomSubset(const NodeSet& area, std::size_t size, dhtjoin::Rng& rng,
                     const char* name) {
  std::vector<ExtNodeId> pool(area.begin(), area.end());
  size = std::min(size, pool.size());
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t j = i + rng.Below(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(size);
  return NodeSet(name, std::move(pool));
}

/// Request `index` of `stream`: two distinct areas, a uniform random
/// 100-node subset of each.
Request MakeRequest(const std::vector<NodeSet>& areas, uint64_t seed,
                    uint64_t stream, int64_t index) {
  dhtjoin::Rng rng = RequestRng(seed, stream, index);
  const std::size_t a = rng.Below(areas.size());
  std::size_t b = rng.Below(areas.size() - 1);
  if (b >= a) ++b;
  Request req;
  req.P = RandomSubset(areas[a], kOperandSize, rng, "P");
  req.Q = RandomSubset(areas[b], kOperandSize, rng, "Q");
  return req;
}

/// What the snapshot-writing process reports back.
struct SnapshotInfo {
  double save_s = 0.0;
  double resident_bytes = 0.0;
  double budget_bytes = 0.0;
  int64_t evictions = 0;
  int64_t ok = 0;
};

bool WriteAll(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = write(fd, p, bytes);
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = read(fd, p, bytes);
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "twoway-cold-cluster: %s\n", message.c_str());
  std::exit(2);
}

void RequireSingleThreaded(const char* before) {
  const int threads = CountOwnThreads();
  if (threads != 1) {
    Die(Format("%s needs a single-threaded process, found %d threads in "
               "/proc/self/task",
               before, threads));
  }
}

/// Runs the previous life's queries through a fresh service in a child
/// process and checkpoints the resulting warm state to `path`: the
/// snapshot the workers restore. A child keeps that service's memory
/// out of this process.
SnapshotInfo WriteSnapshot(const dhtjoin::datasets::DblpLikeDataset& ds,
                           const std::string& path) {
  RequireSingleThreaded("the snapshot writer fork");
  int fds[2];
  if (pipe(fds) != 0) Die(std::string("pipe: ") + std::strerror(errno));
  const pid_t pid = fork();
  if (pid < 0) Die(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    close(fds[0]);
    SnapshotInfo info;
    DhtJoinService service(ds.graph, Params(), kDepth,
                           DhtJoinService::Options{.num_threads = 1});
    bool ok = true;
    for (int64_t i = 0; i < kSnapshotQueries; ++i) {
      const Request req =
          MakeRequest(ds.areas, kSnapshotSeed, kSnapshotStream, i);
      ok = ok && service.TwoWay(req.P, req.Q, kTopK).ok();
    }
    const dhtjoin::serve::CacheStats cache = service.cache_stats();
    info.resident_bytes = static_cast<double>(cache.resident_bytes);
    info.budget_bytes = static_cast<double>(service.cache().max_bytes());
    info.evictions = cache.evictions;
    const double start = NowSeconds();
    ok = ok && service.SaveWarmState(path).ok();
    info.save_s = NowSeconds() - start;
    info.ok = ok ? 1 : 0;
    ok = ok && WriteAll(fds[1], &info, sizeof(info));
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  SnapshotInfo info;
  const bool read_ok = ReadAll(fds[0], &info, sizeof(info)) && info.ok == 1;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("snapshot writer failed");
  }
  return info;
}

/// Two worker processes plus the coordinator that routes to them.
struct Deployment {
  std::vector<SpawnedWorker> workers;
  std::unique_ptr<ClusterCoordinator> coordinator;

  std::vector<int64_t> pids() const {
    std::vector<int64_t> out;
    for (const SpawnedWorker& w : workers) out.push_back(w.pid);
    return out;
  }
};

/// Spawns the workers (each warm-loads its own copy of the snapshot in
/// WorkerServer::Start before it reports its port) and builds the
/// coordinator.
Deployment Deploy(const dhtjoin::Graph& g, const std::string& scratch,
                  SpanLog& spans) {
  RequireSingleThreaded("SpawnWorkerProcess");
  Deployment dep;
  std::vector<dhtjoin::cluster::WorkerEndpoint> endpoints;
  for (int i = 0; i < kWorkers; ++i) {
    dhtjoin::cluster::WorkerOptions options;
    options.service.num_threads = 1;
    options.checkpoint_path = Format("%s/worker%d.snap", scratch.c_str(), i);
    TimedSpan span(spans, "cluster.spawn");
    auto worker = dhtjoin::cluster::SpawnWorkerProcess(g, Params(), kDepth,
                                                       options);
    if (!worker.ok()) Die("spawn: " + worker.status().ToString());
    dep.workers.push_back(*worker);
    endpoints.push_back({worker->port});
  }
  dhtjoin::cluster::CoordinatorOptions options;
  options.local_service.num_threads = 1;
  TimedSpan span(spans, "serve.init");
  dep.coordinator = std::make_unique<ClusterCoordinator>(
      g, Params(), kDepth, std::move(endpoints), std::move(options));
  return dep;
}

/// Stops the coordinator and the workers, in parallel (each drains and
/// writes its final checkpoint); returns how many workers did not exit
/// cleanly by StopWorkerProcess's verdict. The stop threads are joined
/// before returning, so the process is single-threaded again.
int64_t Teardown(Deployment& dep) {
  dep.coordinator.reset();
  std::vector<dhtjoin::Status> verdicts(dep.workers.size());
  std::vector<std::thread> stoppers;
  for (std::size_t i = 0; i < dep.workers.size(); ++i) {
    stoppers.emplace_back([&dep, &verdicts, i] {
      verdicts[i] =
          dhtjoin::cluster::StopWorkerProcess(dep.workers[i], kStopGraceMillis);
    });
  }
  for (std::thread& t : stoppers) t.join();
  int64_t bad = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].ok()) continue;
    ++bad;
    std::fprintf(stderr, "worker %lld stop: %s\n",
                 static_cast<long long>(dep.workers[i].pid),
                 verdicts[i].ToString().c_str());
  }
  dep.workers.clear();
  return bad;
}

void CopySnapshot(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) Die("copy snapshot: " + ec.message());
}

}  // namespace

Verdict RunTwoWayColdCluster(const Args& args, Report& report,
                             LayerValues& layers) {
  SpanLog spans;
  const std::string snapshot = args.scratch + "/warm.snap";
  std::unique_ptr<dhtjoin::datasets::DblpLikeDataset> ds;
  SnapshotInfo snap;
  Deployment dep;
  Verdict verdict;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kClusterSetupReps; ++rep) {
    verdict.failed += Teardown(dep);
    ds.reset();
    const double gen_start = NowSeconds();
    ds = GenerateGraph(spans);
    double setup = NowSeconds() - gen_start;
    if (rep == 0) {
      // Writing the snapshot stands for a previous life of the workers;
      // it is not part of the service's set-up time.
      snap = WriteSnapshot(*ds, snapshot);
    }
    for (int i = 0; i < kWorkers; ++i) {
      CopySnapshot(snapshot,
                   Format("%s/worker%d.snap", args.scratch.c_str(), i));
    }
    const double deploy_start = NowSeconds();
    dep = Deploy(ds->graph, args.scratch, spans);
    setup += NowSeconds() - deploy_start;
    setup_s.push_back(setup);
  }
  const dhtjoin::Graph& g = ds->graph;
  const std::vector<NodeSet>& areas = ds->areas;

  std::mutex answers_mu;
  std::map<int64_t, std::vector<ScoredPair>> answers;
  auto keep = [&](int64_t index, std::vector<ScoredPair> pairs) {
    std::lock_guard<std::mutex> lock(answers_mu);
    answers[index] = std::move(pairs);
  };
  auto cluster_one = [&](int64_t index, QueryRecord& rec) {
    const Request req = MakeRequest(areas, args.seed, kStream, index);
    dhtjoin::cluster::ClusterQueryStats cqs;
    const double start = NowSeconds();
    auto result = dep.coordinator->TwoWay(req.P, req.Q, kTopK, &cqs);
    rec.latency_ms = (NowSeconds() - start) * 1e3;
    rec.ok = result.ok();
    rec.attempts = cqs.attempts;
    rec.hedged = cqs.hedged;
    rec.hedge_won = cqs.hedge_won;
    rec.failover = cqs.failover;
    rec.local_fallback = cqs.local_fallback;
    rec.walk_steps = cqs.walk_steps;
    rec.warm_targets = cqs.warm_targets;
    rec.cold_targets = cqs.cold_targets;
    if (rec.ok) keep(index, std::move(result).value());
  };

  std::atomic<int64_t> next_index{0};
  const Segment warmup =
      RunClosedLoop(kWarmupSeconds, kClusterWarmupPerClient, next_index,
                    dep.pids(), cluster_one);
  const double timed = args.trace ? args.seconds / 2 : args.seconds;
  const Segment seg =
      RunClosedLoop(timed, -1, next_index, dep.pids(), cluster_one);
  double rss_mb = ProbeSelf().peak_rss_mb;
  std::string rss_parts = Format("%.1f", rss_mb);
  for (const int64_t pid : dep.pids()) {
    const double worker_mb = ProbePid(pid).peak_rss_mb;
    rss_mb += worker_mb;
    rss_parts += Format(" + %.1f", worker_mb);
  }
  const dhtjoin::obs::MetricsSnapshot metrics =
      dep.coordinator->SnapshotMetrics();
  if (const auto* h = metrics.FindHistogram("cluster.rpc.latency_ns")) {
    layers["cluster.rpc_ms_p50"] =
        static_cast<double>(h->QuantileBound(0.5)) * 1e-6;
  }
  verdict.failed += Teardown(dep);

  Segment shadow;
  dhtjoin::serve::CacheStats shadow_cache_before;
  std::unique_ptr<DhtJoinService> shadow_service;
  if (args.trace) {
    // The workers' span trees stay in the worker (no trace crosses the
    // wire yet), so the serve and engine layers are seen from inside on
    // a replay: the same warm state loaded into an in-process service,
    // the stream continued, alternating blocks with and without a
    // caller trace, on the path the workers run.
    shadow_service = std::make_unique<DhtJoinService>(
        g, Params(), kDepth,
        DhtJoinService::Options{.num_threads = kServiceThreads});
    {
      TimedSpan span(spans, "persist.load");
      auto restored = shadow_service->LoadWarmState(snapshot);
      if (!restored.ok() || *restored <= 0) {
        Die("in-process warm load restored nothing");
      }
    }
    shadow_cache_before = shadow_service->cache_stats();
    shadow = RunClosedLoop(
        timed, -1, next_index, {}, [&](int64_t index, QueryRecord& rec) {
          rec.traced = TracedRequest(args, index);
          Request req = MakeRequest(areas, args.seed, kStream, index);
          dhtjoin::serve::QueryStats qs;
          dhtjoin::obs::Trace trace(dhtjoin::obs::SystemClock::Get());
          dhtjoin::serve::QueryOptions qopts{.stats = &qs};
          if (rec.traced) {
            qopts.exec = std::make_shared<dhtjoin::ExecContext>();
            qopts.exec->set_trace(&trace);
          }
          const double start = NowSeconds();
          auto result = shadow_service
                            ->SubmitTwoWay(std::move(req.P), std::move(req.Q),
                                           kTopK, std::move(qopts))
                            .get();
          rec.latency_ms = (NowSeconds() - start) * 1e3;
          rec.ok = result.ok();
          if (!rec.ok) return;
          FillTwoWayRecord(rec, qs, rec.traced ? &trace : nullptr);
          keep(index, std::move(result).value());
        });
  }
  CountOutcomes(verdict, {&warmup, &seg, &shadow});

  // Answer check: a seeded sample against library B-IDJ. The workers
  // are stopped by now, so the library's own thread pools cannot meet a
  // fork.
  std::vector<int64_t> answered;
  for (const auto& [index, pairs] : answers) answered.push_back(index);
  dhtjoin::Rng pick = RequestRng(args.seed, kStream + 100, 0);
  for (std::size_t i = 0; i < answered.size() && i < kCheckSample; ++i) {
    std::swap(answered[i], answered[i + pick.Below(answered.size() - i)]);
  }
  answered.resize(std::min(answered.size(), kCheckSample));
  for (const int64_t index : answered) {
    const Request req = MakeRequest(areas, args.seed, kStream, index);
    dhtjoin::BIdjJoin reference;
    auto want = reference.Run(g, Params(), kDepth, req.P, req.Q, kTopK);
    ++verdict.checked;
    if (!want.ok() || !SameBytes(answers[index], *want)) {
      ++verdict.mismatches;
      ++verdict.failed;
      std::fprintf(stderr, "MISMATCH: twoway-cold-cluster query %lld "
                           "differs from BIdjJoin::Run\n",
                   static_cast<long long>(index));
    }
  }

  ReportEndToEnd(report, seg, Median(setup_s), rss_mb,
                 verdict.attempted, verdict.failed);
  report.Note(Format("answers: seeded sample of %zu checked byte-identical "
                     "to BIdjJoin::Run (of %zu answered)",
                     answered.size(), answers.size()));
  report.Note(Format("rss_mb sums the peak RSS of this process and its %d "
                     "workers, %s MB (pages the workers share copy-on-write "
                     "count in each)",
                     kWorkers, rss_parts.c_str()));

  // Workload properties: how often a target node recurs across queries,
  // and how much of the cache budget the restored warm state fills.
  std::vector<int32_t> targets;
  for (const QueryRecord& r : seg.records) {
    for (const ExtNodeId q :
         MakeRequest(areas, args.seed, kStream, r.index).Q) {
      targets.push_back(q.value());
    }
  }
  const std::size_t total_targets = targets.size();
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  const double distinct_frac =
      total_targets > 0 ? static_cast<double>(targets.size()) /
                              static_cast<double>(total_targets)
                        : 0.0;
  report.Note(Format("property: %zu distinct targets of %zu target slots "
                     "(share %.4f); the restored warm state of %lld earlier "
                     "queries holds %.1f MB of a %.1f MB cache budget (%lld "
                     "evictions while warming)",
                     targets.size(), total_targets, distinct_frac,
                     static_cast<long long>(kSnapshotQueries),
                     snap.resident_bytes / (1 << 20),
                     snap.budget_bytes / (1 << 20),
                     static_cast<long long>(snap.evictions)));
  layers["workload.distinct_target_frac"] = distinct_frac;

  // Per-layer ledger. Nothing on the client side of the wire records a
  // span, so obs.unattributed_frac of the cluster path is 1.
  layers["obs.unattributed_frac"] = UnattributedFrac(seg);
  AddProcLayers(layers, seg);
  const double n = static_cast<double>(std::max<int64_t>(seg.completed(), 1));
  double attempts = 0, hedged = 0, hedge_won = 0, failovers = 0, local = 0;
  double walk = 0, warm = 0, cold = 0, wire = 0;
  // Wire bytes per query from the public encoders: request and reply
  // payloads plus their frame headers.
  const uint64_t graph_fp = dhtjoin::serve::GraphFingerprint(g);
  const uint64_t params_fp =
      dhtjoin::cluster::ParamsFingerprint(Params(), kDepth);
  for (const QueryRecord& r : seg.records) {
    attempts += static_cast<double>(r.attempts);
    hedged += r.hedged ? 1 : 0;
    hedge_won += r.hedge_won ? 1 : 0;
    failovers += r.failover ? 1 : 0;
    local += r.local_fallback ? 1 : 0;
    walk += static_cast<double>(r.walk_steps);
    warm += static_cast<double>(r.warm_targets);
    cold += static_cast<double>(r.cold_targets);
    if (!r.ok) continue;
    const Request req = MakeRequest(areas, args.seed, kStream, r.index);
    dhtjoin::cluster::TwoWayWireRequest wire_req;
    wire_req.graph_fp = graph_fp;
    wire_req.params_fp = params_fp;
    for (const auto u : req.P) wire_req.p_ids.push_back(u.value());
    for (const auto u : req.Q) wire_req.q_ids.push_back(u.value());
    wire_req.k = kTopK;
    dhtjoin::cluster::TwoWayWireReply wire_reply;
    wire_reply.pairs = answers[r.index];
    wire += static_cast<double>(
        dhtjoin::cluster::EncodeTwoWayRequest(wire_req).size() +
        dhtjoin::cluster::EncodeTwoWayReply(wire_reply).size() +
        2 * dhtjoin::cluster::kFrameHeaderBytes);
  }
  layers["cluster.attempts_per_query"] = attempts / n;
  layers["cluster.hedge_fired_frac"] = hedged / n;
  layers["cluster.hedge_won_frac"] = hedge_won / n;
  layers["cluster.failovers"] = failovers;
  layers["cluster.local_fallbacks"] = local;
  layers["cluster.worker_walk_steps_per_query"] = walk / n;
  layers["cluster.worker_warm_target_frac"] =
      warm + cold > 0 ? warm / (warm + cold) : 0.0;
  layers["cluster.wire_bytes_per_query"] = wire / n;
  layers["cluster.spawn_s"] = spans.MedianSeconds("cluster.spawn") * kWorkers;
  layers["datasets.generate_s"] = spans.MedianSeconds("datasets.generate");
  layers["serve.init_s"] = spans.MedianSeconds("serve.init");
  layers["persist.save_s"] = snap.save_s;
  layers["persist.load_s"] = spans.MedianSeconds("persist.load");
  std::error_code ec;
  layers["persist.snapshot_mb"] =
      static_cast<double>(std::filesystem::file_size(snapshot, ec)) / (1 << 20);
  if (args.trace) {
    const Segment traced = PartOf(shadow, true);
    AddExecLayers(layers, traced);
    AddTwoWayEngineLayers(layers, traced);
    AddServiceLayers(layers, spans, *shadow_service, shadow_cache_before,
                     shadow.completed());
    layers["obs.trace_overhead"] = TraceOverhead(shadow);
    report.Note(Format("serve.* and engine self times and obs.trace_overhead "
                       "come from an in-process replay of %lld queries on the "
                       "workers' snapshot",
                       static_cast<long long>(shadow.completed())));
  }
  std::filesystem::remove(snapshot, ec);
  for (int i = 0; i < kWorkers; ++i) {
    std::filesystem::remove(Format("%s/worker%d.snap", args.scratch.c_str(), i),
                            ec);
  }
  return verdict;
}

}  // namespace perfbench
