/// \file perfbench/workloads.h
/// \brief The two workloads and what they share: the graph, the
/// measure parameters, per-request seeding, and the per-layer metric
/// table every traced run prints in full.

#ifndef DHTJOIN_PERFBENCH_WORKLOADS_H_
#define DHTJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dblp_like.h"
#include "dht/params.h"
#include "join2/two_way_join.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "ledger.h"
#include "measure.h"
#include "util/rng.h"

namespace perfbench {

/// DBLP-like stand-in at the size every repo bench uses. The graph is
/// the same on every seed; the seed picks the queries.
inline constexpr int kAuthors = 15000;
inline constexpr uint64_t kGraphSeed = 7;
/// Paper defaults (Sec VII-A): lambda = 0.2, d = 8, k = 50.
inline constexpr int kDepth = 8;
inline constexpr std::size_t kTopK = 50;
inline dhtjoin::DhtParams Params() { return dhtjoin::DhtParams::Lambda(0.2); }

/// Generates the graph under a "datasets.generate" span.
std::unique_ptr<dhtjoin::datasets::DblpLikeDataset> GenerateGraph(
    SpanLog& spans);

/// An independent RNG for request `index` of the stream of `seed`, so
/// a request's content never depends on which client drew it.
dhtjoin::Rng RequestRng(uint64_t seed, uint64_t stream, int64_t index);

/// Per-layer values a workload measured; names not set print as 0
/// (the layer is not on that workload's path).
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric with its unit, in print order. BENCHMARK.json
/// lists the same names.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

/// Verdict of one run's answer checks and outcome accounting.
struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;      ///< non-OK, shed, or wrong answers
  int64_t mismatches = 0;  ///< wrong answers (also counted in failed)
  int64_t checked = 0;     ///< answers compared against a reference
};

/// Setup repetitions per run; setup_s is their median. An in-process
/// setup takes ~0.1 s, so it is repeated more often than a cluster
/// deployment (~0.7 s plus a worker teardown).
inline constexpr int kInProcessSetupReps = 9;
inline constexpr int kClusterSetupReps = 5;

/// Threads of every in-process service pool. Each query itself runs
/// single-threaded (the service builds its batch engines with one
/// thread), so a pool thread is one busy CPU.
inline constexpr int kServiceThreads = 2;
/// Queries each client runs before an in-process timed segment (pool
/// threads spawn, lazy indexes build).
inline constexpr int kWarmupPerClient = 2;
/// Upper bound on the warmup's wall time.
inline constexpr double kWarmupSeconds = 30.0;

/// The graph and the in-process service the n-way workload serves
/// from, set up kInProcessSetupReps times (the last one is kept);
/// `setup_s` is the median. Spans: datasets.generate, serve.init.
struct InProcessSetup {
  std::unique_ptr<dhtjoin::datasets::DblpLikeDataset> ds;
  std::unique_ptr<dhtjoin::serve::DhtJoinService> service;
  double setup_s = 0.0;
};
InProcessSetup SetUpInProcess(SpanLog& spans);

/// Counts every query sent in `sent` as attempted, and the non-OK ones
/// as failed.
void CountOutcomes(Verdict& verdict, const std::vector<const Segment*>& sent);

/// Copies a two-way query's service-side stats into `rec`, and the
/// self times of `trace` when it is set.
void FillTwoWayRecord(QueryRecord& rec, const dhtjoin::serve::QueryStats& qs,
                      const dhtjoin::obs::Trace* trace);

/// Byte identity of two two-way answers: same pairs, same order, same
/// score bits.
bool SameBytes(const std::vector<dhtjoin::ScoredPair>& got,
               const std::vector<dhtjoin::ScoredPair>& want);

/// serve.exec / serve.queue quantiles of the queries in `seg` whose
/// service-side execution time is known.
void AddExecLayers(LayerValues& layers, const Segment& seg);

/// Traced runs alternate blocks of kTraceBlock consecutive requests
/// with and without a caller trace on the same service, so traced and
/// untraced queries see the same host phases and cache state.
inline constexpr int64_t kTraceBlock = 12;
inline bool TracedRequest(const Args& args, int64_t index) {
  return args.trace && (index / kTraceBlock) % 2 == 1;
}

/// The traced (or untraced) records of `seg`; the totals stay 0.
Segment PartOf(const Segment& seg, bool traced);

/// obs.trace_overhead of a segment of alternating blocks: untraced qps
/// over traced qps, which in a closed loop is the mean latency of the
/// traced OK queries over that of the untraced ones.
double TraceOverhead(const Segment& seg);

/// obs.unattributed_frac: the share of the client latency of `seg`'s
/// records that neither a recorded span nor the measured queue wait
/// covers.
double UnattributedFrac(const Segment& seg);

/// proc.ctx_switches_per_query, proc.threads_peak and
/// proc.affinity_cpus of a whole segment.
void AddProcLayers(LayerValues& layers, const Segment& seg);

/// Setup spans, cache deltas since `before` over `queries` queries, and
/// admission sheds of an in-process service.
void AddServiceLayers(LayerValues& layers, const SpanLog& spans,
                      dhtjoin::serve::DhtJoinService& service,
                      const dhtjoin::serve::CacheStats& before,
                      int64_t queries);

/// serve / dht / join2 per-query means and engine self times of an
/// in-process two-way segment.
void AddTwoWayEngineLayers(LayerValues& layers, const Segment& seg);

/// The workloads. Each fills `report` (end-to-end metrics and notes)
/// and `layers`, and returns its verdict.
Verdict RunTwoWayColdCluster(const Args& args, Report& report,
                             LayerValues& layers);
Verdict RunNwayPji(const Args& args, Report& report, LayerValues& layers);

}  // namespace perfbench

#endif  // DHTJOIN_PERFBENCH_WORKLOADS_H_
