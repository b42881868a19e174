/// \file perfbench/workloads.cc
/// \brief What the two workloads share: graph generation, in-process
/// setup, per-request seeding, outcome accounting and the per-layer
/// metric table.

#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::unique_ptr<dhtjoin::datasets::DblpLikeDataset> GenerateGraph(
    SpanLog& spans) {
  TimedSpan span(spans, "datasets.generate");
  auto ds = dhtjoin::datasets::GenerateDblpLike(
      dhtjoin::datasets::DblpLikeConfig{.num_authors = kAuthors,
                                        .seed = kGraphSeed});
  if (!ds.ok()) {
    std::fprintf(stderr, "GenerateDblpLike: %s\n",
                 ds.status().ToString().c_str());
    std::exit(2);
  }
  return std::make_unique<dhtjoin::datasets::DblpLikeDataset>(
      std::move(ds).value());
}

InProcessSetup SetUpInProcess(SpanLog& spans) {
  InProcessSetup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kInProcessSetupReps; ++rep) {
    s.service.reset();
    s.ds.reset();
    const double start = NowSeconds();
    s.ds = GenerateGraph(spans);
    {
      TimedSpan span(spans, "serve.init");
      s.service = std::make_unique<dhtjoin::serve::DhtJoinService>(
          s.ds->graph, Params(), kDepth,
          dhtjoin::serve::DhtJoinService::Options{.num_threads =
                                                      kServiceThreads});
    }
    setup_s.push_back(NowSeconds() - start);
  }
  s.setup_s = Median(setup_s);
  return s;
}

void CountOutcomes(Verdict& verdict, const std::vector<const Segment*>& sent) {
  for (const Segment* seg : sent) {
    for (const QueryRecord& r : seg->records) {
      ++verdict.attempted;
      if (!r.ok) ++verdict.failed;
    }
  }
}

void FillTwoWayRecord(QueryRecord& rec, const dhtjoin::serve::QueryStats& qs,
                      const dhtjoin::obs::Trace* trace) {
  rec.exec_ms = qs.seconds * 1e3;
  rec.warm_targets = qs.warm_targets;
  rec.cold_targets = qs.cold_targets;
  rec.ybound_cached = qs.ybound_cached;
  rec.walk_steps = qs.join.walk_steps;
  rec.state_hits = qs.join.state_hits;
  rec.state_misses = qs.join.state_misses;
  rec.pool_barriers = qs.join.pool_barriers;
  if (!qs.join.pruned_fraction_per_iteration.empty()) {
    rec.pruned_frac = qs.join.pruned_fraction_per_iteration.back();
  }
  if (trace != nullptr) {
    TraceLedger ledger = ParseTraceText(trace->ToText());
    rec.self_ms = std::move(ledger.self_ms);
    rec.covered_ms = ledger.covered_ms;
  }
}

dhtjoin::Rng RequestRng(uint64_t seed, uint64_t stream, int64_t index) {
  uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  const uint64_t a = dhtjoin::SplitMix64(state);
  state = a ^ static_cast<uint64_t>(index);
  return dhtjoin::Rng(dhtjoin::SplitMix64(state));
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"datasets.generate_s", "s"},
      {"serve.init_s", "s"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_tail", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.admission.shed", "count"},
      {"serve.cache.hit_rate", "ratio"},
      {"serve.warm_target_frac", "ratio"},
      {"serve.ybound_cached_frac", "ratio"},
      {"serve.cache.evictions_per_query", "count"},
      {"serve.cache.admission_rejects", "count"},
      {"serve.cache.resident_mb", "MB"},
      {"dht.walk_steps_per_query", "count"},
      {"join2.state_hits_per_query", "count"},
      {"join2.state_misses_per_query", "count"},
      {"join2.pool_barriers_per_query", "count"},
      {"join2.pruned_frac", "ratio"},
      {"serve.ybound.self_ms", "ms"},
      {"serve.import.self_ms", "ms"},
      {"serve.round.self_ms", "ms"},
      {"dht.advance_many.self_ms", "ms"},
      {"serve.final.self_ms", "ms"},
      {"serve.write_back.self_ms", "ms"},
      {"serve.other.self_ms", "ms"},
      {"core.pji_lib_ms_p50", "ms"},
      {"rankjoin.pulls_per_query", "count"},
      {"rankjoin.beyond_m_per_query", "count"},
      {"rankjoin.tuples_per_query", "count"},
      {"cluster.spawn_s", "s"},
      {"cluster.rpc_ms_p50", "ms"},
      {"cluster.wire_bytes_per_query", "bytes"},
      {"cluster.attempts_per_query", "count"},
      {"cluster.hedge_fired_frac", "ratio"},
      {"cluster.hedge_won_frac", "ratio"},
      {"cluster.failovers", "count"},
      {"cluster.local_fallbacks", "count"},
      {"cluster.worker_warm_target_frac", "ratio"},
      {"cluster.worker_walk_steps_per_query", "count"},
      {"persist.save_s", "s"},
      {"persist.load_s", "s"},
      {"persist.snapshot_mb", "MB"},
      {"obs.trace_overhead", "ratio"},
      {"obs.unattributed_frac", "ratio"},
      {"proc.ctx_switches_per_query", "count"},
      {"proc.threads_peak", "count"},
      {"proc.affinity_cpus", "count"},
      {"workload.distinct_target_frac", "ratio"},
      {"workload.nway_4set_frac", "ratio"},
      {"workload.nway_star_frac", "ratio"},
  };
  return kMetrics;
}

void AddExecLayers(LayerValues& layers, const Segment& seg) {
  std::vector<double> exec_ms;
  std::vector<double> queue_ms;
  for (const QueryRecord& r : seg.records) {
    if (r.exec_ms < 0.0) continue;
    exec_ms.push_back(r.exec_ms);
    queue_ms.push_back(std::max(r.latency_ms - r.exec_ms, 0.0));
  }
  if (exec_ms.empty()) return;
  layers["serve.exec_ms_p50"] = Quantile(exec_ms, 0.5);
  layers["serve.exec_ms_tail"] = TailOf(exec_ms).value;
  layers["serve.queue_ms_p50"] = Quantile(queue_ms, 0.5);
}

Segment PartOf(const Segment& seg, bool traced) {
  Segment part;
  for (const QueryRecord& r : seg.records) {
    if (r.traced == traced) part.records.push_back(r);
  }
  return part;
}

double TraceOverhead(const Segment& seg) {
  double sum[2] = {0.0, 0.0};
  double count[2] = {0.0, 0.0};
  for (const QueryRecord& r : seg.records) {
    if (!r.ok) continue;
    sum[r.traced ? 1 : 0] += r.latency_ms;
    count[r.traced ? 1 : 0] += 1.0;
  }
  if (count[0] == 0.0 || count[1] == 0.0 || sum[0] == 0.0) return 0.0;
  return (sum[1] / count[1]) / (sum[0] / count[0]);
}

double UnattributedFrac(const Segment& seg) {
  double latency_sum = 0.0;
  double attributed_sum = 0.0;
  for (const QueryRecord& r : seg.records) {
    latency_sum += r.latency_ms;
    attributed_sum += r.covered_ms;
    // Queue time is measured (client latency minus the service's own
    // execution time), so it counts as attributed.
    if (r.exec_ms >= 0.0) {
      attributed_sum += std::max(r.latency_ms - r.exec_ms, 0.0);
    }
  }
  return latency_sum > 0.0
             ? std::clamp(1.0 - attributed_sum / latency_sum, 0.0, 1.0)
             : 0.0;
}

void AddProcLayers(LayerValues& layers, const Segment& seg) {
  layers["proc.ctx_switches_per_query"] =
      static_cast<double>(seg.ctx_switches) /
      static_cast<double>(std::max<int64_t>(seg.completed(), 1));
  layers["proc.threads_peak"] = static_cast<double>(seg.threads_peak);
  layers["proc.affinity_cpus"] = AffinityCpus();
}

bool SameBytes(const std::vector<dhtjoin::ScoredPair>& got,
               const std::vector<dhtjoin::ScoredPair>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].p != want[i].p || got[i].q != want[i].q ||
        std::bit_cast<uint64_t>(got[i].score) !=
            std::bit_cast<uint64_t>(want[i].score)) {
      return false;
    }
  }
  return true;
}

void AddTwoWayEngineLayers(LayerValues& layers, const Segment& seg) {
  const double n = static_cast<double>(std::max<int64_t>(seg.completed(), 1));
  double walk = 0, hits = 0, misses = 0, barriers = 0, pruned = 0;
  double warm = 0, cold = 0, ybound = 0;
  std::map<std::string, double> self_ms;
  for (const QueryRecord& r : seg.records) {
    walk += static_cast<double>(r.walk_steps);
    hits += static_cast<double>(r.state_hits);
    misses += static_cast<double>(r.state_misses);
    barriers += static_cast<double>(r.pool_barriers);
    pruned += r.pruned_frac;
    warm += static_cast<double>(r.warm_targets);
    cold += static_cast<double>(r.cold_targets);
    ybound += r.ybound_cached ? 1.0 : 0.0;
    for (const auto& [name, ms] : r.self_ms) self_ms[name] += ms;
  }
  layers["dht.walk_steps_per_query"] = walk / n;
  layers["join2.state_hits_per_query"] = hits / n;
  layers["join2.state_misses_per_query"] = misses / n;
  layers["join2.pool_barriers_per_query"] = barriers / n;
  layers["join2.pruned_frac"] = pruned / n;
  layers["serve.warm_target_frac"] = warm + cold > 0 ? warm / (warm + cold) : 0;
  layers["serve.ybound_cached_frac"] = ybound / n;
  // Means, not medians: self times add up to the traced latency.
  for (const std::string& name : EngineSelfTimeMetrics()) {
    layers[name] = self_ms[name] / n;
  }
}

void AddServiceLayers(LayerValues& layers, const SpanLog& spans,
                      dhtjoin::serve::DhtJoinService& service,
                      const dhtjoin::serve::CacheStats& before,
                      int64_t queries) {
  const dhtjoin::serve::CacheStats cache = service.cache_stats();
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  const double hits = static_cast<double>(cache.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(cache.misses - before.misses);
  layers["datasets.generate_s"] = spans.MedianSeconds("datasets.generate");
  layers["serve.init_s"] = spans.MedianSeconds("serve.init");
  layers["serve.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
  layers["serve.cache.evictions_per_query"] =
      static_cast<double>(cache.evictions - before.evictions) / n;
  layers["serve.cache.admission_rejects"] =
      static_cast<double>(cache.admission_rejects - before.admission_rejects);
  layers["serve.cache.resident_mb"] =
      static_cast<double>(cache.resident_bytes) / (1 << 20);
  const auto admission = service.service_stats().admission;
  layers["serve.admission.shed"] = static_cast<double>(
      admission.shed_capacity + admission.shed_cost + admission.shed_expired);
}

}  // namespace perfbench
