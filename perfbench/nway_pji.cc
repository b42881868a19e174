/// \file perfbench/nway_pji.cc
/// \brief nway-pji: 3- and 4-set chain and star rank joins (MIN
/// aggregate, k = 50) over the top-40 members of research areas,
/// through DhtJoinService::SubmitNway with PJ-i. The only workload on
/// core/partial_join, rankjoin/pbrj, join2/incremental and the scalar
/// walker with its cached snapshot payload.

#include <algorithm>
#include <memory>
#include <mutex>

#include "core/partial_join.h"
#include "core/query_graph.h"
#include "rankjoin/aggregate.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dhtjoin::NodeSet;
using dhtjoin::QueryGraph;
using dhtjoin::TupleAnswer;
using dhtjoin::serve::DhtJoinService;

constexpr uint64_t kStream = 3;
constexpr std::size_t kSetSize = 40;
/// Query templates. A template's rank fixes its class (rank mod 4:
/// 3-chain, 3-star, 4-chain, 4-star). The set is fixed; the run's seed
/// orders the stream, which repeats every template once per cycle of
/// kTemplates requests. A query costs 2-4x more or less depending on
/// its class and areas, so a seeded template set or a sampled mix of
/// the ~100 queries a run completes would turn into run-to-run spread.
constexpr std::size_t kTemplates = 12;
constexpr uint64_t kTemplateSeed = 1;
// A traced run's blocks are then whole cycles, so traced and untraced
// queries have the same mix.
static_assert(kTemplates == static_cast<std::size_t>(kTraceBlock));

struct Template {
  QueryGraph query;
  int arity = 0;
  bool star = false;
  std::string label;
};

Template MakeTemplate(const std::vector<NodeSet>& areas,
                      const dhtjoin::Graph& g, uint64_t seed,
                      std::size_t rank) {
  Template t;
  t.arity = (rank % 4) < 2 ? 3 : 4;
  t.star = rank % 2 == 1;
  dhtjoin::Rng rng = RequestRng(seed, kStream + 10, static_cast<int64_t>(rank));
  std::vector<std::size_t> order(areas.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int i = 0; i < t.arity; ++i) {
    const std::size_t j = static_cast<std::size_t>(i) +
                          rng.Below(order.size() - static_cast<std::size_t>(i));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  t.label = Format("%d-%s(", t.arity, t.star ? "star" : "chain");
  for (int i = 0; i < t.arity; ++i) {
    t.query.AddNodeSet(areas[order[static_cast<std::size_t>(i)]].TopByDegree(
        g, kSetSize));
    t.label += Format("%s%zu", i > 0 ? "," : "",
                      order[static_cast<std::size_t>(i)]);
  }
  t.label += ")";
  for (int i = 1; i < t.arity; ++i) {
    // Chain: 0 > 1 > 2 (> 3). Star: 0 > 1, 0 > 2 (, 0 > 3).
    const dhtjoin::Status s = t.query.AddEdge(t.star ? 0 : i - 1, i);
    if (!s.ok()) {
      std::fprintf(stderr, "query graph: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  return t;
}

/// Library PJ-i on one template: the reference answer, its time, and
/// the rank-join counters.
struct LibraryRun {
  std::vector<TupleAnswer> answer;
  double ms = 0.0;
  double pulls = 0.0;
  double beyond_m = 0.0;
  double tuples = 0.0;
  bool ok = false;
};

bool SameTuples(const std::vector<TupleAnswer>& got,
                const std::vector<TupleAnswer>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].nodes != want[i].nodes || got[i].f != want[i].f) return false;
  }
  return true;
}

}  // namespace

Verdict RunNwayPji(const Args& args, Report& report, LayerValues& layers) {
  SpanLog spans;
  InProcessSetup setup = SetUpInProcess(spans);
  DhtJoinService& service = *setup.service;
  const dhtjoin::Graph& g = setup.ds->graph;

  std::vector<Template> templates;
  for (std::size_t r = 0; r < kTemplates; ++r) {
    templates.push_back(MakeTemplate(setup.ds->areas, g, kTemplateSeed, r));
  }
  auto template_of = [&](int64_t index) {
    // Position in a seeded permutation of the templates, one per cycle.
    dhtjoin::Rng rng = RequestRng(args.seed, kStream,
                                  index / static_cast<int64_t>(kTemplates));
    std::vector<std::size_t> order(kTemplates);
    for (std::size_t i = 0; i < kTemplates; ++i) order[i] = i;
    for (std::size_t i = 0; i + 1 < kTemplates; ++i) {
      std::swap(order[i], order[i + rng.Below(kTemplates - i)]);
    }
    return order[static_cast<std::size_t>(index) % kTemplates];
  };
  const dhtjoin::MinAggregate f;

  std::mutex answers_mu;
  std::map<int64_t, std::vector<TupleAnswer>> answers;
  // N-way queries take no ExecContext yet, so there is no trace to
  // attach: a traced request runs the same call, and nothing below the
  // service's execution envelope is covered by a span.
  auto run_one = [&](int64_t index, QueryRecord& rec) {
    rec.traced = TracedRequest(args, index);
    const std::size_t t = template_of(index);
    rec.template_id = static_cast<int>(t);
    dhtjoin::serve::QueryStats qs;
    dhtjoin::serve::QueryOptions qopts{.stats = &qs};
    QueryGraph query = templates[t].query;
    const double start = NowSeconds();
    auto result =
        service
            .SubmitNway(std::move(query), f, kTopK,
                        DhtJoinService::NwayAlgo::kPartialJoinIncremental,
                        std::move(qopts))
            .get();
    rec.latency_ms = (NowSeconds() - start) * 1e3;
    rec.ok = result.ok();
    if (!rec.ok) return;
    rec.exec_ms = qs.seconds * 1e3;
    std::lock_guard<std::mutex> lock(answers_mu);
    answers[index] = std::move(result).value();
  };

  std::atomic<int64_t> next_index{0};
  const Segment warmup = RunClosedLoop(kWarmupSeconds, kWarmupPerClient,
                                       next_index, {}, run_one);
  const dhtjoin::serve::CacheStats cache_before = service.cache_stats();
  const Segment seg = RunClosedLoop(args.seconds, -1, next_index, {}, run_one);
  const double rss_mb = ProbeSelf().peak_rss_mb;

  // References: library PJ-i once per template that was queried. Its
  // batch engines size their pools from the hardware (the library has
  // no thread knob), so core.pji_lib_ms_p50 is a multi-threaded floor.
  std::vector<LibraryRun> library(kTemplates);
  for (const auto& [index, tuples] : answers) {
    LibraryRun& lib = library[template_of(index)];
    if (lib.ok || lib.ms > 0.0) continue;
    dhtjoin::PartialJoin join(
        dhtjoin::PartialJoin::Options{.incremental = true});
    const std::size_t t = template_of(index);
    const double start = NowSeconds();
    auto want = join.Run(g, Params(), kDepth, templates[t].query, f, kTopK);
    lib.ms = std::max((NowSeconds() - start) * 1e3, 1e-9);
    lib.ok = want.ok();
    if (!lib.ok) continue;
    lib.answer = std::move(want).value();
    const dhtjoin::PartialJoin::Stats& st = join.stats();
    for (const int64_t p : st.pulls_per_edge) {
      lib.pulls += static_cast<double>(p);
    }
    for (const int64_t b : st.beyond_m_per_edge) {
      lib.beyond_m += static_cast<double>(b);
    }
    lib.tuples = static_cast<double>(st.rank_join.tuples_generated);
  }

  Verdict verdict;
  CountOutcomes(verdict, {&warmup, &seg});
  for (const auto& [index, tuples] : answers) {
    const LibraryRun& lib = library[template_of(index)];
    ++verdict.checked;
    if (!lib.ok || !SameTuples(tuples, lib.answer)) {
      ++verdict.mismatches;
      ++verdict.failed;
      std::fprintf(stderr, "MISMATCH: nway-pji query %lld differs from "
                           "PartialJoin::Run\n",
                   static_cast<long long>(index));
    }
  }

  ReportEndToEnd(report, seg, setup.setup_s, rss_mb,
                 verdict.attempted, verdict.failed);
  report.Note("answers: every one checked against library PartialJoin::Run "
              "(PJ-i) in nodes and f");

  // Workload properties and rank-join counters over the timed queries.
  std::vector<double> lib_ms;
  double four = 0, star = 0, pulls = 0, beyond = 0, tuples = 0;
  std::vector<int64_t> per_template(kTemplates, 0);
  for (const QueryRecord& r : seg.records) {
    const Template& t = templates[static_cast<std::size_t>(r.template_id)];
    const LibraryRun& lib = library[static_cast<std::size_t>(r.template_id)];
    ++per_template[static_cast<std::size_t>(r.template_id)];
    four += t.arity == 4 ? 1 : 0;
    star += t.star ? 1 : 0;
    lib_ms.push_back(lib.ms);
    pulls += lib.pulls;
    beyond += lib.beyond_m;
    tuples += lib.tuples;
  }
  const double n = static_cast<double>(std::max<std::size_t>(lib_ms.size(), 1));
  std::string mix;
  for (std::size_t t = 0; t < kTemplates; ++t) {
    mix += Format("%s%s x%lld", t > 0 ? ", " : "", templates[t].label.c_str(),
                  static_cast<long long>(per_template[t]));
  }
  report.Note(Format("property: 4-set share %.3f, star share %.3f over %zu "
                     "timed queries; templates (areas): %s",
                     four / n, star / n, lib_ms.size(), mix.c_str()));
  layers["workload.nway_4set_frac"] = four / n;
  layers["workload.nway_star_frac"] = star / n;
  layers["core.pji_lib_ms_p50"] = Quantile(lib_ms, 0.5);
  layers["rankjoin.pulls_per_query"] = pulls / n;
  layers["rankjoin.beyond_m_per_query"] = beyond / n;
  layers["rankjoin.tuples_per_query"] = tuples / n;
  const Segment traced = PartOf(seg, true);
  AddExecLayers(layers, traced);
  layers["obs.unattributed_frac"] = UnattributedFrac(traced);
  layers["obs.trace_overhead"] = TraceOverhead(seg);
  AddProcLayers(layers, seg);
  AddServiceLayers(layers, spans, service, cache_before, seg.completed());
  return verdict;
}

}  // namespace perfbench
