/// \file perfbench/main.cc
/// \brief The dhtjoin repo benchmark. One binary, two workloads:
///
///   twoway-cold-cluster  fresh random operands through
///                        ClusterCoordinator to two worker processes
///                        warm-started from a snapshot
///   nway-pji             chain / star PJ-i queries through SubmitNway
///
/// Usage: dhtjoin_perfbench --workload <name> --seed <n> --seconds <s>
///                          --trace <0|1> --scratch <dir>
///
/// With --trace 0 it measures the end-to-end metrics with tracing off;
/// with --trace 1 it alternates traced and untraced blocks of requests
/// on the same service and prints the per-layer ledger. Every answer it
/// receives is checked (the two-way workload checks a seeded sample); a
/// wrong answer, a failed or shed query, or a worker that does not stop
/// cleanly makes it exit 1.
/// README.md in this directory has the workload rationale and the
/// layer -> end-to-end map.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && !args.workload.empty() &&
         args.seconds > 0.0 && !args.scratch.empty();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dhtjoin_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir>\n");
    return 2;
  }
  // Two closed-loop clients plus two query-executing threads (service
  // pool threads, or one per worker process) must each get a CPU, or
  // the numbers measure oversubscription instead of the system.
  constexpr int kBusyWorkers = 2;
  const int cpus = AffinityCpus();
  if (kClients + kBusyWorkers > cpus) {
    std::fprintf(stderr,
                 "refusing to run: %d clients + %d busy workers exceed the "
                 "%d CPUs of this process's affinity mask\n",
                 kClients, kBusyWorkers, cpus);
    return 2;
  }

  Report report;
  LayerValues layers;
  Verdict verdict;
  if (args.workload == "twoway-cold-cluster") {
    verdict = RunTwoWayColdCluster(args, report, layers);
  } else if (args.workload == "nway-pji") {
    verdict = RunNwayPji(args, report, layers);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const LayerMetric& m : LayerMetrics()) {
    auto it = layers.find(m.name);
    report.Layer(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
  }
  report.Note(Format("workload %s, seed %llu, %.1f s, trace %d, %d of %d "
                     "affinity CPUs in use",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed), args.seconds,
                     args.trace ? 1 : 0, kClients + kBusyWorkers, cpus));
  report.Note(Format("answers checked: %lld, mismatches: %lld, failed: %lld",
                     static_cast<long long>(verdict.checked),
                     static_cast<long long>(verdict.mismatches),
                     static_cast<long long>(verdict.failed)));
  // fail_frac must be 0: a query that fails fast would otherwise pass
  // as a faster run.
  const bool correct = verdict.mismatches == 0 && verdict.failed == 0;
  report.Print(args.trace, correct, std::max<int64_t>(verdict.attempted, 1),
               verdict.failed);
  return correct ? 0 : 1;
}
