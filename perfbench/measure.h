/// \file perfbench/measure.h
/// \brief Measurement plumbing shared by the workloads: process
/// probes (/proc, getrusage, affinity), latency statistics, the
/// closed-loop client loop, and the result printer.

#ifndef DHTJOIN_PERFBENCH_MEASURE_H_
#define DHTJOIN_PERFBENCH_MEASURE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private directory for snapshots; removed by the caller at exit.
  std::string scratch;
};

/// Closed-loop clients per workload. Each sends its next request only
/// after the previous reply arrived.
inline constexpr int kClients = 2;

/// Monotonic seconds.
double NowSeconds();

/// One probe of a process: CPU seconds (user + system), context
/// switches (voluntary + involuntary), live threads, peak RSS (MB).
struct ProcSample {
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;
  int64_t threads = 0;
  double peak_rss_mb = 0.0;
};
ProcSample ProbeSelf();
/// Reads /proc/<pid>/{stat,status}; zeros when the process is gone.
ProcSample ProbePid(int64_t pid);
/// Entries of /proc/self/task (threads of this process).
int CountOwnThreads();
/// CPUs this process may run on (sched_getaffinity), which unlike
/// hardware_concurrency() honours taskset.
int AffinityCpus();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
/// Median; the mean of the two middle values for an even count.
double Median(std::vector<double> values);

/// The highest percentile that still has at least `kTailBeyond`
/// samples beyond it: the (kTailBeyond + 1)-th largest sample.
inline constexpr int64_t kTailBeyond = 10;
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 99.83
  int64_t samples = 0;      ///< samples the tail was taken from
  int64_t beyond = 0;       ///< samples strictly beyond it
};
Tail TailOf(std::vector<double> values);

/// Per-query record written by a client. Workloads fill the fields
/// that apply to them; the rest stay at their defaults.
struct QueryRecord {
  int64_t index = -1;
  double latency_ms = 0.0;
  /// Service-side execution time (QueryStats::seconds); < 0 when the
  /// query ran in another process.
  double exec_ms = -1.0;
  bool ok = false;
  /// Ran with a caller trace (traced runs only).
  bool traced = false;
  int template_id = -1;
  // serve / dht / join2 (in-process two-way)
  int64_t warm_targets = 0;
  int64_t cold_targets = 0;
  bool ybound_cached = false;
  int64_t walk_steps = 0;
  int64_t state_hits = 0;
  int64_t state_misses = 0;
  int64_t pool_barriers = 0;
  double pruned_frac = 0.0;
  // cluster
  int64_t attempts = 0;
  bool hedged = false;
  bool hedge_won = false;
  bool failover = false;
  bool local_fallback = false;
  // traced runs: engine span self time by span name, and the share of
  // the client latency that recorded spans cover
  std::map<std::string, double> self_ms;
  double covered_ms = 0.0;
};

/// Outcome of one closed-loop segment.
struct Segment {
  std::vector<QueryRecord> records;  ///< every query sent, by index
  double elapsed_s = 0.0;            ///< start -> last completion
  double cpu_s = 0.0;                ///< bench process + worker pids
  int64_t ctx_switches = 0;          ///< bench process + worker pids
  int64_t threads_peak = 0;          ///< bench process + worker pids
  int64_t completed() const { return static_cast<int64_t>(records.size()); }
};

/// Runs `kClients` client threads until `seconds` elapse, or until each
/// client ran `max_per_client` queries when that is >= 0. Each client
/// claims the next request index from `next_index` and calls
/// `one(index, record)`; the call must fill `record` (latency
/// included). The calling thread samples thread counts meanwhile.
/// CPU and context switches are summed over this process and
/// `worker_pids` for the segment only.
Segment RunClosedLoop(double seconds, int64_t max_per_client,
                      std::atomic<int64_t>& next_index,
                      const std::vector<int64_t>& worker_pids,
                      const std::function<void(int64_t, QueryRecord&)>& one);

/// Metrics of one run, printed as a report and a final JSON line.
class Report {
 public:
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A free-form line of the human-readable report.
  void Note(const std::string& line);

  /// Prints the notes, a table of every metric, then (last line of
  /// stdout) the JSON result carrying the end-to-end metrics when
  /// `trace` is false and the per-layer metrics when it is true.
  void Print(bool trace, bool correct, int64_t attempted,
             int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
};

/// lat_tail_ms is TailOf per chunk of consecutive queries, the median
/// over chunks: as many chunks as hold kTailChunkMin queries each, at
/// most kTailChunksMax. One stalled second on a shared host then moves
/// one chunk, not the run's figure, and the percentile stays >= p95.
inline constexpr std::size_t kTailChunkMin = 200;
inline constexpr std::size_t kTailChunksMax = 12;

/// Adds the end-to-end numbers of the whole segment `seg` to the
/// report, over its OK queries only: qps, lat_p50_ms, lat_tail_ms and
/// cpu_ms_per_query. fail_frac goes in a
/// note: the JSON carries it as failed / attempted, and any failure
/// fails the run.
void ReportEndToEnd(Report& report, const Segment& seg, double setup_s,
                    double rss_mb, int64_t attempted, int64_t failed);

/// printf into a std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // DHTJOIN_PERFBENCH_MEASURE_H_
