/// \file perfbench/ledger.h
/// \brief The per-layer ledger: spans the benchmark records around its
/// own calls into each layer's public functions, and the self times of
/// the engine span tree the service records on a caller's ExecContext.
///
/// Nothing here adds spans inside the library. SpanLog holds the
/// setup-phase calls (generation, service construction, worker spawn,
/// snapshot load); each query's client-side span is its QueryRecord
/// latency, and its engine spans come from ParseTraceText.

#ifndef DHTJOIN_PERFBENCH_LEDGER_H_
#define DHTJOIN_PERFBENCH_LEDGER_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// Thread-safe log of benchmark-side spans, aggregated by name.
class SpanLog {
 public:
  void Record(const std::string& name, double seconds);
  /// Median duration of `name` in seconds; 0 when never recorded.
  double MedianSeconds(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> spans_;
};

/// RAII span around one call: records its wall duration on destruction.
class TimedSpan {
 public:
  TimedSpan(SpanLog& log, const char* name)
      : log_(log), name_(name), start_(NowSeconds()) {}
  ~TimedSpan() { log_.Record(name_, NowSeconds() - start_); }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  double start_;
};

/// Self time per span name (ms) of one query's engine trace, and the
/// total duration of its top-level spans (the time the trace covers).
struct TraceLedger {
  std::map<std::string, double> self_ms;
  double covered_ms = 0.0;
};

/// Parses obs::Trace::ToText() output ("  name 123ns attr=..", two
/// spaces of indent per nesting level). A span's self time is its
/// duration minus its children's durations; self times are keyed by
/// their ledger names (EngineSelfTimeMetrics).
TraceLedger ParseTraceText(const std::string& text);

/// Every engine self-time metric the ledger reports, in print order.
const std::vector<std::string>& EngineSelfTimeMetrics();

}  // namespace perfbench

#endif  // DHTJOIN_PERFBENCH_LEDGER_H_
