/// \file perfbench/measure.cc

#include "measure.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

namespace {

/// Fills threads / ctx switches / peak RSS from a /proc status file.
void ReadStatus(const std::string& path, ProcSample& s, bool ctx) {
  std::ifstream in(path);
  std::string key;
  while (in >> key) {
    int64_t value = 0;
    if (key == "Threads:") {
      in >> s.threads;
    } else if (key == "VmHWM:") {
      in >> value;  // kB
      s.peak_rss_mb = static_cast<double>(value) / 1024.0;
    } else if (ctx && (key == "voluntary_ctxt_switches:" ||
                       key == "nonvoluntary_ctxt_switches:")) {
      in >> value;
      s.ctx_switches += value;
    }
    in.ignore(1 << 20, '\n');
  }
}

}  // namespace

ProcSample ProbeSelf() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  ReadStatus("/proc/self/status", s, /*ctx=*/false);
  return s;
}

ProcSample ProbePid(int64_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return s;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return s;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  s.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  ReadStatus(dir + "/status", s, /*ctx=*/true);
  return s;
}

int CountOwnThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Tail TailOf(std::vector<double> values) {
  Tail t;
  t.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const int64_t n = t.samples;
  // With fewer than kTailBeyond + 1 samples no percentile has ten
  // beyond it; report the maximum and say how many are beyond (0).
  const int64_t pos = std::max<int64_t>(n - 1 - kTailBeyond, 0);
  t.value = values[static_cast<std::size_t>(pos)];
  t.beyond = n - 1 - pos;
  t.percentile = 100.0 * static_cast<double>(pos + 1) / static_cast<double>(n);
  return t;
}

Segment RunClosedLoop(double seconds, int64_t max_per_client,
                      std::atomic<int64_t>& next_index,
                      const std::vector<int64_t>& worker_pids,
                      const std::function<void(int64_t, QueryRecord&)>& one) {
  auto probe_all = [&worker_pids] {
    ProcSample total = ProbeSelf();
    for (const int64_t pid : worker_pids) {
      const ProcSample w = ProbePid(pid);
      total.cpu_s += w.cpu_s;
      total.ctx_switches += w.ctx_switches;
      total.threads += w.threads;
    }
    return total;
  };

  Segment seg;
  std::vector<std::vector<QueryRecord>> per_client(kClients);
  std::vector<double> last_done(kClients, 0.0);
  std::atomic<int> running{kClients};
  const ProcSample before = probe_all();
  const double start = NowSeconds();
  const double stop_at = start + seconds;

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t i = 0;
           (max_per_client < 0 || i < max_per_client) && NowSeconds() < stop_at;
           ++i) {
        QueryRecord rec;
        rec.index = next_index.fetch_add(1);
        one(rec.index, rec);
        last_done[static_cast<std::size_t>(c)] = NowSeconds() - start;
        per_client[static_cast<std::size_t>(c)].push_back(std::move(rec));
      }
      running.fetch_sub(1);
    });
  }
  int64_t threads_peak = 0;
  while (running.load() > 0) {
    threads_peak = std::max(threads_peak, probe_all().threads);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : clients) t.join();
  const ProcSample after = probe_all();

  seg.elapsed_s = *std::max_element(last_done.begin(), last_done.end());
  seg.cpu_s = after.cpu_s - before.cpu_s;
  seg.ctx_switches = after.ctx_switches - before.ctx_switches;
  seg.threads_peak = threads_peak;
  for (auto& recs : per_client) {
    for (QueryRecord& r : recs) seg.records.push_back(std::move(r));
  }
  std::sort(seg.records.begin(), seg.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.index < b.index;
            });
  return seg;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

namespace {

/// Shortest round-trip decimal form; non-finite values (a bug, never
/// expected) print as 0 so the JSON stays valid.
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  return Format("%.17g", v);
}

}  // namespace

void Report::Print(bool trace, bool correct, int64_t attempted,
                   int64_t failed) const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::printf("# end-to-end metrics:\n");
  for (const Metric& m : end_to_end_) {
    std::printf("#   %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (trace) {
    std::printf("# per-layer metrics:\n");
    for (const Metric& m : layers_) {
      std::printf("#   %-36s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const std::vector<Metric>& out = trace ? layers_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + Number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportEndToEnd(Report& report, const Segment& seg, double setup_s,
                    double rss_mb, int64_t attempted, int64_t failed) {
  // A failed query answers nothing, so it must not make the figures
  // look faster; the run is failed anyway.
  std::vector<double> latency_ms;
  for (const QueryRecord& r : seg.records) {
    if (r.ok) latency_ms.push_back(r.latency_ms);
  }
  const double ok = static_cast<double>(latency_ms.size());
  const std::size_t chunks = std::clamp<std::size_t>(
      latency_ms.size() / kTailChunkMin, 1, kTailChunksMax);
  std::vector<double> tails;
  Tail chunk_tail;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(
                                                c * latency_ms.size() / chunks);
    const auto last =
        latency_ms.begin() +
        static_cast<std::ptrdiff_t>((c + 1) * latency_ms.size() / chunks);
    chunk_tail = TailOf(std::vector<double>(first, last));
    tails.push_back(chunk_tail.value);
  }
  const Tail whole_tail = TailOf(latency_ms);
  report.EndToEnd("qps", ok / std::max(seg.elapsed_s, 1e-9), "1/s");
  report.EndToEnd("lat_p50_ms", Median(latency_ms), "ms");
  report.EndToEnd("lat_tail_ms", Median(tails), "ms");
  report.EndToEnd("cpu_ms_per_query", ok > 0 ? seg.cpu_s * 1e3 / ok : 0.0,
                  "ms");
  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("rss_mb", rss_mb, "MB");
  report.Note(Format("timed segment: %zu OK of %lld queries in %.3f s, %d "
                     "closed-loop clients",
                     latency_ms.size(), static_cast<long long>(seg.completed()),
                     seg.elapsed_s, kClients));
  report.Note(Format("lat_tail_ms is the median over %zu chunks of "
                     "consecutive queries of each chunk's p%.3f (%lld "
                     "samples, %lld beyond it); the whole run's p%.3f (%lld "
                     "samples, %lld beyond it) is %.4f ms",
                     chunks, chunk_tail.percentile,
                     static_cast<long long>(chunk_tail.samples),
                     static_cast<long long>(chunk_tail.beyond),
                     whole_tail.percentile,
                     static_cast<long long>(whole_tail.samples),
                     static_cast<long long>(whole_tail.beyond),
                     whole_tail.value));
  report.Note(Format("fail_frac = %lld / %lld = %.6f (failed, shed and wrong "
                     "answers over attempted)",
                     static_cast<long long>(failed),
                     static_cast<long long>(attempted),
                     attempted > 0 ? static_cast<double>(failed) /
                                         static_cast<double>(attempted)
                                   : 0.0));
}

}  // namespace perfbench
