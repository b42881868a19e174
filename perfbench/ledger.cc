/// \file perfbench/ledger.cc

#include "ledger.h"

#include <sstream>

namespace perfbench {

void SpanLog::Record(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[name].push_back(seconds);
}

double SpanLog::MedianSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : Median(it->second);
}

namespace {

/// Library span names and the ledger names they report under.
/// Unlisted names fold into "serve.other.self_ms".
std::string LedgerNameForSpan(const std::string& span) {
  static const std::map<std::string, std::string> kNames = {
      {"ybound", "serve.ybound.self_ms"},
      {"import", "serve.import.self_ms"},
      {"round", "serve.round.self_ms"},
      {"b.advance_many", "dht.advance_many.self_ms"},
      {"f.advance_many", "dht.advance_many.self_ms"},
      {"final", "serve.final.self_ms"},
      {"write_back", "serve.write_back.self_ms"},
  };
  auto it = kNames.find(span);
  return it == kNames.end() ? "serve.other.self_ms" : it->second;
}

}  // namespace

TraceLedger ParseTraceText(const std::string& text) {
  struct Open {
    std::string name;
    int depth = 0;
    double duration_ms = 0.0;
    double children_ms = 0.0;
  };
  TraceLedger ledger;
  std::vector<Open> stack;
  auto close_until = [&](int depth) {
    while (!stack.empty() && stack.back().depth >= depth) {
      const Open done = stack.back();
      stack.pop_back();
      ledger.self_ms[LedgerNameForSpan(done.name)] +=
          done.duration_ms - done.children_ms;
      if (!stack.empty()) stack.back().children_ms += done.duration_ms;
    }
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    std::istringstream fields(line.substr(indent));
    Open span;
    std::string duration;
    if (!(fields >> span.name >> duration)) continue;
    span.depth = static_cast<int>(indent / 2);
    // "123ns"; unfinished spans render 0ns and add nothing.
    span.duration_ms = std::stod(duration) * 1e-6;
    close_until(span.depth);
    if (span.depth == 0) ledger.covered_ms += span.duration_ms;
    stack.push_back(std::move(span));
  }
  close_until(0);
  return ledger;
}

const std::vector<std::string>& EngineSelfTimeMetrics() {
  static const std::vector<std::string> kMetrics = {
      "serve.ybound.self_ms",     "serve.import.self_ms",
      "serve.round.self_ms",      "dht.advance_many.self_ms",
      "serve.final.self_ms",      "serve.write_back.self_ms",
      "serve.other.self_ms",
  };
  return kMetrics;
}

}  // namespace perfbench
