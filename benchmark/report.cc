#include "benchmark/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace sfs::benchmark {

namespace {

// Shortest decimal that round-trips: every digit the measurement carries.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"ns_per_event", "ns"}, {"setup_s", "s"},     {"peak_rss_mb", "MB"},
      {"wake_p50_us", "us"},  {"wake_p90_us", "us"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = [] {
    MetricList l;
    for (const char* hook : {"pick", "charge", "wakeup", "block", "admit", "remove",
                             "set_weight", "suggest_preempt"}) {
      const std::string p = std::string("sched.") + hook;
      l.insert(l.end(), {{p + ".calls", "count"},
                         {p + ".ns_p50", "ns"},
                         {p + ".ns_p99", "ns"},
                         {p + ".busy_pct", "%"}});
    }
    for (const char* counter :
         {"decisions", "full_refreshes", "refresh_repositions", "rebases", "steals"}) {
      l.emplace_back(std::string("sched.") + counter, "count");
    }
    l.insert(l.end(), {{"sched.repositions_per_pick", "ratio"},
                       {"sched.self_ns_per_event", "ns"}});
    for (const char* counter :
         {"events", "dispatches", "preemptions", "context_switches", "migrations"}) {
      l.emplace_back(std::string("sim.") + counter, "count");
    }
    l.insert(l.end(), {{"sim.self_ns_per_event", "ns"},
                       {"workload.next.calls", "count"},
                       {"workload.next.busy_pct", "%"},
                       {"workload.self_ns_per_event", "ns"},
                       {"workload.wake_p99_us", "us"},
                       {"parallel.epochs", "count"},
                       {"parallel.mailed_wakeups", "count"},
                       {"parallel.w1_ns_per_event", "ns"},
                       {"parallel.speedup_vs_w1", "x"},
                       {"parallel.worker.0.busy_pct", "%"},
                       {"parallel.worker.0.events", "count"},
                       {"parallel.worker.1.busy_pct", "%"},
                       {"parallel.worker.1.events", "count"},
                       {"runtime.dispatches", "count"},
                       {"runtime.wakeups", "count"},
                       {"runtime.preemptions", "count"},
                       {"runtime.kicks_per_wakeup", "ratio"}});
    for (const auto& [hist, unit] :
         std::vector<std::pair<std::string, std::string>>{{"dispatch_ns", "ns"},
                                                          {"lock_wait_ns", "ns"},
                                                          {"wake_apply_us", "us"},
                                                          {"w2d_us", "us"},
                                                          {"run_slice_us", "us"},
                                                          {"slice_gap_us", "us"}}) {
      l.emplace_back("runtime." + hist + ".p50", unit);
      l.emplace_back("runtime." + hist + ".p99", unit);
    }
    l.insert(l.end(), {{"runtime.work_busy_pct", "%"},
                       {"runtime.unattributed_pct", "%"},
                       {"trace.overhead_pct", "%"},
                       {"trace.clock_pair_ns", "ns"},
                       {"trace.clock_ns_per_event", "ns"},
                       {"trace.unattributed_ns_per_event", "ns"}});
    return l;
  }();
  return list;
}

bool Report::Check(bool ok, const std::string& what) {
  std::printf("check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

bool Report::Print(const MetricList& list, bool require_all) const {
  std::string metrics;
  for (const auto& [name, unit] : list) {
    const auto it = values_.find(name);
    if (it == values_.end() && require_all) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return false;
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(it == values_.end() ? 0.0 : it->second) +
               ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<long long>(attempted_), static_cast<long long>(failed_),
              metrics.c_str());
  std::fflush(stdout);
  return true;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace sfs::benchmark
