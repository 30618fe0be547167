#include "benchmark/trace.h"

#include <algorithm>
#include <string>

namespace sfs::benchmark {

ClockCost CalibrateClock() {
  constexpr int kPairs = 200000;
  std::vector<std::int64_t> empty(kPairs);
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    const std::int64_t a = NowNs();
    empty[static_cast<std::size_t>(i)] = NowNs() - a;
  }
  const std::int64_t wall = NowNs() - t0;
  std::nth_element(empty.begin(), empty.begin() + kPairs / 2, empty.end());
  ClockCost cost;
  cost.pair_ns = static_cast<double>(wall) / kPairs;
  cost.empty_span_ns = empty[kPairs / 2];
  return cost;
}

SpanRegistry& SpanRegistry::Get() {
  static SpanRegistry registry;
  return registry;
}

ThreadTotals& SpanRegistry::Local() {
  thread_local ThreadTotals* const local = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadTotals>());
    return threads_.back().get();
  }();
  return *local;
}

ThreadTotals SpanRegistry::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadTotals sum;
  for (const auto& t : threads_) {
    for (int l = 0; l < kNumLayers; ++l) {
      sum.layers[static_cast<std::size_t>(l)].Merge(t->layers[static_cast<std::size_t>(l)]);
    }
  }
  return sum;
}

LayerSums ReportLayers(double capacity_ns, int rounds, Report& report) {
  const ThreadTotals totals = SpanRegistry::Get().Merged();
  LayerSums sums;
  double spans = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const LayerTotals& t = totals.layers[static_cast<std::size_t>(l)];
    const std::string name = kLayerNames[l];
    report.Set(name + ".calls", static_cast<double>(t.calls) / rounds);
    report.Set(name + ".busy_pct", 100.0 * static_cast<double>(t.ns) / capacity_ns);
    if (l < kNumSchedLayers) {
      report.Set(name + ".ns_p50", t.Percentile(50));
      report.Set(name + ".ns_p99", t.Percentile(99));
      sums.sched_ns += static_cast<double>(t.ns);
    }
    spans += static_cast<double>(t.calls);
  }
  sums.next_ns = static_cast<double>(totals.layers[kWorkloadNext].ns);
  sums.clock_ns = spans * SpanRegistry::Get().clock_cost().pair_ns;
  report.Set("trace.clock_pair_ns", SpanRegistry::Get().clock_cost().pair_ns);
  return sums;
}

}  // namespace sfs::benchmark
