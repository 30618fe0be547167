// Benchmark-side span accounting for the traced run.
//
// The benchmark times calls into the program's layers from its own files:
// scheduler hooks (TimedSfs), the workload's Behavior::Next and the engine's
// RunUntil.  Each span adds its clock-corrected duration to a per-thread
// accumulator, so concurrent callers (parallel-engine workers, runtime
// dispatchers) never share a cache line.  Accumulators outlive their
// threads: they are owned by the process-wide registry and merged after the
// measured region has joined every thread.

#ifndef SFS_BENCHMARK_TRACE_H_
#define SFS_BENCHMARK_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "benchmark/report.h"
#include "src/obs/metrics.h"

namespace sfs::benchmark {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Every timed call site; the first eight are the scheduler hooks reached
// through sched::Scheduler's public entry points.
enum Layer : int {
  kPick,
  kCharge,
  kWakeup,
  kBlock,
  kAdmit,
  kRemove,
  kSetWeight,
  kSuggestPreempt,
  kWorkloadNext,
  kNumLayers,
};
inline constexpr int kNumSchedLayers = kWorkloadNext;
inline constexpr const char* kLayerNames[kNumLayers] = {
    "sched.pick",   "sched.charge",     "sched.wakeup",          "sched.block",
    "sched.admit",  "sched.remove",     "sched.set_weight",      "sched.suggest_preempt",
    "workload.next",
};

// One layer's totals: call count, summed self time and a log-bucketed
// duration histogram (obs::LogHistogram's geometry, 8 sub-buckets per
// octave).
struct LayerTotals {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(obs::LogHistogram::kNumBuckets);

  void Add(std::int64_t d) {
    ++calls;
    ns += d;
    ++buckets[obs::LogHistogram::BucketIndex(d)];
  }
  void Merge(const LayerTotals& other) {
    calls += other.calls;
    ns += other.ns;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
  }
  double Percentile(double p) const {
    return obs::HistogramSnapshot(buckets, static_cast<std::uint64_t>(calls), ns, 0, 0)
        .Percentile(p);
  }
};

struct ThreadTotals {
  std::array<LayerTotals, kNumLayers> layers;
};

// Cost of the clock reads a span adds, measured once per process.
struct ClockCost {
  // Wall cost of one back-to-back read pair, i.e. what each span adds to the
  // enclosing wall time.
  double pair_ns = 0.0;
  // Median duration an empty span reads; subtracted from every span.
  std::int64_t empty_span_ns = 0;
};
ClockCost CalibrateClock();

class SpanRegistry {
 public:
  static SpanRegistry& Get();

  // The calling thread's accumulator (created on first use).
  ThreadTotals& Local();

  // Sums every thread's totals.  Only call once the spans' threads joined.
  ThreadTotals Merged() const;

  void set_clock_cost(const ClockCost& cost) { cost_ = cost; }
  const ClockCost& clock_cost() const { return cost_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTotals>> threads_;
  ClockCost cost_;
};

// Times the enclosing scope into `layer` of the calling thread.
class Span {
 public:
  explicit Span(Layer layer) : layer_(layer), start_(NowNs()) {}
  ~Span() {
    SpanRegistry& reg = SpanRegistry::Get();
    const std::int64_t d = NowNs() - start_ - reg.clock_cost().empty_span_ns;
    reg.Local().layers[layer_].Add(d < 0 ? 0 : d);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  std::int64_t start_;
};

// What the spans recorded, summed over the traced rounds.
struct LayerSums {
  double sched_ns = 0.0;  // every scheduler hook
  double next_ns = 0.0;   // workload.next
  double clock_ns = 0.0;  // the clock reads of every span
};

// Sets <layer>.calls (per traced round) and <layer>.busy_pct (of
// `capacity_ns`) for every layer, and ns_p50/ns_p99 for the scheduler hooks.
LayerSums ReportLayers(double capacity_ns, int rounds, Report& report);

}  // namespace sfs::benchmark

#endif  // SFS_BENCHMARK_TRACE_H_
