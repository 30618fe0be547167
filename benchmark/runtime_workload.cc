// The runtime workload: real threads under runtime::Executor.
//
// Two dispatchers over sharded SFS run three spinning hogs (weights 1, 1, 2)
// and four closed-loop blockers (weight 2) that each run about 30 us, then
// block for a seeded 0.5-2 ms.  Each blocker measures its own wake latency:
// from its due instant (the time it asked to block plus block_for) to the
// next entry of its work().  A run repeats one-second executor runs
// ("rounds") until the measured time is spent.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/timed_sfs.h"
#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::benchmark {
namespace {

using runtime::Executor;
using sched::ThreadId;

constexpr int kDispatchers = 2;
constexpr double kHogWeights[] = {2.0, 1.0, 1.0};
constexpr int kBlockers = 4;
constexpr double kBlockerWeight = 2.0;
constexpr auto kRoundWall = std::chrono::seconds(1);
constexpr auto kHogUnit = std::chrono::microseconds(20);
constexpr auto kBlockerUnit = std::chrono::microseconds(30);
constexpr std::int64_t kBlockMinUs = 500;
constexpr std::int64_t kBlockMaxUs = 2000;
// A blocker whose wake came due this long before the round ended must have
// been served by then.
constexpr auto kServeGrace = std::chrono::milliseconds(100);
// Hog CPU-time ratios must be within this share of their weight ratios.
constexpr double kShareTolerance = 0.15;
// Each round is preceded by set-ups repeated for this long; setup_s is the
// fast decile of all of them (report.h).
constexpr auto kSetupBatch = std::chrono::milliseconds(20);

void Spin(Clock::duration d) {
  const auto end = Clock::now() + d;
  while (Clock::now() < end) {
  }
}

// Per-task state; each is touched only by its own task thread while the
// executor runs, and read after Run() has joined them.
struct HogState {
  std::int64_t calls = 0;
  Clock::time_point last_return{};
  std::vector<double> gaps_us;  // traced rounds: work() return -> next call
};

struct BlockerState {
  common::Rng rng{0};
  std::int64_t calls = 0;
  bool pending = false;
  Clock::time_point due{};
  std::vector<double> wake_us;
};

struct RoundResult {
  double wall_ns = 0.0;
  std::int64_t slices = 0;
  std::vector<double> wake_us;
  std::vector<double> gaps_us;
  std::vector<Tick> hog_cpu;
  std::int64_t dispatches = 0;
  std::int64_t wakeups = 0;
  std::int64_t preemptions = 0;
  std::int64_t kicks = 0;
  SchedCounters sched;
  obs::HistogramSnapshot dispatch_ns, lock_wait_ns, wake_apply_ns, w2d_ns, run_slice_ns;
  bool ok = true;
};

template <class Policy>
std::unique_ptr<sched::Scheduler> MakeScheduler() {
  sched::SchedConfig config;
  config.num_cpus = kDispatchers;
  return std::make_unique<sched::Sharded<Policy>>(config);
}

std::vector<std::uint64_t> BlockerSeeds(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint64_t> seeds(kBlockers);
  for (auto& s : seeds) {
    s = rng.Next();
  }
  return seeds;
}

// Registers the tasks.  Admission order places the weight-2 hog alone on one
// shard and the two weight-1 hogs on the other (lightest-shard placement),
// so the partitioned shares match the global GMS shares.
template <bool kTraced>
void AddTasks(Executor& exec, std::vector<HogState>& hogs, std::vector<BlockerState>& blockers) {
  ThreadId tid = 0;
  for (std::size_t i = 0; i < hogs.size(); ++i, ++tid) {
    HogState* h = &hogs[i];
    exec.AddTask(tid, kHogWeights[i], [h]() -> Executor::WorkResult {
      const auto entry = Clock::now();
      if (kTraced && h->calls > 0) {
        h->gaps_us.push_back(std::chrono::duration<double, std::micro>(entry - h->last_return).count());
      }
      ++h->calls;
      {
        [[maybe_unused]] std::conditional_t<kTraced, Span, int> span(kWorkloadNext);
        Spin(kHogUnit);
      }
      h->last_return = Clock::now();
      return Executor::WorkResult::Continue();
    });
  }
  for (std::size_t i = 0; i < blockers.size(); ++i, ++tid) {
    BlockerState* b = &blockers[i];
    exec.AddTask(tid, kBlockerWeight, [b]() -> Executor::WorkResult {
      const auto entry = Clock::now();
      if (b->pending) {
        b->wake_us.push_back(std::chrono::duration<double, std::micro>(entry - b->due).count());
        b->pending = false;
      }
      ++b->calls;
      {
        [[maybe_unused]] std::conditional_t<kTraced, Span, int> span(kWorkloadNext);
        Spin(kBlockerUnit);
      }
      const Tick block_for = Usec(b->rng.UniformInt(kBlockMinUs, kBlockMaxUs));
      b->due = Clock::now() + std::chrono::microseconds(block_for);
      b->pending = true;
      return Executor::WorkResult::Block(block_for);
    });
  }
}

template <class Policy, bool kTraced>
RoundResult RunRound(const std::vector<std::uint64_t>& seeds, int round, bool force_fail) {
  std::vector<HogState> hogs(std::size(kHogWeights));
  std::vector<BlockerState> blockers(kBlockers);
  for (int i = 0; i < kBlockers; ++i) {
    // A fresh stream per round and blocker, a pure function of the seed.
    blockers[static_cast<std::size_t>(i)].rng =
        common::Rng(seeds[static_cast<std::size_t>(i)] + static_cast<std::uint64_t>(round));
  }
  auto scheduler = MakeScheduler<Policy>();
  Executor exec(*scheduler, Executor::Config{});
  AddTasks<kTraced>(exec, hogs, blockers);

  RoundResult r;
  const Tick wall = exec.Run(std::chrono::duration_cast<std::chrono::microseconds>(kRoundWall).count());
  const auto end = Clock::now();
  r.wall_ns = static_cast<double>(wall) * 1000.0;

  bool served = true;
  for (BlockerState& b : blockers) {
    r.slices += b.calls;
    r.wake_us.insert(r.wake_us.end(), b.wake_us.begin(), b.wake_us.end());
    served &= b.wake_us.size() >= 10 && (!b.pending || b.due > end - kServeGrace);
  }
  for (HogState& h : hogs) {
    r.slices += h.calls;
    r.gaps_us.insert(r.gaps_us.end(), h.gaps_us.begin(), h.gaps_us.end());
  }
  for (std::size_t i = 0; i < hogs.size(); ++i) {
    r.hog_cpu.push_back(exec.CpuTime(static_cast<ThreadId>(i)));
  }
  // Every hog's CPU time over hog 1's (weight 1) against its weight ratio.
  const double base = static_cast<double>(r.hog_cpu[1]);
  double ratio_err = 0.0;
  for (std::size_t i = 0; i < hogs.size(); ++i) {
    const double want = kHogWeights[i] / kHogWeights[1];
    const double got = static_cast<double>(r.hog_cpu[i]) / base;
    ratio_err = std::max(ratio_err, std::abs(got / want - 1.0));
  }
  if (force_fail) {
    served = false;
  }
  r.ok = served && ratio_err <= kShareTolerance;
  if (!r.ok || round == 0) {
    Report::Check(served, "round " + std::to_string(round) + ": every blocker served");
    char what[128];
    std::snprintf(what, sizeof(what), "round %d: hog cpu ratios %.3f:%.3f:%.3f within %.0f%%",
                  round, static_cast<double>(r.hog_cpu[0]) / base, 1.0,
                  static_cast<double>(r.hog_cpu[2]) / base, 100 * kShareTolerance);
    Report::Check(ratio_err <= kShareTolerance, what);
  }

  r.dispatches = exec.dispatches();
  r.wakeups = exec.wakeups();
  r.preemptions = exec.preemptions();
  r.kicks = exec.kicks();
  r.sched = ReadSchedCounters(*scheduler);
  r.dispatch_ns = exec.dispatch_latencies();
  r.lock_wait_ns = exec.lock_wait_latencies();
  r.wake_apply_ns = exec.wake_apply_latencies();
  r.w2d_ns = exec.wake_to_dispatch_latencies();
  r.run_slice_ns = exec.run_interval_lengths();
  return r;
}

// Building the scheduler and executor and registering every task.
double SetupSeconds() {
  std::vector<HogState> hogs(std::size(kHogWeights));
  std::vector<BlockerState> blockers(kBlockers);
  const auto start = Clock::now();
  auto scheduler = MakeScheduler<sched::Sfs>();
  Executor exec(*scheduler, Executor::Config{});
  AddTasks<false>(exec, hogs, blockers);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Dispatcher-ns per completed work() call.
double NsPerSlice(const RoundResult& r) {
  return kDispatchers * r.wall_ns / static_cast<double>(r.slices);
}

}  // namespace

std::uint64_t RuntimeInputsDigest(std::uint64_t seed) {
  common::Fnv1a digest;
  for (const std::uint64_t s : BlockerSeeds(seed)) {
    digest.Mix(s);
  }
  return digest.value();
}

void RunRuntimeWorkload(const Options& opts, Report& report) {
  const std::vector<std::uint64_t> seeds = BlockerSeeds(opts.seed);
  if (opts.trace) {
    SpanRegistry::Get().set_clock_cost(CalibrateClock());
  }

  // Wake-latency quantiles per round: a run reports their medians, so one
  // disturbed second moves one round's tail, not the run's.
  std::vector<double> setup, ns, wake_p50, wake_p90, wake_p99, traced_ns, gaps_us;
  RoundResult traced;
  double traced_wall_ns = 0.0;
  double traced_slices = 0.0;
  int traced_rounds = 0;
  int round = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opts.seconds);
  do {
    for (const auto end = Clock::now() + kSetupBatch; Clock::now() < end;) {
      setup.push_back(SetupSeconds());
    }
    const RoundResult r = RunRound<sched::Sfs, false>(seeds, round, opts.force_fail && round == 0);
    ++round;
    report.Attempt(r.ok);
    ns.push_back(NsPerSlice(r));
    wake_p50.push_back(Quantile(r.wake_us, 0.50));
    wake_p90.push_back(Quantile(r.wake_us, 0.90));
    wake_p99.push_back(Quantile(r.wake_us, 0.99));
    if (opts.trace) {
      traced = RunRound<TimedSfs, true>(seeds, round, false);
      ++round;
      report.Attempt(traced.ok);
      traced_ns.push_back(NsPerSlice(traced));
      gaps_us.insert(gaps_us.end(), traced.gaps_us.begin(), traced.gaps_us.end());
      traced_wall_ns += traced.wall_ns;
      traced_slices += static_cast<double>(traced.slices);
      ++traced_rounds;
    }
  } while (Clock::now() < deadline);
  std::printf("rounds %d\n", round);

  const double untraced = FastDecileCost(ns);
  if (!opts.trace) {
    report.Set("ns_per_event", untraced);
    report.Set("setup_s", FastDecileCost(setup));
    report.Set("wake_p50_us", Median(wake_p50));
    report.Set("wake_p90_us", Median(wake_p90));
    return;
  }

  // Layer shares of dispatcher capacity (dispatchers x wall).
  const double capacity_ns = kDispatchers * traced_wall_ns;
  const LayerSums sums = ReportLayers(capacity_ns, traced_rounds, report);
  report.Set("sched.self_ns_per_event", sums.sched_ns / traced_slices);
  report.Set("workload.self_ns_per_event", sums.next_ns / traced_slices);
  ReportSchedCounters(traced.sched, report);
  report.Set("runtime.dispatches", static_cast<double>(traced.dispatches));
  report.Set("runtime.wakeups", static_cast<double>(traced.wakeups));
  report.Set("runtime.preemptions", static_cast<double>(traced.preemptions));
  report.Set("runtime.kicks_per_wakeup",
             static_cast<double>(traced.kicks) /
                 static_cast<double>(std::max<std::int64_t>(1, traced.wakeups)));
  const auto set_hist = [&](const std::string& name, const obs::HistogramSnapshot& h,
                            double scale) {
    report.Set("runtime." + name + ".p50", h.Percentile(50) * scale);
    report.Set("runtime." + name + ".p99", h.Percentile(99) * scale);
  };
  set_hist("dispatch_ns", traced.dispatch_ns, 1.0);
  set_hist("lock_wait_ns", traced.lock_wait_ns, 1.0);
  set_hist("wake_apply_us", traced.wake_apply_ns, 1e-3);
  set_hist("w2d_us", traced.w2d_ns, 1e-3);
  set_hist("run_slice_us", traced.run_slice_ns, 1e-3);
  report.Set("runtime.slice_gap_us.p50", Quantile(gaps_us, 0.50));
  report.Set("runtime.slice_gap_us.p99", Quantile(gaps_us, 0.99));
  const double work_pct = 100.0 * sums.next_ns / capacity_ns;
  report.Set("runtime.work_busy_pct", work_pct);
  report.Set("runtime.unattributed_pct", 100.0 - work_pct - 100.0 * sums.sched_ns / capacity_ns);
  report.Set("workload.wake_p99_us", Median(wake_p99));
  // The rounds are time-boxed, so tracing shows as cost per slice, not as
  // longer walls.
  report.Set("trace.overhead_pct", 100.0 * (FastDecileCost(traced_ns) / untraced - 1.0));
  report.Set("trace.clock_ns_per_event", sums.clock_ns / traced_slices);
  const double unattributed =
      untraced - (sums.sched_ns + sums.next_ns + sums.clock_ns) / traced_slices;
  report.Set("trace.unattributed_ns_per_event", unattributed);
  std::printf("dispatcher ns/slice: sched %.1f, work %.1f, clock reads %.1f; untraced %.1f "
              "leaves %.1f to the runtime and idle\n",
              sums.sched_ns / traced_slices, sums.next_ns / traced_slices,
              sums.clock_ns / traced_slices, untraced, unattributed);
}

}  // namespace sfs::benchmark
