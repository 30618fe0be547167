// sched::Sfs with every policy hook timed into the benchmark's spans, and
// the scheduler's public counters.
//
// Overrides exactly the virtual hooks that sched::Scheduler's public entry
// points reach (PickNext, Charge, Wakeup, Block, AddThread, RemoveThread,
// SetWeight, SuggestPreemption) and forwards each to sched::Sfs, so the
// schedule is the untimed one: the traced run asserts equal fingerprints.
// Under sched::Sharded<TimedSfs> every shard is a TimedSfs, so the spans
// time the per-shard policy work; the sharded layer's own bookkeeping stays
// in its caller's time.

#ifndef SFS_BENCHMARK_TIMED_SFS_H_
#define SFS_BENCHMARK_TIMED_SFS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "benchmark/report.h"
#include "benchmark/trace.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"

namespace sfs::benchmark {

class TimedSfs : public sched::Sfs {
 public:
  using sched::Sfs::Sfs;

  sched::CpuId SuggestPreemption(sched::ThreadId woken,
                                 const std::vector<Tick>& elapsed) override {
    Span span(kSuggestPreempt);
    return Sfs::SuggestPreemption(woken, elapsed);
  }

 protected:
  void OnAdmit(sched::Entity& e) override {
    Span span(kAdmit);
    Sfs::OnAdmit(e);
  }
  void OnRemove(sched::Entity& e) override {
    Span span(kRemove);
    Sfs::OnRemove(e);
  }
  void OnBlocked(sched::Entity& e) override {
    Span span(kBlock);
    Sfs::OnBlocked(e);
  }
  void OnWoken(sched::Entity& e) override {
    Span span(kWakeup);
    Sfs::OnWoken(e);
  }
  void OnWeightChanged(sched::Entity& e, sched::Weight old_weight) override {
    Span span(kSetWeight);
    Sfs::OnWeightChanged(e, old_weight);
  }
  sched::Entity* PickNextEntity(sched::CpuId cpu) override {
    Span span(kPick);
    return Sfs::PickNextEntity(cpu);
  }
  void OnCharge(sched::Entity& e, Tick ran_for) override {
    Span span(kCharge);
    Sfs::OnCharge(e, ran_for);
  }
};

// The scheduler's public counters, summed over the shards of a sharded
// scheduler (every policy here is sched::Sfs or derived from it).
struct SchedCounters {
  std::int64_t decisions = 0;
  std::int64_t full_refreshes = 0;
  std::int64_t refresh_repositions = 0;
  std::int64_t rebases = 0;
  std::int64_t steals = 0;
};

inline SchedCounters ReadSchedCounters(const sched::Scheduler& scheduler) {
  SchedCounters c;
  c.steals = scheduler.steals();
  auto add = [&c](const sched::Scheduler& s) {
    const auto& sfs = dynamic_cast<const sched::Sfs&>(s);
    c.decisions += sfs.decisions();
    c.full_refreshes += sfs.full_refreshes();
    c.refresh_repositions += sfs.refresh_repositions();
    c.rebases += sfs.rebases();
  };
  if (const auto* sharded = dynamic_cast<const sched::ShardedScheduler*>(&scheduler)) {
    for (sched::CpuId cpu = 0; cpu < scheduler.num_cpus(); ++cpu) {
      add(sharded->shard(cpu));
    }
  } else {
    add(scheduler);
  }
  return c;
}

inline void ReportSchedCounters(const SchedCounters& c, Report& report) {
  report.Set("sched.decisions", static_cast<double>(c.decisions));
  report.Set("sched.full_refreshes", static_cast<double>(c.full_refreshes));
  report.Set("sched.refresh_repositions", static_cast<double>(c.refresh_repositions));
  report.Set("sched.rebases", static_cast<double>(c.rebases));
  report.Set("sched.steals", static_cast<double>(c.steals));
  report.Set("sched.repositions_per_pick",
             static_cast<double>(c.refresh_repositions) /
                 static_cast<double>(std::max<std::int64_t>(1, c.decisions)));
}

}  // namespace sfs::benchmark

#endif  // SFS_BENCHMARK_TIMED_SFS_H_
