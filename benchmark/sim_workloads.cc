// The simulated workloads: sleepers, hogs and partitioned.
//
// Each run generates its inputs once from the seed, then repeats whole
// simulations ("rounds") of those inputs until the measured time is spent.
// Round 0 is the check round: unmeasured, it also records response times and
// (hogs) mirrors every lifecycle event into the GMS fluid reference.  Every
// later round must reproduce its schedule fingerprints exactly.  The
// engines are driven only through AddTaskAt / RunUntil / the hooks.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "benchmark/timed_sfs.h"
#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/sched/gms.h"
#include "src/sched/sfs.h"
#include "src/sched/sharded.h"
#include "src/sim/engine.h"
#include "src/sim/parallel_engine.h"
#include "src/sim/task.h"

namespace sfs::benchmark {
namespace {

using sched::CpuId;
using sched::ThreadId;

// ---------------------------------------------------------------------------
// Inputs

struct TaskSpec {
  enum class Kind : std::uint8_t { kHog, kSleeper, kJob };
  Kind kind = Kind::kHog;
  ThreadId tid = 0;
  double weight = 1.0;
  Tick arrival = 0;
  Tick mean_think = 0;  // sleeper: mean of its exponential think times
  Tick work = 0;        // job: CPU time before it exits
  std::uint64_t seed = 0;  // sleeper: its think/burst stream
  CpuId home = sched::kInvalidCpu;
};

struct WeightChange {
  ThreadId tid = 0;
  double weight = 1.0;
};

struct SimInputs {
  int cpus = 16;
  sched::QueueBackend backend = sched::QueueBackend::kSortedList;
  // Partitioned sharded-SFS driven by sim::ParallelEngine (else global SFS
  // driven by sim::Engine).
  bool partitioned = false;
  Tick horizon = 0;
  std::vector<TaskSpec> tasks;
  // Hogs: weight_changes[k] are applied at (k + 1) * weight_period.
  Tick weight_period = 0;
  std::vector<std::vector<WeightChange>> weight_changes;
};

// Worker count of the measured partitioned rounds; W=1 rounds alternate with
// them.  W=2 rather than nproc: on a 4-core host W=4 swung from 340 to 561
// ns/event over the same inputs.
constexpr int kParallelWorkers = 2;

// Each measured round is preceded by set-ups repeated for this long; setup_s
// is the fast decile of all of them (report.h).  One set-up takes 0.2-5 ms,
// too short to time alone against the host's noise.
constexpr auto kSetupBatch = std::chrono::milliseconds(100);

// Bursts of a woken sleeper, uniform in this range of microseconds.
constexpr std::int64_t kBurstMinUs = 200;
constexpr std::int64_t kBurstMaxUs = 800;

// The A12 recipe (two compute hogs plus mostly-blocked sleepers that think
// 2-8 s, then burst), optionally home-hinted to tid % cpus.
void AddSleepers(SimInputs& in, common::Rng& rng, int threads, bool home_hint) {
  ThreadId tid = 1;
  for (int i = 0; i < 2; ++i, ++tid) {
    TaskSpec hog;
    hog.tid = tid;
    hog.weight = static_cast<double>(rng.UniformInt(1, 20));
    in.tasks.push_back(hog);
  }
  for (int i = 2; i < threads; ++i, ++tid) {
    TaskSpec s;
    s.kind = TaskSpec::Kind::kSleeper;
    s.tid = tid;
    s.weight = static_cast<double>(rng.UniformInt(1, 5));
    s.mean_think = Sec(2) + Msec(rng.UniformInt(0, 6000));
    s.arrival = Msec(rng.UniformInt(0, 2000));
    s.seed = rng.Next();
    in.tasks.push_back(s);
  }
  if (home_hint) {
    for (TaskSpec& t : in.tasks) {
      t.home = static_cast<CpuId>(t.tid % in.cpus);
    }
  }
}

bool MakeInputs(const std::string& workload, std::uint64_t seed, SimInputs& in) {
  common::Rng rng(seed);
  if (workload == "sleepers") {
    in.horizon = Sec(30);
    AddSleepers(in, rng, 50000, /*home_hint=*/false);
  } else if (workload == "partitioned") {
    in.partitioned = true;
    in.horizon = Sec(20);
    AddSleepers(in, rng, 20000, /*home_hint=*/true);
  } else if (workload == "hogs") {
    in.backend = sched::QueueBackend::kSkipList;
    // Long enough that the second half, which the GMS check covers, starts
    // after the weight-10^4 hog's start-up lag (about 25 s).
    in.horizon = Sec(60);
    constexpr int kHogs = 2000;
    for (ThreadId tid = 1; tid <= kHogs; ++tid) {
      TaskSpec hog;
      hog.tid = tid;
      // tid 1 asks for more than one CPU's worth: readjustment stays live.
      hog.weight = tid == 1 ? 1e4 : static_cast<double>(rng.UniformInt(1, 20));
      in.tasks.push_back(hog);
    }
    in.weight_period = Msec(50);
    for (Tick at = in.weight_period; at <= in.horizon; at += in.weight_period) {
      std::vector<WeightChange> batch(4);
      for (WeightChange& c : batch) {
        c.tid = static_cast<ThreadId>(rng.UniformInt(2, kHogs));
        c.weight = static_cast<double>(rng.UniformInt(1, 20));
      }
      in.weight_changes.push_back(batch);
    }
    ThreadId tid = kHogs + 1;
    for (Tick at = 0;; ++tid) {
      at += std::max<Tick>(1, static_cast<Tick>(rng.Exponential(static_cast<double>(Msec(25)))));
      if (at >= in.horizon) {
        break;
      }
      TaskSpec job;
      job.kind = TaskSpec::Kind::kJob;
      job.tid = tid;
      job.weight = static_cast<double>(rng.UniformInt(1, 20));
      job.arrival = at;
      job.work = Usec(rng.UniformInt(1000, 20000));
      in.tasks.push_back(job);
    }
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Behaviors: the benchmark's own workload layer, timed as workload.next.

template <bool kTraced, class Step>
sim::Action TimedNext(Step&& step) {
  if constexpr (kTraced) {
    Span span(kWorkloadNext);
    return step();
  } else {
    return step();
  }
}

template <bool kTraced>
class Hog final : public sim::Behavior {
 public:
  sim::Action Next(Tick) override {
    return TimedNext<kTraced>([] { return sim::Action::Compute(kTickInfinity); });
  }
};

// Thinks (blocks) for an exponential time, wakes, computes one burst; the
// response time is from the wake to the burst's completion.
template <bool kTraced>
class Sleeper final : public sim::Behavior {
 public:
  Sleeper(const TaskSpec& spec, std::vector<double>* responses)
      : rng_(spec.seed), mean_think_(static_cast<double>(spec.mean_think)), responses_(responses) {}

  sim::Action Next(Tick now) override {
    return TimedNext<kTraced>([this, now] {
      if (woke_) {
        woke_ = false;
        bursting_ = true;
        return sim::Action::Compute(Usec(rng_.UniformInt(kBurstMinUs, kBurstMaxUs)));
      }
      if (bursting_) {
        bursting_ = false;
        if (responses_ != nullptr) {
          responses_->push_back(static_cast<double>(now - wake_));
        }
      }
      return sim::Action::Block(std::max<Tick>(1, static_cast<Tick>(rng_.Exponential(mean_think_))));
    });
  }
  void OnWake(Tick now) override {
    wake_ = now;
    woke_ = true;
  }

 private:
  common::Rng rng_;
  double mean_think_;
  std::vector<double>* responses_;
  Tick wake_ = 0;
  bool woke_ = false;
  bool bursting_ = false;
};

// Arrives, computes a fixed amount, exits; the response time is from arrival
// to exit.
template <bool kTraced>
class Job final : public sim::Behavior {
 public:
  Job(const TaskSpec& spec, std::vector<double>* responses)
      : arrival_(spec.arrival), work_(spec.work), responses_(responses) {}

  sim::Action Next(Tick now) override {
    return TimedNext<kTraced>([this, now] {
      if (!started_) {
        started_ = true;
        return sim::Action::Compute(work_);
      }
      if (responses_ != nullptr) {
        responses_->push_back(static_cast<double>(now - arrival_));
      }
      return sim::Action::Exit();
    });
  }

 private:
  Tick arrival_;
  Tick work_;
  std::vector<double>* responses_;
  bool started_ = false;
};

template <bool kTraced>
std::unique_ptr<sim::Task> MakeTask(const TaskSpec& spec, std::vector<double>* responses) {
  std::unique_ptr<sim::Behavior> behavior;
  switch (spec.kind) {
    case TaskSpec::Kind::kHog:
      behavior = std::make_unique<Hog<kTraced>>();
      break;
    case TaskSpec::Kind::kSleeper:
      behavior = std::make_unique<Sleeper<kTraced>>(spec, responses);
      break;
    case TaskSpec::Kind::kJob:
      behavior = std::make_unique<Job<kTraced>>(spec, responses);
      break;
  }
  auto task = std::make_unique<sim::Task>(spec.tid, spec.weight, std::move(behavior));
  task->set_home_cpu(spec.home);
  return task;
}

// ---------------------------------------------------------------------------
// One round

// Extra observation for the check round; never changes a decision.
struct Probe {
  std::vector<double>* responses = nullptr;
  sched::GmsReference* gms = nullptr;
};

// One cache line per worker: each is written only by its own worker.
struct alignas(64) WorkerStat {
  std::int64_t events = 0;
  std::int64_t first_cpu_ns = -1;
  std::int64_t last_cpu_ns = 0;
};

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Hook-observed events of one worker; its thread CPU time is sampled every
// 256 of them (a syscall per event would swamp the worker).
void CountWorkerEvent(WorkerStat& w) {
  if ((w.events++ & 255) == 0) {
    w.last_cpu_ns = ThreadCpuNs();
    if (w.first_cpu_ns < 0) {
      w.first_cpu_ns = w.last_cpu_ns;
    }
  }
}

// One cache line per shard group: at W=2 each group's hashes are written
// only by the worker that owns its CPUs.
struct alignas(64) GroupFingerprints {
  common::Fnv1a run;
  common::Fnv1a life;
};

struct RoundResult {
  double setup_s = 0.0;
  double run_ns = 0.0;
  std::int64_t events = 0;
  std::int64_t dispatches = 0;
  std::int64_t preemptions = 0;
  std::int64_t context_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t epochs = 0;
  std::int64_t mailed_wakeups = 0;
  SchedCounters sched;
  // Schedule and lifecycle FNV-1a per shard group: group g = the CPUs worker
  // g owns at kParallelWorkers workers (one group for the global workloads).
  std::vector<std::uint64_t> schedule_fps;
  std::vector<std::uint64_t> lifecycle_fps;
  // Capacity identity: service + idle must equal p * horizon.
  Tick accounted = 0;
  Tick capacity = 0;
  // Check round of hogs: max |service - GMS service| over the hogs.
  double gms_max_dev = 0.0;
  std::vector<WorkerStat> workers;
};

// `workers` == 0 drives sim::Engine, otherwise sim::ParallelEngine.
// `setup_only` stops after the set-up, leaving only r.setup_s.
template <class Policy, bool kTraced>
RoundResult RunRound(const SimInputs& in, int workers, const Probe& probe,
                     bool setup_only = false) {
  RoundResult r;
  const int groups = in.partitioned ? kParallelWorkers : 1;
  std::vector<GroupFingerprints> fps(static_cast<std::size_t>(groups));
  auto group_of = [groups, cpus = in.cpus](CpuId cpu) {
    return static_cast<std::size_t>(((cpu + 1) * groups - 1) / cpus);
  };
  r.workers.resize(static_cast<std::size_t>(std::max(1, workers)));

  const auto setup_start = Clock::now();
  sched::SchedConfig config;
  config.num_cpus = in.cpus;
  config.queue_backend = in.backend;
  std::unique_ptr<sched::Scheduler> scheduler;
  if (in.partitioned) {
    // Stealing, rebalancing and coupling off: the configuration in which the
    // parallel engine is exact, so W=2 groups must equal W=1 groups.
    config.shard_steal = sched::ShardStealPolicy::kNone;
    config.shard_rebalance_period = 0;
    config.shard_coupling = 0.0;
    scheduler = std::make_unique<sched::Sharded<Policy>>(config);
  } else {
    scheduler = std::make_unique<Policy>(config);
  }

  auto drive = [&](auto& engine) {
    using EngineT = std::remove_reference_t<decltype(engine)>;
    constexpr bool kParallel = std::is_same_v<EngineT, sim::ParallelEngine>;
    engine.ReserveTasks(in.tasks.size());
    auto on_run = [&](Tick start, Tick len, CpuId cpu, ThreadId tid) {
      common::Fnv1a& fp = fps[group_of(cpu)].run;
      fp.Mix(static_cast<std::uint64_t>(start));
      fp.Mix(static_cast<std::uint64_t>(len));
      fp.Mix(static_cast<std::uint64_t>(cpu));
      fp.Mix(static_cast<std::uint64_t>(tid));
    };
    auto on_event = [&](sim::SchedEvent event, const sim::Task& task, Tick now) {
      common::Fnv1a& fp = fps[in.partitioned ? group_of(task.home_cpu()) : 0].life;
      fp.Mix(static_cast<std::uint64_t>(event));
      fp.Mix(static_cast<std::uint64_t>(task.tid()));
      fp.Mix(static_cast<std::uint64_t>(now));
      if (probe.gms != nullptr) {
        switch (event) {
          case sim::SchedEvent::kArrival:
            probe.gms->AddThread(task.tid(), task.weight(), now);
            break;
          case sim::SchedEvent::kDeparture:
            probe.gms->RemoveThread(task.tid(), now);
            break;
          case sim::SchedEvent::kBlock:
            probe.gms->Block(task.tid(), now);
            break;
          case sim::SchedEvent::kWakeup:
            probe.gms->Wakeup(task.tid(), now);
            break;
        }
      }
    };
    if constexpr (kParallel) {
      const bool count_workers = kTraced && workers > 1;
      engine.SetRunIntervalHook([&, count_workers](int w, Tick start, Tick len, CpuId cpu,
                                                   ThreadId tid) {
        on_run(start, len, cpu, tid);
        if (count_workers) {
          CountWorkerEvent(r.workers[static_cast<std::size_t>(w)]);
        }
      });
      engine.SetSchedEventHook([&, count_workers](int w, sim::SchedEvent event,
                                                  const sim::Task& task, Tick now) {
        on_event(event, task, now);
        if (count_workers) {
          CountWorkerEvent(r.workers[static_cast<std::size_t>(w)]);
        }
      });
    } else {
      engine.SetRunIntervalHook(on_run);
      engine.SetSchedEventHook(on_event);
      if (!in.weight_changes.empty()) {
        engine.AddPeriodicHook(in.weight_period, [&](sim::Engine& e) {
          const auto k = static_cast<std::size_t>(e.now() / in.weight_period - 1);
          for (const WeightChange& c : in.weight_changes[k]) {
            e.scheduler().SetWeight(c.tid, c.weight);
            if (probe.gms != nullptr) {
              probe.gms->SetWeight(c.tid, c.weight, e.now());
            }
          }
        });
      }
    }
    for (const TaskSpec& spec : in.tasks) {
      engine.AddTaskAt(spec.arrival, MakeTask<kTraced>(spec, probe.responses));
    }
    r.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();
    if (setup_only) {
      return;
    }

    const auto run_start = Clock::now();
    std::vector<double> mid_dev;
    if (probe.gms != nullptr) {
      // Fairness is judged over the second half: the first includes SFS's
      // start-up lag behind GMS, up to one quantum of every other thread.
      engine.RunUntil(in.horizon / 2);
      probe.gms->AdvanceTo(engine.now());
      for (const TaskSpec& spec : in.tasks) {
        if (spec.kind == TaskSpec::Kind::kHog) {
          mid_dev.push_back(static_cast<double>(engine.ServiceIncludingRunning(spec.tid)) -
                            probe.gms->Service(spec.tid));
        }
      }
    }
    engine.RunUntil(in.horizon);
    r.run_ns = std::chrono::duration<double, std::nano>(Clock::now() - run_start).count();

    r.events = engine.events_processed();
    r.dispatches = engine.dispatches();
    r.preemptions = engine.preemptions();
    r.context_switches = engine.context_switches();
    r.migrations = engine.migrations();
    if constexpr (kParallel) {
      r.epochs = engine.epochs();
      r.mailed_wakeups = engine.mailed_wakeups();
    }
    Tick service = 0;
    engine.ForEachTask(
        [&](const sim::Task& t) { service += engine.ServiceIncludingRunning(t.tid()); });
    r.accounted = service + engine.idle_time();
    r.capacity = static_cast<Tick>(in.cpus) * engine.now();
    if (probe.gms != nullptr) {
      probe.gms->AdvanceTo(engine.now());
      std::size_t i = 0;
      for (const TaskSpec& spec : in.tasks) {
        if (spec.kind == TaskSpec::Kind::kHog) {
          const double dev = static_cast<double>(engine.ServiceIncludingRunning(spec.tid)) -
                             probe.gms->Service(spec.tid) - mid_dev[i++];
          r.gms_max_dev = std::max(r.gms_max_dev, std::abs(dev));
        }
      }
    }
  };
  if (workers == 0) {
    sim::Engine engine(*scheduler);
    drive(engine);
  } else {
    sim::ParallelEngineConfig engine_config;
    engine_config.workers = workers;
    sim::ParallelEngine engine(*scheduler, engine_config);
    drive(engine);
  }

  r.sched = ReadSchedCounters(*scheduler);
  for (const GroupFingerprints& g : fps) {
    r.schedule_fps.push_back(g.run.value());
    r.lifecycle_fps.push_back(g.life.value());
  }
  return r;
}

// GMS bound for hogs: over the second half of the horizon, every hog's
// service is within this many default quanta of its fluid GMS service.
// (Measured: 0.45-0.57 s = 2.2-2.9 quanta on seeds 1-4.)  The first half is
// excluded because SFS starts every hog at tag 0, so the weight-10^4 hog
// first waits for one quantum of every other hog: about n*q/p = 25 s behind
// GMS, the SFQ delay bound.
constexpr double kGmsBoundQuanta = 5.0;

// Checks a measured round against the check round.
bool SameSchedule(const RoundResult& check, const RoundResult& r, const char* what,
                  bool force_fail) {
  std::vector<std::uint64_t> expected = check.schedule_fps;
  if (force_fail) {
    expected[0] ^= 1;
  }
  const bool ok = r.schedule_fps == expected && r.lifecycle_fps == check.lifecycle_fps &&
                  r.events == check.events && r.dispatches == check.dispatches &&
                  r.accounted == r.capacity;
  if (!ok) {
    Report::Check(false, std::string(what) + " round reproduces the check round");
  }
  return ok;
}

void PrintFingerprints(const RoundResult& r) {
  for (std::size_t g = 0; g < r.schedule_fps.size(); ++g) {
    std::printf("fingerprint group %zu schedule %s lifecycle %s\n", g,
                common::FingerprintHex(r.schedule_fps[g]).c_str(),
                common::FingerprintHex(r.lifecycle_fps[g]).c_str());
  }
}

double NsPerEvent(const RoundResult& r) { return r.run_ns / static_cast<double>(r.events); }

}  // namespace

std::uint64_t SimInputsDigest(const std::string& workload, std::uint64_t seed) {
  SimInputs in;
  if (!MakeInputs(workload, seed, in)) {
    return 0;
  }
  common::Fnv1a fp;
  for (const TaskSpec& t : in.tasks) {
    for (const std::uint64_t x :
         {static_cast<std::uint64_t>(t.kind), static_cast<std::uint64_t>(t.tid),
          static_cast<std::uint64_t>(t.weight), static_cast<std::uint64_t>(t.arrival),
          static_cast<std::uint64_t>(t.mean_think), static_cast<std::uint64_t>(t.work), t.seed,
          static_cast<std::uint64_t>(t.home)}) {
      fp.Mix(x);
    }
  }
  for (const auto& batch : in.weight_changes) {
    for (const WeightChange& c : batch) {
      fp.Mix(static_cast<std::uint64_t>(c.tid));
      fp.Mix(static_cast<std::uint64_t>(c.weight));
    }
  }
  return fp.value();
}

void RunSimWorkload(const Options& opts, Report& report) {
  SimInputs in;
  if (!MakeInputs(opts.workload, opts.seed, in)) {
    return;
  }
  const int measured_workers = in.partitioned ? kParallelWorkers : 0;

  // Check round: serial (W=1 for partitioned), unmeasured, fully probed.
  std::vector<double> responses;
  sched::GmsReference gms(in.cpus);
  Probe probe;
  probe.responses = &responses;
  probe.gms = in.weight_changes.empty() ? nullptr : &gms;
  const RoundResult check =
      RunRound<sched::Sfs, false>(in, in.partitioned ? 1 : 0, probe);
  PrintFingerprints(check);
  bool ok = Report::Check(check.accounted == check.capacity,
                          "service + idle == p * horizon (" + std::to_string(check.capacity) +
                              " ticks)");
  ok &= Report::Check(!responses.empty(), "responses recorded (" +
                                               std::to_string(responses.size()) + ")");
  if (probe.gms != nullptr) {
    char what[128];
    std::snprintf(what, sizeof(what), "hog GMS deviation over 2nd half %.1f ms <= %.0f quanta",
                  check.gms_max_dev / 1000.0, kGmsBoundQuanta);
    ok &= Report::Check(check.gms_max_dev <= kGmsBoundQuanta * kDefaultQuantum, what);
  }
  report.Attempt(ok);

  if (opts.trace) {
    SpanRegistry::Get().set_clock_cost(CalibrateClock());
  }
  std::vector<double> ns, setup, w1_ns, traced_ns;
  RoundResult traced;
  double traced_run_ns = 0.0;
  int traced_rounds = 0;
  bool force_fail = opts.force_fail;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opts.seconds);
  do {
    for (const auto end = Clock::now() + kSetupBatch; Clock::now() < end;) {
      setup.push_back(RunRound<sched::Sfs, false>(in, measured_workers, {}, true).setup_s);
    }
    const RoundResult r = RunRound<sched::Sfs, false>(in, measured_workers, {});
    report.Attempt(SameSchedule(check, r, "measured", force_fail));
    force_fail = false;
    ns.push_back(NsPerEvent(r));
    if (in.partitioned) {
      const RoundResult w1 = RunRound<sched::Sfs, false>(in, 1, {});
      report.Attempt(SameSchedule(check, w1, "W=1", false));
      w1_ns.push_back(NsPerEvent(w1));
    }
    if (opts.trace) {
      traced = RunRound<TimedSfs, true>(in, measured_workers, {});
      report.Attempt(SameSchedule(check, traced, "traced", false));
      traced_ns.push_back(NsPerEvent(traced));
      traced_run_ns += traced.run_ns;
      ++traced_rounds;
    }
  } while (Clock::now() < deadline);
  std::printf("rounds %zu, check-round events %lld\n", ns.size(),
              static_cast<long long>(check.events));

  const double untraced = FastDecileCost(ns);
  if (!opts.trace) {
    report.Set("ns_per_event", untraced);
    report.Set("setup_s", FastDecileCost(setup));
    report.Set("wake_p50_us", Quantile(responses, 0.50));
    report.Set("wake_p90_us", Quantile(responses, 0.90));
    return;
  }

  // Per-layer metrics over the traced rounds.  Worker time is wall time times
  // the simulation threads, so layer shares of a W=2 round add to 100%.
  const double threads = std::max(1, measured_workers);
  const double worker_ns = threads * traced_run_ns;
  const double events = static_cast<double>(check.events) * traced_rounds;
  const LayerSums sums = ReportLayers(worker_ns, traced_rounds, report);
  const double sim_self = (worker_ns - sums.sched_ns - sums.next_ns - sums.clock_ns) / events;
  report.Set("sched.self_ns_per_event", sums.sched_ns / events);
  report.Set("workload.self_ns_per_event", sums.next_ns / events);
  report.Set("sim.self_ns_per_event", sim_self);
  ReportSchedCounters(traced.sched, report);
  report.Set("sim.events", static_cast<double>(traced.events));
  report.Set("sim.dispatches", static_cast<double>(traced.dispatches));
  report.Set("sim.preemptions", static_cast<double>(traced.preemptions));
  report.Set("sim.context_switches", static_cast<double>(traced.context_switches));
  report.Set("sim.migrations", static_cast<double>(traced.migrations));
  report.Set("workload.wake_p99_us", Quantile(responses, 0.99));
  report.Set("trace.overhead_pct", 100.0 * (FastDecileCost(traced_ns) / untraced - 1.0));
  report.Set("trace.clock_ns_per_event", sums.clock_ns / events);
  // What the traced layer self times leave unexplained of the untraced
  // end-to-end cost (negative: tracing slowed the layers beyond its clock
  // reads).
  const double unattributed = threads * untraced - (worker_ns - sums.clock_ns) / events;
  report.Set("trace.unattributed_ns_per_event", unattributed);
  std::printf("self ns/event: sched %.1f, workload %.1f, sim %.1f, clock reads %.1f; "
              "untraced %.1f x %g threads leaves %.1f unattributed\n",
              sums.sched_ns / events, sums.next_ns / events, sim_self, sums.clock_ns / events,
              untraced, threads, unattributed);
  if (in.partitioned) {
    report.Set("parallel.epochs", static_cast<double>(traced.epochs));
    report.Set("parallel.mailed_wakeups", static_cast<double>(traced.mailed_wakeups));
    report.Set("parallel.w1_ns_per_event", FastDecileCost(w1_ns));
    report.Set("parallel.speedup_vs_w1", FastDecileCost(w1_ns) / untraced);
    for (std::size_t w = 0; w < traced.workers.size(); ++w) {
      const WorkerStat& s = traced.workers[w];
      const std::string p = "parallel.worker." + std::to_string(w);
      report.Set(p + ".events", static_cast<double>(s.events));
      report.Set(p + ".busy_pct",
                 100.0 * static_cast<double>(s.last_cpu_ns - s.first_cpu_ns) / traced.run_ns);
    }
  }
}

}  // namespace sfs::benchmark
