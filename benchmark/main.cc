// sfs_benchmark: one workload per process.
//
//   sfs_benchmark --workload <sleepers|hogs|partitioned|runtime>
//                 [--seed N] [--seconds S] [--trace 0|1]
//
// Prints check lines and schedule fingerprints, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.  Exit code 0
// iff the run completed (a failed check still exits 0 and reports
// "correct": false); 2 on bad usage.
//
// Test hooks: --force-fail makes the first measured check fail;
// --inputs-digest prints the digest of the generated inputs and exits.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchmark/report.h"
#include "benchmark/workloads.h"
#include "src/common/fingerprint.h"

namespace {

// Documented default.  Seed 1009 is held out: no tuning of this benchmark
// used it, and a later change confirms a claimed gain on it.
constexpr std::uint64_t kDefaultSeed = 1;
// BENCHMARK.json's run_seconds, at which the spreads in README.md were measured.
constexpr double kDefaultSeconds = 25.0;

int Usage() {
  std::fprintf(stderr,
               "usage: sfs_benchmark --workload <sleepers|hogs|partitioned|runtime> "
               "[--seed N (default 1)] [--seconds 1..150 (default 25)] [--trace 0|1] "
               "[--force-fail] [--inputs-digest]\n");
  return 2;
}

bool ParseUint(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sfs::benchmark::Options opts;
  opts.seed = kDefaultSeed;
  opts.seconds = kDefaultSeconds;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value && ParseUint(argv[i + 1], &v)) {
      opts.seed = v;
      ++i;
    } else if (arg == "--seconds" && has_value && ParseUint(argv[i + 1], &v) && v >= 1 &&
               v <= 150) {
      opts.seconds = static_cast<double>(v);
      ++i;
    } else if (arg == "--trace" && has_value && ParseUint(argv[i + 1], &v) && v <= 1) {
      opts.trace = v == 1;
      ++i;
    } else if (arg == "--force-fail") {
      opts.force_fail = true;
    } else if (arg == "--inputs-digest") {
      digest = true;
    } else {
      return Usage();
    }
  }
  if (opts.workload != "sleepers" && opts.workload != "hogs" &&
      opts.workload != "partitioned" && opts.workload != "runtime") {
    return Usage();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (digest) {
    const std::uint64_t value = opts.workload == "runtime"
                                    ? sfs::benchmark::RuntimeInputsDigest(opts.seed)
                                    : sfs::benchmark::SimInputsDigest(opts.workload, opts.seed);
    std::printf("%s\n", sfs::common::FingerprintHex(value).c_str());
    return 0;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  sfs::benchmark::Report report;
  if (opts.workload == "runtime") {
    sfs::benchmark::RunRuntimeWorkload(opts, report);
  } else {
    sfs::benchmark::RunSimWorkload(opts, report);
  }
  if (!opts.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  const bool printed = opts.trace ? report.Print(sfs::benchmark::PerLayerMetrics(), false)
                                  : report.Print(sfs::benchmark::EndToEndMetrics(), true);
  return printed ? 0 : 1;
}
