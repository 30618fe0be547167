// The benchmark's workloads.  Each one generates its inputs from the seed,
// hands them to the program, checks the program's outputs and records its
// metrics into a Report (README.md explains the choice of each workload).

#ifndef SFS_BENCHMARK_WORKLOADS_H_
#define SFS_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "benchmark/report.h"

namespace sfs::benchmark {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  // Measured time (a sim workload also runs one unmeasured check round).
  double seconds = 0.0;
  // false: end-to-end metrics; true: per-layer metrics from a traced run.
  bool trace = false;
  // Tests only: corrupts one expected value so the check must fail.
  bool force_fail = false;
};

// The sim workloads: sleepers, hogs, partitioned.
void RunSimWorkload(const Options& opts, Report& report);
void RunRuntimeWorkload(const Options& opts, Report& report);

// FNV-1a digest of the inputs a workload generates from `seed`.
std::uint64_t SimInputsDigest(const std::string& workload, std::uint64_t seed);
std::uint64_t RuntimeInputsDigest(std::uint64_t seed);

}  // namespace sfs::benchmark

#endif  // SFS_BENCHMARK_WORKLOADS_H_
