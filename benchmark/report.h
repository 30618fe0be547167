// What one benchmark run prints: per-operation checks, counted against
// attempts, and the named metrics, as a single JSON object on the last
// stdout line.

#ifndef SFS_BENCHMARK_REPORT_H_
#define SFS_BENCHMARK_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sfs::benchmark {

// (name, unit) in print order.
using MetricList = std::vector<std::pair<std::string, std::string>>;

// The metrics of an untraced run; every workload sets all of them.
const MetricList& EndToEndMetrics();
// The metrics of a traced run.  A workload without a layer leaves its
// metrics unset and they print as 0 (the sim workloads do not link the
// runtime; only partitioned runs the parallel engine).
const MetricList& PerLayerMetrics();

class Report {
 public:
  // Records one checked operation (a simulation round or an executor run).
  void Attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  // Prints one named check of the current operation; returns `ok`.
  static bool Check(bool ok, const std::string& what);

  void Set(const std::string& name, double value) { values_[name] = value; }

  // Prints the final line over `list`.  Returns false (printing nothing) if
  // `require_all` and a metric was never set.
  bool Print(const MetricList& list, bool require_all) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// Quantile of exact samples by linear interpolation between order statistics
// (q in [0, 1]); empty -> 0.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// A run's host-speed figure over its samples: the fast decile (the 10th
// percentile of per-round costs, or of set-up times).  The host's
// memory-contention phases last seconds and slow every round inside them, so
// a run's median moves with the phase it happened to land in; its fastest
// rounds move far less.
inline double FastDecileCost(std::vector<double> v) { return Quantile(std::move(v), 0.1); }

}  // namespace sfs::benchmark

#endif  // SFS_BENCHMARK_REPORT_H_
