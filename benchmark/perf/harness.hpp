// Shared vocabulary of the benchmark workloads: options, the result record,
// order statistics and process accounting.
//
// A workload fills one Result: named metrics with units, plus the tallies
// of its correctness checks. main() prints it as one JSON object; run.py
// picks the metrics BENCHMARK.json names and keeps the rest in the record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of one run, split across phases
  bool trace = false;     ///< per-layer run: untraced half + traced half
  bool corrupt = false;   ///< damage one checked output (check self-test)
  std::string scratch;    ///< directory for weight files (inside the checkout)
  std::string trace_out;  ///< Chrome trace JSON path (trace runs; optional)
};

/// One run's output.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed check (the first few reasons are kept for the report).
  void fail(const std::string& why);
  bool correct() const { return failures_ == 0; }

  std::int64_t attempted = 0;  ///< operations attempted
  std::int64_t failed = 0;     ///< operations that did not complete correctly

  std::string json(const Options& opt) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::int64_t failures_ = 0;
  std::vector<std::string> reasons_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// A sample stamped with its time from the start of its phase.
struct Stamped {
  double t_s;
  double v;
};

/// Latencies and rates are computed per time window of a phase and the
/// median over the windows is reported, so a host stall that hits a few
/// windows does not move the run's number. Rates use kRateWindows windows;
/// a quantile uses one window per kSamplesPerWindow samples, at most
/// kMaxWindows.
constexpr int kRateWindows = 5;
constexpr std::size_t kSamplesPerWindow = 250;
constexpr int kMaxWindows = 20;

/// Median over the windows of [0, span_s) of each window's q-quantile of v
/// (windows without samples are skipped).
double windowed_quantile(const std::vector<Stamped>& xs, double span_s,
                         double q);
/// Median over the windows of each window's Σv per second.
double windowed_rate(const std::vector<Stamped>& xs, double span_s);

/// Median wall time of `reps` calls of `once`.
double median_seconds(int reps, const std::function<void()>& once);

/// Set up `reps` times (set-up time is noisy at the millisecond scale):
/// `seconds` gets the median time of `build()` and the last object built is
/// returned. Each earlier object is destroyed before the next build starts
/// its clock, so teardown never counts as set-up and only one copy is ever
/// resident.
template <typename F>
auto median_setup(int reps, double& seconds, F&& build) {
  std::optional<decltype(build())> built;
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    built.reset();
    const Clock::time_point t0 = Clock::now();
    built.emplace(build());
    t.push_back(seconds_since(t0));
  }
  seconds = quantile(t, 0.5);
  return std::move(*built);
}

/// Peak resident set of this process (ru_maxrss), MiB.
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double cpu_seconds();

/// Relative L2 distance ||a - b|| / ||b||.
double rel_l2(const iwg::TensorF& a, const iwg::TensorF& b);
bool bitwise_equal(const iwg::TensorF& a, const iwg::TensorF& b);

/// A uniform [-1, 1] tensor, deterministic in `seed`.
iwg::TensorF random_tensor(const std::vector<std::int64_t>& dims,
                           std::uint64_t seed);

/// One H×W×C image as a batch-1 N×H×W×C tensor (offline references).
iwg::TensorF as_batch(const iwg::TensorF& image);

/// Hardware threads, the denominator of process.cpu_util.
unsigned hardware_threads();

/// process.cpu_util of a phase that took `cpu_s` CPU over `wall_s`.
void emit_cpu_util(Result& r, double cpu_s, double wall_s);

}  // namespace perf
