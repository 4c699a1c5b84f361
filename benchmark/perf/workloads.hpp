// The four workloads (README.md says why each exists). Each runs in its own
// process, generates every input from Options::seed before its clock
// starts, and fills one Result.
//
// Untraced runs (Options::trace false) report the end-to-end metrics. A
// traced run measures the same load for half its time untraced, then the
// other half with the tracer on, and reports the per-layer metrics: the
// self-time ledger from the spans, the request ledger, the layer probes,
// and trace.overhead (traced ÷ untraced p50).
#pragma once

#include <vector>

#include "harness.hpp"

namespace perf {

void run_zoo_infer(const Options& opt, Result& r);
void run_train_step(const Options& opt, Result& r);
void run_serve_light(const Options& opt, Result& r);
void run_fleet_mixed(const Options& opt, Result& r);

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_ips = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double slo_met_share = 0.0;
};
void emit_end_to_end(const EndToEnd& e, Result& r);

/// The log of a closed loop (zoo_infer rounds, train_step steps).
struct ClosedLoop {
  std::vector<Stamped> ops;  ///< completion time, latency (ms)
  std::int64_t failed = 0;   ///< ops whose output check failed
  std::int64_t slo_met = 0;  ///< correct ops within the latency SLO
  double wall_s = 0.0;
  double cpu_s = 0.0;

  void add(double t_s, double ms, bool ok, double deadline_ms) {
    ops.push_back(Stamped{t_s, ms});
    if (!ok) ++failed;
    if (ok && ms <= deadline_ms) ++slo_met;
  }
  /// Windowed p50/p99, windowed throughput, SLO share.
  EndToEnd end_to_end(double setup_s, double images_per_op) const;
};

/// Tracer ring capacity of a traced phase (~64 MiB of spans); stop_tracing
/// fails the run if the phase overflowed it.
constexpr std::int64_t kTraceCapacity = std::int64_t{1} << 19;
/// Longest traced phase. serve_light, at ~100 000 spans/s, caps its traced
/// phase at kTracedSecondsServing to stay inside the ring.
constexpr double kTracedSecondsMax = 5.0;
constexpr double kTracedSecondsServing = 3.0;

}  // namespace perf
