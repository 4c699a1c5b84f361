// Load generation against a FleetScheduler, and the request ledger.
//
// Open loop: the calling thread submits each request at its scheduled time
// while one collector thread polls the outstanding futures, so a stall is
// charged to every request due during it. Client latency runs from the
// scheduled send time to the moment the collector sees the future resolved,
// and splits exactly into
//
//   late (generator behind schedule) + submit (inside FleetScheduler::submit)
//   + queue (Response.queue_us) + model (latency_us - queue_us)
//   + delivery (the rest: output slicing, promise hand-off, collector wake-up)
//
// Window: one thread keeps a fixed number of requests outstanding (a closed
// loop), the saturation probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/fleet.hpp"

namespace perf {

struct Arrival {
  double due_us = 0.0;  ///< offset from the phase start (open loop)
  int tenant = 0;
  int image = 0;        ///< index into the tenant's image pool
  std::chrono::microseconds deadline{0};  ///< the request's SLO budget
  /// Submit with `deadline` instead of the tenant's default.
  bool own_deadline = false;
};

struct Outcome {
  int tenant = 0;
  iwg::serve::Status status = iwg::serve::Status::kShutdown;
  bool wrong = false;  ///< a sampled output failed its check
  double due_s = 0.0;  ///< scheduled send time from the phase start
  double late_us = 0.0;
  double submit_us = 0.0;
  double client_us = 0.0;
  double queue_us = 0.0;
  double latency_us = 0.0;
  std::int64_t batch_size = 0;
  double deadline_us = 0.0;

  bool ok() const { return status == iwg::serve::Status::kOk && !wrong; }
  bool slo_met() const { return ok() && client_us <= deadline_us; }
};

/// The tenants one load drives: ids and per-tenant image pools.
struct Traffic {
  std::vector<std::string> ids;
  std::vector<std::vector<iwg::TensorF>> pools;
};

/// Output correctness of one served request (bitwise against an offline
/// reference). Every `kCheckEvery`-th request of a run is checked.
using Checker = std::function<bool(const Arrival&, const iwg::TensorF&)>;
constexpr std::int64_t kCheckEvery = 64;

/// Shared across the phases of one run: the request counter that picks
/// which responses are checked, and the one-shot corruption switch.
struct CheckState {
  Checker check;
  std::int64_t next = 0;
  bool corrupt = false;  ///< damage the next checked output, once

  /// Checks output `y` if request `next` is sampled; returns false when a
  /// sampled output is wrong.
  bool sample(const Arrival& a, iwg::TensorF& y);
};

/// Submit `arrivals` on schedule; one Outcome per arrival.
std::vector<Outcome> run_open_loop(iwg::serve::FleetScheduler& fleet,
                                   const Traffic& traffic,
                                   const std::vector<Arrival>& arrivals,
                                   CheckState& checks);

/// A closed-loop window run. Only completions are kept (stamped client
/// latency), so memory does not grow with the achieved throughput.
struct WindowRun {
  std::vector<Stamped> ok_ms;  ///< completion time, client latency (ms)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  ///< sampled outputs that failed their check
  double wall_s = 0.0;
};

/// Keep `window` requests outstanding from one thread for `seconds`,
/// cycling through `pattern`. Client latency is measured from submit.
WindowRun run_window(iwg::serve::FleetScheduler& fleet, const Traffic& traffic,
                     const std::vector<Arrival>& pattern, int window,
                     double seconds, CheckState& checks);

/// Poisson arrival times (seconds from the phase start) at `rate` per
/// second over [0, seconds): independent users.
std::vector<double> poisson_times(double rate, double seconds, iwg::Rng& rng);

/// Single-tenant Poisson arrivals, each for a uniformly drawn pool image.
std::vector<Arrival> poisson_arrivals(double rate, double seconds,
                                      std::chrono::microseconds deadline,
                                      int pool_size, std::uint64_t seed);

/// Add a phase's requests to the run's tallies; a wrong output fails the
/// run's checks.
void tally(const std::vector<Outcome>& outs, Result& r);
void tally(const WindowRun& w, Result& r);

/// Client-side summary of one open-loop phase whose arrivals spanned
/// `span_s` seconds: windowed p50/p99 of the served requests' client
/// latency, goodput (served OK per second of arrivals), and the SLO share
/// over all attempted.
struct RequestSummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double slo_met_share = 0.0;
  double ok_per_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};
RequestSummary summarize(const std::vector<Outcome>& outs, double span_s);

/// The request ledger and scheduler counters (per-layer metrics).
void emit_request_ledger(const std::vector<Outcome>& outs, Result& r);

/// serve.indirect_share: ragged (indirect) batches over all batches the
/// fleet has dispatched.
void emit_fleet_counters(const iwg::serve::FleetScheduler& fleet, Result& r);

/// Detail metrics of one phase for the record (`phase.<name>.*`).
void emit_phase(const std::string& name, const std::vector<Outcome>& outs,
                double span_s, Result& r);
void emit_phase(const std::string& name, const WindowRun& w, Result& r);

/// Per-layer serving metrics that a workload without a serving layer
/// reports as zero shares (BENCHMARK.json lists every metric for every
/// workload).
void emit_no_serving(Result& r, double images_per_call);

/// GET `path` from 127.0.0.1:`port`; returns the body. Throws on failure.
std::string http_get(std::uint16_t port, const std::string& path);

}  // namespace perf
