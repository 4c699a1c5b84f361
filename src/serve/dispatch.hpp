// Micro-batch execution for the serving layer.
//
// FleetScheduler assembles a tenant's batch; run_model_batch executes it:
// stage the requests' images, run ONE model dispatch (a dense batch tensor
// when every image has one shape, otherwise one ragged indirect dispatch),
// slice per-request outputs back out, and resolve every promise kOk with
// queue/latency accounting. A batch whose dispatch throws is rerun one
// request at a time, so only the requests that still throw resolve kError.
// Every batch feeds the serve.* counters and histograms, and batches tagged
// with a tenant id also feed the per-tenant family (serve.tenant.<id>.*,
// exported with a {tenant="..."} label by MetricsRegistry::prometheus_text()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "serve/request.hpp"

namespace iwg::serve {

/// Per-tenant serve metrics. Registered lazily on first use under
/// `serve.tenant.<id>.{completed,rejected,expired,deadline_missed,errors,
/// latency_us}` — names the Prometheus exposition rewrites into one metric
/// family per suffix with the tenant id as a `{tenant="..."}` label.
/// References are stable for the process lifetime (MetricsRegistry never
/// removes entries), so callers may cache the returned reference. This
/// family is also what obs::SloMonitor windows: completed+expired are the
/// SLO-eligible events, deadline_missed+expired the SLO misses.
struct TenantMetrics {
  trace::Counter& completed;
  trace::Counter& rejected;
  trace::Counter& expired;
  trace::Counter& deadline_missed;  ///< served, but past the deadline
  trace::Counter& errors;           ///< resolved kError (the model threw)
  trace::Histogram& latency_us;

  static TenantMetrics& of(const std::string& tenant_id);
};

/// How run_model_batch executes one assembled micro-batch.
struct DispatchSpec {
  /// Distinct H×W×C shapes among the requests. More than one routes the
  /// batch through Model::infer_ragged (one indirect Γ dispatch per conv
  /// layer); one stages a dense batch tensor.
  int shape_classes = 1;
  /// When nonempty, also record serve.tenant.<id>.* for this batch.
  std::string tenant;
};

struct DispatchResult {
  std::int64_t completed = 0;  ///< requests resolved kOk
  std::int64_t failed = 0;     ///< requests resolved kError
  bool indirect = false;       ///< executed as a ragged dispatch
};

/// Execute one nonempty micro-batch through `model` and resolve every
/// request's promise: kOk, or kError with the exception text for a request
/// that throws on its own (the batch is rerun one request at a time after
/// a throw, so batch-mates still serve, bitwise equal to batch-1 infer).
/// Thread-safe for concurrent calls on one model (Model::infer /
/// infer_ragged are const and concurrent); the caller owns any weight-swap
/// synchronization around the model reference.
DispatchResult run_model_batch(const nn::Model& model,
                               std::vector<Request>& batch,
                               const DispatchSpec& spec);

}  // namespace iwg::serve
