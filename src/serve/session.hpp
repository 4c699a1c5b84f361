// ServingSession: a warm, concurrent inference engine around one nn::Model.
//
// The session converts the repo's single-shot benchmark hot path into
// sustained request/response throughput:
//
//   submit() ─▶ RequestQueue (admission control) ─▶ Batcher (micro-batches)
//            ─▶ worker threads ─▶ Model::infer (const, concurrent)
//            ─▶ per-request Response futures
//
// Warm-cache management at load time:
//   * plan pre-tuning — Model::pretune resolves every unit-stride conv's
//     §5.5 chain for the *padded batch shape* through the PlanCache, so the
//     first real request never pays tuning latency;
//   * filter-transform pre-warm — one throwaway batch through Model::infer
//     populates the FilterTransformCache with every layer's ĝ, so the first
//     request doesn't pay the α·FH·IC·OC transforms either.
//
// Under the legacy split batching policy (MixedMode::kSplit), tail batches
// are zero-padded up to max_batch before dispatch: every dispatch then runs
// the exact geometry the plans were tuned for, and — because the host
// engine computes images independently — padding changes no bits of any
// real request's output. Under the indirect policy (the default), padding
// slots are never materialized: the Γ engine reaches input rows through an
// indirection table whose absent/pad entries are the shared zero row
// (nullptr), so a short dense batch dispatches at its true size and
// serve.padded_slots stays 0. Mixed-shape batches route through
// Model::infer_ragged — one indirect Γ dispatch per conv layer instead of
// N batch-1 dispatches.
//
// Workers are dedicated (pinned) threads that only assemble batches and
// drive Model::infer; the heavy parallelism stays inside the existing
// global ThreadPool via the conv engine's parallel_for, so serving adds no
// second worker hierarchy to tune. Idle workers trim their ScratchArena
// (and broadcast trim_all) so one outsized request doesn't pin peak memory
// for the life of the process, and optionally flush the trace/metrics
// report on a period so long-running processes have fresh reports on disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/model.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"

namespace iwg::sim {
struct DeviceProfile;
}

namespace iwg::obs {
class Watchdog;
}

namespace iwg::serve {

struct SessionConfig {
  /// Expected image geometry (H, W, C). Requests with other shapes are
  /// still served (the batcher splits on shape) but only this geometry is
  /// pre-tuned and pre-warmed.
  std::int64_t image_h = 16;
  std::int64_t image_w = 16;
  std::int64_t channels = 3;

  BatchPolicy batch;
  std::size_t queue_capacity = 256;
  unsigned workers = 1;

  /// Deadline applied by submit(image) when the caller gives none;
  /// zero → no deadline.
  std::chrono::microseconds default_deadline{0};

  /// Resolve conv plans for the padded batch shape at load (needs `device`;
  /// square images only — pretune propagates one spatial size).
  bool pretune_plans = false;
  const sim::DeviceProfile* device = nullptr;

  /// Run one throwaway batch at load to populate the FilterTransformCache
  /// and size the scratch arenas.
  bool prewarm = true;

  /// Zero-pad tail batches to max_batch so dispatch geometry is constant
  /// (plan reuse; see file comment). Padding is compute overhead on
  /// stragglers — disable for latency-critical low-load deployments.
  /// Only honored under MixedMode::kSplit: the indirect policy replaces
  /// materialized pad slots with zero-row indirection entries, so its
  /// dense batches always dispatch at their true size.
  bool pad_tail_batches = true;

  /// Idle workers trim scratch arenas down to this retained capacity;
  /// negative → never trim.
  std::int64_t idle_trim_bytes = 64 * 1024;

  /// Period for trace/metrics report flushes from the serving loop
  /// (trace::flush_period); zero → no periodic flush. IWG_REPORT_FLUSH_MS
  /// overrides at construction (see serve::resolve_flush_period).
  std::chrono::microseconds flush_period{0};

  /// When set, each worker registers a named heartbeat here and beats it
  /// once per loop iteration — what obs::AdminServer's /healthz watches.
  /// Must outlive the session.
  obs::Watchdog* watchdog = nullptr;
};

class ServingSession {
 public:
  /// Takes ownership of the model. Pre-tunes and pre-warms per `cfg`, then
  /// starts the worker threads; the session is accepting when the
  /// constructor returns.
  ServingSession(nn::Model model, SessionConfig cfg);
  ~ServingSession();  ///< stop(/*drain=*/false)

  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// Submit one H×W×C image with the config's default deadline.
  std::future<Response> submit(TensorF image);
  std::future<Response> submit(TensorF image, Deadline deadline);

  /// Stop: close admission, then either drain queued requests (serve them)
  /// or shed them with kShutdown, and join the workers. Idempotent.
  void stop(bool drain = true);

  struct Stats {
    std::int64_t accepted = 0;   ///< admitted into the queue
    std::int64_t completed = 0;  ///< served with kOk
    std::int64_t rejected = 0;   ///< refused at admission (full or closed)
    std::int64_t expired = 0;    ///< deadline-shed before dispatch
    std::int64_t shed = 0;       ///< kShutdown-resolved at stop
    std::int64_t errors = 0;     ///< kError: the model threw on it alone
    std::int64_t batches = 0;    ///< micro-batches dispatched (all modes)
    /// Of `batches`, how many were mixed-shape indirect dispatches
    /// (Model::infer_ragged) vs single-shape dense batch tensors.
    std::int64_t indirect_batches = 0;
    /// Every admitted request reached a terminal state (refused ones were
    /// resolved synchronously at submit).
    bool all_resolved() const {
      return accepted == completed + expired + shed + errors;
    }
  };
  Stats stats() const;

  /// Prometheus text exposition of the process metrics registry (serve.*
  /// counters/histograms plus whatever the conv engine recorded). A
  /// scrape-by-file or embedding server can serve this page directly.
  std::string stats_report() const;

  /// The /statusz page for the single-model session: queue depth, session
  /// counters, plan-cache stats, arena high-water, host ISA — one JSON
  /// object (the fleet's richer per-tenant variant lives on FleetScheduler).
  std::string statusz_json() const;

  const nn::Model& model() const { return model_; }
  const SessionConfig& config() const { return cfg_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  void worker_loop(unsigned worker_idx);
  void run_batch(Batcher::Batch batch);
  void prewarm();
  void maybe_flush();

  nn::Model model_;
  SessionConfig cfg_;
  RequestQueue queue_;
  Batcher batcher_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> expired_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> indirect_batches_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<std::int64_t> last_flush_us_{0};  ///< steady-clock μs
  std::mutex stop_mu_;
};

}  // namespace iwg::serve
