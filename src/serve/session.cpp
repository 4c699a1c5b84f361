#include "serve/session.hpp"

#include <algorithm>
#include <locale>
#include <sstream>

#include "common/arena.hpp"
#include "common/trace.hpp"
#include "core/host_kernels.hpp"
#include "core/plan_cache.hpp"
#include "obs/watchdog.hpp"
#include "serve/dispatch.hpp"

namespace iwg::serve {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServingSession::ServingSession(nn::Model model, SessionConfig cfg)
    : model_(std::move(model)),
      cfg_(cfg),
      queue_(cfg.queue_capacity),
      batcher_(queue_, cfg.batch) {
  IWG_CHECK(cfg_.batch.max_batch >= 1);
  IWG_CHECK(cfg_.workers >= 1);
  cfg_.flush_period = resolve_flush_period(cfg_.flush_period);
  if (cfg_.pretune_plans) {
    IWG_CHECK_MSG(cfg_.device != nullptr, "pretune_plans needs a device");
    IWG_CHECK_MSG(cfg_.image_h == cfg_.image_w,
                  "pretune propagates one spatial size (square images only)");
    IWG_TRACE_SCOPE("serve.pretune", "serve");
    nn::AutotuneContext ctx;
    ctx.dev = cfg_.device;
    model_.pretune(static_cast<std::int64_t>(cfg_.batch.max_batch),
                   cfg_.image_h, cfg_.channels, ctx);
  }
  if (cfg_.prewarm) prewarm();
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ServingSession::~ServingSession() { stop(/*drain=*/false); }

void ServingSession::prewarm() {
  // One throwaway batch at the pre-tuned geometry computes every layer's
  // filter transform into the FilterTransformCache and sizes the scratch
  // arenas, so the first real request pays neither.
  IWG_TRACE_SCOPE("serve.prewarm", "serve");
  TensorF warm({static_cast<std::int64_t>(cfg_.batch.max_batch), cfg_.image_h,
                cfg_.image_w, cfg_.channels});
  (void)model_.infer(warm);
}

std::future<Response> ServingSession::submit(TensorF image) {
  Deadline d = cfg_.default_deadline.count() > 0
                   ? Deadline::after(cfg_.default_deadline)
                   : Deadline::never();
  return submit(std::move(image), d);
}

std::future<Response> ServingSession::submit(TensorF image, Deadline deadline) {
  IWG_CHECK_MSG(image.rank() == 3, "submit expects one H x W x C image");
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.input = std::move(image);
  r.deadline = deadline;
  r.enqueue_time = Clock::now();
  // Mint the flight-recorder identity here: the enqueue span below carries
  // it on the client thread, and the Request hands it to whichever worker
  // thread dispatches/completes it, linking the whole path in the trace.
  r.ctx.trace_id = trace::new_trace_id();
  r.ctx.request_id = r.id;
  trace::ContextScope ctx_scope(r.ctx);
  IWG_TRACE_SPAN(span, "serve.enqueue", "serve");
  std::future<Response> fut = r.promise.get_future();
  switch (queue_.push(std::move(r))) {
    case RequestQueue::Admit::kAccepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestQueue::Admit::kRejectedFull:
    case RequestQueue::Admit::kClosed:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return fut;
}

void ServingSession::worker_loop(unsigned worker_idx) {
  // Liveness signal: one beat per loop iteration (the Batcher parks at most
  // its idle period, so a healthy worker beats well inside any sane stall
  // timeout). The handle dropping at return deregisters us from the scan.
  obs::Watchdog::HeartbeatPtr hb;
  if (cfg_.watchdog != nullptr) {
    hb = cfg_.watchdog->watch("session.worker." + std::to_string(worker_idx));
  }
  for (;;) {
    if (hb != nullptr) hb->beat();
    Batcher::Batch b = batcher_.next_batch();
    if (hb != nullptr) hb->beat();
    expired_.fetch_add(b.expired, std::memory_order_relaxed);
    if (b.closed) return;
    if (b.idle()) {
      // Idle housekeeping: return scratch peaks to the allocator — this
      // worker's arena directly, everyone else's via the trim epoch — so a
      // single outsized request doesn't pin peak memory for the process
      // lifetime.
      if (cfg_.idle_trim_bytes >= 0) {
        const auto keep = static_cast<std::size_t>(cfg_.idle_trim_bytes);
        ScratchArena::local().trim(keep);
        ScratchArena::trim_all(keep);
      }
      maybe_flush();
      continue;
    }
    run_batch(std::move(b));
    maybe_flush();
  }
}

void ServingSession::maybe_flush() {
  if (cfg_.flush_period.count() <= 0) return;
  const std::int64_t now = steady_now_us();
  std::int64_t last = last_flush_us_.load(std::memory_order_relaxed);
  if (now - last < cfg_.flush_period.count()) return;
  // One worker wins the CAS and flushes; the rest skip.
  if (last_flush_us_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    trace::flush_report();
  }
}

void ServingSession::run_batch(Batcher::Batch b) {
  // Zero-pad the tail up to max_batch so dispatch geometry always matches
  // the pre-tuned plans — legacy split policy only. The indirect policy
  // replaces materialized pad slots with zero-row indirection entries
  // (which simply don't exist for absent images), so its dense batches
  // dispatch at their true size and padded_slots stays 0.
  DispatchSpec spec;
  spec.indirect = b.mode == Batcher::Batch::Mode::kIndirect;
  spec.shape_classes = b.shape_classes;
  const bool pad =
      cfg_.pad_tail_batches && cfg_.batch.mixed == MixedMode::kSplit;
  spec.pad_to =
      !spec.indirect && pad ? static_cast<std::int64_t>(cfg_.batch.max_batch)
                            : 0;
  const DispatchResult res = run_model_batch(model_, b.requests, spec);
  completed_.fetch_add(res.completed, std::memory_order_relaxed);
  errors_.fetch_add(res.failed, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (res.indirect) indirect_batches_.fetch_add(1, std::memory_order_relaxed);
}

void ServingSession::stop(bool drain) {
  std::lock_guard lock(stop_mu_);
  if (stopped_.load()) return;
  queue_.close();
  if (!drain) {
    shed_.fetch_add(static_cast<std::int64_t>(queue_.shed_all()),
                    std::memory_order_relaxed);
  }
  for (auto& t : workers_) t.join();
  // A request pushed between close() racing and drain pop is impossible
  // (close happens-before every later push sees closed_), but a no-drain
  // stop can race a worker that already popped its batch — that batch is
  // served, which is the stronger guarantee.
  stopped_.store(true);
}

std::string ServingSession::stats_report() const {
  return trace::MetricsRegistry::global().prometheus_text();
}

std::string ServingSession::statusz_json() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(9);
  const Stats s = stats();
  const core::CacheStats pc = core::PlanCache::global().stats();
  os << "{\"workers\":" << cfg_.workers
     << ",\"host_isa\":\"" << core::host_isa_name(core::host_isa()) << '"'
     << ",\"arena_high_water_bytes\":" << ScratchArena::max_high_water()
     << ",\"queue_depth\":" << queue_.size()
     << ",\"accepted\":" << s.accepted << ",\"completed\":" << s.completed
     << ",\"rejected\":" << s.rejected << ",\"expired\":" << s.expired
     << ",\"batches\":" << s.batches
     << ",\"indirect_batches\":" << s.indirect_batches
     << ",\"plan_cache\":{\"lookups\":" << pc.lookups
     << ",\"hits\":" << pc.hits << ",\"misses\":" << pc.misses
     << ",\"evictions\":" << pc.evictions << ",\"entries\":" << pc.entries
     << ",\"tuning_time_s\":" << pc.tuning_time_s << "}}";
  return os.str();
}

ServingSession::Stats ServingSession::stats() const {
  Stats s;
  s.accepted = accepted_.load();
  s.completed = completed_.load();
  s.rejected = rejected_.load();
  s.expired = expired_.load();
  s.shed = shed_.load();
  s.errors = errors_.load();
  s.batches = batches_.load();
  s.indirect_batches = indirect_batches_.load();
  return s;
}

}  // namespace iwg::serve
