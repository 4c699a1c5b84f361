#include "serve/fleet.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
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

/// Scratch capacity an idle worker leaves in each arena when it trims.
constexpr std::size_t kIdleTrimBytes = 64 * 1024;

trace::Counter& enqueued_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.enqueued");
  return c;
}

trace::Counter& rejected_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.rejected");
  return c;
}

trace::Counter& expired_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.expired");
  return c;
}

trace::Histogram& depth_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.queue_depth");
  return h;
}

/// The report-flush period: `configured` unless IWG_REPORT_FLUSH_MS is set,
/// which overrides it (0 disables), so a deployed binary's flush cadence is
/// tunable without a rebuild.
std::chrono::microseconds resolve_flush_period(
    std::chrono::microseconds configured) {
  const char* env = std::getenv("IWG_REPORT_FLUSH_MS");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  const long ms = std::strtol(env, &end, 10);
  if (end == env || ms < 0) return configured;  // unparsable: keep config
  return std::chrono::microseconds(static_cast<std::int64_t>(ms) * 1000);
}

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Resolve one request on a terminal non-kOk path (reject, shed, shutdown),
/// emitting the terminal span into its flow chain.
void resolve_now(Request& r, Status status, const char* reason) {
  trace::ContextScope ctx_scope(r.ctx);
  IWG_TRACE_SPAN(span, "serve.reject", "serve");
  span.arg("status", status_name(status));
  Response resp;
  resp.status = status;
  resp.reason = reason;
  resp.latency_us = std::chrono::duration<double, std::micro>(
                        Clock::now() - r.enqueue_time)
                        .count();
  trace::MetricsRegistry::global()
      .histogram(std::string("serve.latency_us.") + status_name(status))
      .record(resp.latency_us);
  r.promise.set_value(std::move(resp));
}

/// Distinct H×W×C shapes among a batch (small k; quadratic scan is fine).
int count_shape_classes(const std::vector<Request>& reqs) {
  int classes = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) {
      seen = same_image_shape(reqs[i].input, reqs[j].input);
    }
    if (!seen) ++classes;
  }
  return classes;
}

}  // namespace

FleetScheduler::FleetScheduler(FleetConfig cfg) : cfg_(cfg) {
  IWG_CHECK(cfg_.workers >= 1);
  cfg_.flush_period = resolve_flush_period(cfg_.flush_period);
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

FleetScheduler::~FleetScheduler() { stop(/*drain=*/false); }

void FleetScheduler::add_tenant(nn::Model model, TenantConfig cfg) {
  {
    std::lock_guard lock(mu_);
    IWG_CHECK_MSG(!stopping_, "add_tenant after stop");
    IWG_CHECK_MSG(states_.find(cfg.id) == states_.end(),
                  "tenant already registered: " + cfg.id);
  }
  // Warm outside the fleet lock (the prewarm runs real inference), then
  // publish; the registry rejects duplicate ids racing past the check.
  ModelRegistry::TenantPtr t =
      registry_.register_model(std::move(model), std::move(cfg));
  std::lock_guard lock(mu_);
  states_.emplace(t->cfg.id, std::make_shared<TenantState>(t));
}

std::future<Response> FleetScheduler::submit(const std::string& tenant,
                                            TensorF image) {
  return submit_impl(tenant, std::move(image), std::nullopt);
}

std::future<Response> FleetScheduler::submit(const std::string& tenant,
                                            TensorF image, Deadline deadline) {
  return submit_impl(tenant, std::move(image), deadline);
}

std::future<Response> FleetScheduler::submit_impl(
    const std::string& tenant, TensorF image,
    std::optional<Deadline> deadline) {
  IWG_CHECK_MSG(image.rank() == 3, "submit expects one H x W x C image");
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.input = std::move(image);
  r.enqueue_time = Clock::now();
  // Mint the flight-recorder identity here: the enqueue span runs on the
  // client thread and the Request carries the context to whichever worker
  // dispatches/completes it.
  r.ctx.trace_id = trace::new_trace_id();
  r.ctx.request_id = r.id;
  trace::ContextScope ctx_scope(r.ctx);
  IWG_TRACE_SPAN(span, "serve.enqueue", "serve");
  span.arg("tenant", tenant);
  std::future<Response> fut = r.promise.get_future();

  std::unique_lock lock(mu_);
  const auto it = states_.find(tenant);
  if (it == states_.end()) {
    lock.unlock();
    rejected_counter().add();
    resolve_now(r, Status::kRejected, "unknown tenant");
    return fut;
  }
  StatePtr sp = it->second;
  TenantState& st = *sp;
  if (st.closed || stopping_) {
    lock.unlock();
    st.rejected.fetch_add(1, std::memory_order_relaxed);
    TenantMetrics::of(tenant).rejected.add();
    resolve_now(r, Status::kShutdown, "tenant closed");
    return fut;
  }
  const auto reject = [&](const char* reason) {
    lock.unlock();
    st.rejected.fetch_add(1, std::memory_order_relaxed);
    TenantMetrics::of(tenant).rejected.add();
    rejected_counter().add();
    resolve_now(r, Status::kRejected, reason);
    return std::move(fut);
  };
  // A wrong channel count would throw inside the model on a worker.
  if (r.input.dim(2) != st.tenant->cfg.channels) {
    return reject("channel mismatch");
  }
  r.deadline = deadline.has_value()
                   ? *deadline
                   : (st.tenant->cfg.default_deadline.count() > 0
                          ? Deadline::after(st.tenant->cfg.default_deadline)
                          : Deadline::never());
  if (!st.bucket.try_acquire(r.enqueue_time)) return reject("rate limited");
  if (st.q.size() >= st.tenant->cfg.queue_capacity) {
    return reject("queue full");
  }

  if (st.q.empty()) {
    // max_wait anchor, and the WFQ empty→nonempty catch-up: a returning
    // tenant resumes at the global virtual clock instead of cashing in
    // credit hoarded while idle.
    st.since = r.enqueue_time;
    st.vtime = std::max(st.vtime, global_vtime_);
  }
  auto pos = st.q.end();
  if (cfg_.order == TenantOrder::kEdf && r.deadline.has_deadline()) {
    // Deadline-sorted insertion: after the last request with a deadline no
    // later than this one (FIFO among equal deadlines, deadline-less last).
    // Searched from the back, where an arrival that shares the tenant's
    // default deadline lands, so a backlog burst stays O(1) per submit.
    pos = std::find_if(st.q.rbegin(), st.q.rend(), [&](const Request& o) {
            return o.deadline.has_deadline() &&
                   o.deadline.at() <= r.deadline.at();
          }).base();
  }
  st.q.insert(pos, std::move(r));
  st.accepted.fetch_add(1, std::memory_order_relaxed);
  enqueued_counter().add();
  depth_hist().record(static_cast<double>(st.q.size()));
  lock.unlock();
  cv_.notify_one();
  return fut;
}

void FleetScheduler::shed_expired_locked(Clock::time_point now) {
  // An EDF queue is deadline-sorted with deadline-less requests last, so
  // its expired requests are a prefix: stop at the first live one.
  const bool sorted = cfg_.order == TenantOrder::kEdf;
  for (auto& [id, sp] : states_) {
    TenantState& st = *sp;
    for (auto it = st.q.begin(); it != st.q.end();) {
      if (!it->deadline.expired(now)) {
        if (sorted) break;
        ++it;
        continue;
      }
      expired_counter().add();
      st.expired.fetch_add(1, std::memory_order_relaxed);
      TenantMetrics::of(id).expired.add();
      resolve_now(*it, Status::kExpired, "deadline expired before dispatch");
      it = st.q.erase(it);
    }
    if (st.q.empty()) drain_cv_.notify_all();
  }
}

FleetScheduler::WorkItem FleetScheduler::next_batch() {
  std::unique_lock lock(mu_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    shed_expired_locked(now);

    StatePtr pick;
    bool any_pending = false;
    Clock::time_point earliest_due = Clock::time_point::max();
    for (auto& [id, sp] : states_) {
      TenantState& st = *sp;
      if (st.q.empty()) continue;
      any_pending = true;
      const bool ready = st.q.size() >= st.tenant->cfg.max_batch ||
                         st.closed || stopping_ ||
                         now >= st.since + cfg_.max_wait;
      if (!ready) {
        earliest_due = std::min(earliest_due, st.since + cfg_.max_wait);
        continue;
      }
      if (pick == nullptr || st.vtime < pick->vtime) pick = sp;
    }

    if (pick != nullptr) {
      TenantState& st = *pick;
      WorkItem item;
      item.st = pick;
      const std::size_t kmax = st.tenant->cfg.max_batch;
      while (!st.q.empty() && item.requests.size() < kmax) {
        item.requests.push_back(std::move(st.q.front()));
        st.q.pop_front();
      }
      item.shape_classes = count_shape_classes(item.requests);
      if (!st.q.empty()) st.since = now;  // remainder waits afresh
      // WFQ bookkeeping: the service start advances the global virtual
      // clock; the tenant pays k/weight of virtual time for the batch.
      global_vtime_ = std::max(global_vtime_, st.vtime);
      st.vtime += static_cast<double>(item.requests.size()) /
                  st.tenant->cfg.weight;
      if (st.q.empty()) drain_cv_.notify_all();
      return item;
    }

    if (stopping_ && !any_pending) {
      WorkItem item;
      item.exit = true;
      return item;
    }

    const Clock::time_point idle_until = now + cfg_.idle_wait;
    const Clock::time_point until =
        any_pending ? std::min(earliest_due, idle_until) : idle_until;
    const bool timed_out =
        cv_.wait_until(lock, until) == std::cv_status::timeout;
    if (timed_out && !any_pending) {
      return WorkItem{};  // idle tick: housekeeping in the worker
    }
  }
}

void FleetScheduler::run_batch(WorkItem& item) {
  DispatchSpec spec;
  spec.shape_classes = item.shape_classes;
  spec.tenant = item.st->tenant->cfg.id;
  DispatchResult res;
  {
    // Shared side of the hot-swap protocol: swap_weights holds this
    // exclusively, so a batch never observes a torn weight state and a
    // swap waits for in-flight batches instead of dropping them.
    std::shared_lock swap_lock(item.st->tenant->swap_mu);
    res = run_model_batch(item.st->tenant->model, item.requests, spec);
  }
  item.st->completed.fetch_add(res.completed, std::memory_order_relaxed);
  item.st->errors.fetch_add(res.failed, std::memory_order_relaxed);
  item.st->batches.fetch_add(1, std::memory_order_relaxed);
  if (res.indirect) {
    item.st->indirect_batches.fetch_add(1, std::memory_order_relaxed);
  }
}

void FleetScheduler::worker_loop(unsigned worker_idx) {
  // Liveness signal: one beat per loop iteration. next_batch parks at most
  // idle_wait, so a healthy worker beats well inside any sane stall
  // timeout; the handle dropping at return deregisters us from the scan.
  obs::Watchdog::HeartbeatPtr hb;
  if (cfg_.watchdog != nullptr) {
    hb = cfg_.watchdog->watch("fleet.worker." + std::to_string(worker_idx));
  }
  for (;;) {
    if (hb != nullptr) hb->beat();
    WorkItem item = next_batch();
    if (hb != nullptr) hb->beat();
    if (item.exit) return;
    if (item.st == nullptr) {
      // Idle housekeeping: return scratch peaks to the allocator — this
      // worker's arena directly, everyone else's via the trim epoch — so a
      // single outsized request doesn't pin peak memory for the process
      // lifetime, and keep reports fresh.
      ScratchArena::local().trim(kIdleTrimBytes);
      ScratchArena::trim_all(kIdleTrimBytes);
      maybe_flush();
      continue;
    }
    run_batch(item);
    maybe_flush();
  }
}

void FleetScheduler::maybe_flush() {
  if (cfg_.flush_period.count() <= 0) return;
  const std::int64_t now = steady_now_us();
  std::int64_t last = last_flush_us_.load(std::memory_order_relaxed);
  if (now - last < cfg_.flush_period.count()) return;
  if (last_flush_us_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    trace::flush_report();
  }
}

bool FleetScheduler::remove_tenant(const std::string& id, bool drain) {
  StatePtr sp;
  {
    std::unique_lock lock(mu_);
    const auto it = states_.find(id);
    if (it == states_.end()) return false;
    sp = it->second;
    sp->closed = true;   // new submits resolve kShutdown
    cv_.notify_all();    // closed ⇒ the backlog is immediately dispatchable
    if (drain && !stopping_) {
      drain_cv_.wait(lock, [&] { return sp->q.empty(); });
    } else {
      std::deque<Request> orphans;
      orphans.swap(sp->q);
      lock.unlock();
      for (Request& r : orphans) {
        sp->shed.fetch_add(1, std::memory_order_relaxed);
        resolve_now(r, Status::kShutdown, "tenant deregistered");
      }
      lock.lock();
    }
    // erase() can lose to a concurrent remove_tenant of the same id while
    // the lock was dropped above — only the winner retires the state (the
    // retired list must count each tenant's stats exactly once).
    if (states_.erase(id) > 0) {
      retired_.push_back(sp);  // in-flight batches still update its stats
    }
  }
  registry_.deregister(id);
  return true;
}

void FleetScheduler::stop(bool drain) {
  std::lock_guard stop_lock(stop_mu_);
  if (stopped_.load()) return;
  std::deque<Request> orphans;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    for (auto& [id, sp] : states_) {
      sp->closed = true;
      if (!drain) {
        for (Request& r : sp->q) {
          sp->shed.fetch_add(1, std::memory_order_relaxed);
          orphans.push_back(std::move(r));
        }
        sp->q.clear();
      }
    }
  }
  cv_.notify_all();
  drain_cv_.notify_all();  // a concurrent remove_tenant(drain) must not hang
  for (Request& r : orphans) {
    resolve_now(r, Status::kShutdown, "fleet stopped before dispatch");
  }
  for (auto& t : workers_) t.join();
  stopped_.store(true);
}

std::uint64_t FleetScheduler::swap_weights(const std::string& tenant,
                                           const std::string& path) {
  return registry_.swap_weights(tenant, path);
}

void FleetScheduler::accumulate(TenantStats& into, const TenantState& st) {
  into.accepted += st.accepted.load();
  into.completed += st.completed.load();
  into.rejected += st.rejected.load();
  into.expired += st.expired.load();
  into.shed += st.shed.load();
  into.errors += st.errors.load();
  into.batches += st.batches.load();
  into.indirect_batches += st.indirect_batches.load();
}

FleetScheduler::Stats FleetScheduler::stats() const {
  Stats s;
  std::lock_guard lock(mu_);
  for (const auto& [id, sp] : states_) {
    accumulate(s.tenants[id], *sp);
  }
  for (const StatePtr& sp : retired_) {
    accumulate(s.tenants[sp->tenant->cfg.id], *sp);
  }
  for (const auto& [id, ts] : s.tenants) {
    s.total.accepted += ts.accepted;
    s.total.completed += ts.completed;
    s.total.rejected += ts.rejected;
    s.total.expired += ts.expired;
    s.total.shed += ts.shed;
    s.total.errors += ts.errors;
    s.total.batches += ts.batches;
    s.total.indirect_batches += ts.indirect_batches;
  }
  return s;
}

std::string FleetScheduler::stats_report() const {
  return trace::MetricsRegistry::global().prometheus_text();
}

bool FleetScheduler::ready() const {
  std::lock_guard lock(mu_);
  return !stopping_ && !states_.empty();
}

std::string FleetScheduler::statusz_json() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(9);
  const core::CacheStats pc = core::PlanCache::global().stats();
  os << "{\"workers\":" << cfg_.workers
     << ",\"host_isa\":\"" << core::host_isa_name(core::host_isa()) << '"'
     << ",\"arena_high_water_bytes\":" << ScratchArena::max_high_water()
     << ",\"plan_cache\":{\"lookups\":" << pc.lookups
     << ",\"hits\":" << pc.hits << ",\"misses\":" << pc.misses
     << ",\"evictions\":" << pc.evictions << ",\"entries\":" << pc.entries
     << ",\"tuning_time_s\":" << pc.tuning_time_s << "},\"tenants\":{";
  std::lock_guard lock(mu_);
  bool first = true;
  const Clock::time_point now = Clock::now();
  for (const auto& [id, sp] : states_) {
    if (!first) os << ',';
    first = false;
    // Tenant ids are registry-validated (no dots; safe unescaped modulo
    // quotes, which register_model rejects implicitly via the metric-name
    // convention) — but escape defensively anyway.
    os << '"';
    for (char c : id) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << "\":{\"queue_depth\":" << sp->q.size()
       << ",\"closed\":" << (sp->closed ? "true" : "false")
       << ",\"vtime\":" << sp->vtime
       << ",\"weight\":" << sp->tenant->cfg.weight
       << ",\"weight_epoch\":"
       << sp->tenant->weight_epoch.load(std::memory_order_relaxed)
       << ",\"bucket_tokens\":" << sp->bucket.available(now)
       << ",\"accepted\":" << sp->accepted.load(std::memory_order_relaxed)
       << ",\"completed\":" << sp->completed.load(std::memory_order_relaxed)
       << ",\"rejected\":" << sp->rejected.load(std::memory_order_relaxed)
       << ",\"expired\":" << sp->expired.load(std::memory_order_relaxed)
       << ",\"errors\":" << sp->errors.load(std::memory_order_relaxed)
       << '}';
  }
  os << "},\"global_vtime\":" << global_vtime_
     << ",\"stopping\":" << (stopping_ ? "true" : "false") << '}';
  return os.str();
}

std::size_t FleetScheduler::tenant_count() const {
  std::lock_guard lock(mu_);
  return states_.size();
}

std::size_t FleetScheduler::queue_depth(const std::string& tenant) const {
  std::lock_guard lock(mu_);
  const auto it = states_.find(tenant);
  return it == states_.end() ? 0 : it->second->q.size();
}

}  // namespace iwg::serve
