#include "serve/registry.hpp"

#include <algorithm>
#include <limits>

#include "common/trace.hpp"
#include "nn/serialize.hpp"

namespace iwg::serve {

TokenBucket::TokenBucket(TokenBucketConfig cfg)
    : cfg_(cfg), tokens_(std::max(cfg.burst, 1.0)), last_(Clock::now()) {}

bool TokenBucket::try_acquire(Clock::time_point now) {
  if (cfg_.rate_per_sec <= 0.0) return true;
  std::lock_guard lock(mu_);
  const double cap = std::max(cfg_.burst, 1.0);
  const double elapsed_s =
      std::chrono::duration<double>(now - last_).count();
  if (elapsed_s > 0.0) {
    tokens_ = std::min(cap, tokens_ + elapsed_s * cfg_.rate_per_sec);
    last_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(Clock::time_point now) {
  if (cfg_.rate_per_sec <= 0.0) return -1.0;
  std::lock_guard lock(mu_);
  const double cap = std::max(cfg_.burst, 1.0);
  const double elapsed_s =
      std::chrono::duration<double>(now - last_).count();
  if (elapsed_s > 0.0) {
    tokens_ = std::min(cap, tokens_ + elapsed_s * cfg_.rate_per_sec);
    last_ = now;
  }
  return tokens_;
}

std::uint64_t ModelRegistry::Tenant::min_param_version() {
  std::shared_lock lock(swap_mu);
  std::uint64_t v = std::numeric_limits<std::uint64_t>::max();
  for (const nn::Param* p : model.params()) v = std::min(v, p->version);
  return v == std::numeric_limits<std::uint64_t>::max() ? 0 : v;
}

ModelRegistry::TenantPtr ModelRegistry::register_model(nn::Model model,
                                                       TenantConfig cfg) {
  IWG_CHECK_MSG(!cfg.id.empty(), "tenant id must be nonempty");
  // The Prometheus exposition parses serve.tenant.<id>.<rest> back apart at
  // the first dot after the prefix — a dotted id would split wrong.
  IWG_CHECK_MSG(cfg.id.find('.') == std::string::npos,
                "tenant id must not contain '.': " + cfg.id);
  IWG_CHECK_MSG(cfg.weight > 0.0, "tenant weight must be > 0");
  IWG_CHECK(cfg.max_batch >= 1);
  auto t = std::make_shared<Tenant>(std::move(cfg), std::move(model));
  {
    // Warm before the tenant is findable: a replica never takes traffic
    // cold, and a failed warm (bad geometry) never half-registers.
    IWG_TRACE_SCOPE("serve.register_warm", "serve");
    TensorF x({static_cast<std::int64_t>(t->cfg.max_batch), t->cfg.image_h,
               t->cfg.image_w, t->cfg.channels});
    (void)t->model.infer(x);
  }
  std::lock_guard lock(mu_);
  const auto [it, inserted] = tenants_.emplace(t->cfg.id, t);
  (void)it;
  IWG_CHECK_MSG(inserted, "tenant already registered: " + t->cfg.id);
  return t;
}

bool ModelRegistry::deregister(const std::string& id) {
  std::lock_guard lock(mu_);
  return tenants_.erase(id) > 0;
}

ModelRegistry::TenantPtr ModelRegistry::find(const std::string& id) const {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<ModelRegistry::TenantPtr> ModelRegistry::tenants() const {
  std::lock_guard lock(mu_);
  std::vector<TenantPtr> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) out.push_back(t);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard lock(mu_);
  return tenants_.size();
}

std::uint64_t ModelRegistry::swap_weights(const std::string& id,
                                          const std::string& path) {
  TenantPtr t = find(id);
  IWG_CHECK_MSG(t != nullptr, "swap_weights: unknown tenant: " + id);
  {
    // Exclusive: waits for in-flight batches (they hold swap_mu shared) and
    // blocks new dispatches for the duration of the in-place load. The
    // loader bumps every Param::version, which re-keys the
    // FilterTransformCache — the version bump IS the invalidation.
    IWG_TRACE_SCOPE("serve.swap_weights", "serve");
    std::unique_lock lock(t->swap_mu);
    nn::load_weights(t->model, path);
    t->weight_epoch.fetch_add(1, std::memory_order_release);
  }
  {
    // Shared lock: concurrent with traffic (which also computes the new ĝ
    // on demand); this just front-loads the transform cost off the first
    // post-swap request's critical path.
    std::shared_lock lock(t->swap_mu);
    TensorF x({1, t->cfg.image_h, t->cfg.image_w, t->cfg.channels});
    (void)t->model.infer(x);
  }
  return t->min_param_version();
}

}  // namespace iwg::serve
