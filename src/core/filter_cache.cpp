#include "core/filter_cache.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

trace::Counter& filter_transform_hits() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("host.filter_transform.hits");
  return c;
}

trace::Counter& filter_transform_misses() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("host.filter_transform.misses");
  return c;
}

Buffer<float> transform_filter_host(const TensorF& w, const ConvShape& s,
                                    const GammaConfig& cfg) {
  const int alpha = cfg.alpha;
  const int r = cfg.r;
  const WinogradPlan& plan = get_plan(cfg.n, r);
  const HostKernels& hk = host_kernels();
  Buffer<float> ghat(static_cast<std::size_t>(s.fh) * alpha * s.ic * s.oc);
  // OC is ĝ's lane axis but w's outermost, so each (fh, IC block) task first
  // stages its [FW][ICB][OC] slice of the [FH][FW][IC][OC] transpose in its
  // own arena: per (oc, j) it reads ICB contiguous floats of w, and the
  // ICB·FW destination rows stay in L1 while OC fills them. Then one
  // transform_cols per ic turns the r rows [j][ic][:] into α whole ĝ rows,
  // IC·OC apart. Each element keeps its ascending-j terms, so ĝ is bitwise
  // Σ_j G[t][j]·w[oc][fh][j][ic] on every ISA, whichever axis is on lanes.
  constexpr std::int64_t kIcBlock = 16;
  const std::int64_t ic_blocks = (s.ic + kIcBlock - 1) / kIcBlock;
  const std::int64_t plane = s.ic * s.oc;  // one ĝ[fh][t] plane
  parallel_for(s.fh * ic_blocks, [&](std::int64_t job) {
    const std::int64_t fh = job / ic_blocks;
    const std::int64_t ic0 = job % ic_blocks * kIcBlock;
    const std::int64_t icn = std::min(kIcBlock, s.ic - ic0);
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    float* slice =
        arena.alloc_floats(static_cast<std::size_t>(r * icn * s.oc));
    for (std::int64_t oc = 0; oc < s.oc; ++oc) {
      for (int j = 0; j < r; ++j) {
        const float* src = &w.at(oc, fh, j, ic0);
        float* dst = slice + j * icn * s.oc + oc;
        for (std::int64_t i = 0; i < icn; ++i) dst[i * s.oc] = src[i];
      }
    }
    const float* taps[16];
    for (std::int64_t i = 0; i < icn; ++i) {
      for (int j = 0; j < r; ++j) taps[j] = slice + (j * icn + i) * s.oc;
      hk.transform_cols(plan.g_f.data(), alpha, r, taps, s.oc,
                        ghat.data() + fh * alpha * plane + (ic0 + i) * s.oc,
                        plane);
    }
  });
  return ghat;
}

Buffer<float> deconv_transform_filter_host(const TensorF& w,
                                           const GammaConfig& cfg) {
  IWG_CHECK(w.rank() == 4 && w.dim(2) == cfg.r);
  const std::int64_t oc = w.dim(0);
  const std::int64_t fh = w.dim(1);
  const std::int64_t ic = w.dim(3);
  const int alpha = cfg.alpha;
  const int r = cfg.r;
  const WinogradPlan& plan = get_plan(cfg.n, r);
  const HostKernels& hk = host_kernels();
  Buffer<float> ghat(static_cast<std::size_t>(fh) * alpha * oc * ic);
  // The deconvolution's lane axis is the forward IC, w's innermost axis: the
  // r taps of filter row fh are w's rows [oc][FH−1−fh][FW−1−j][:] read in
  // place, and the α results land as whole rows OC·IC apart.
  const std::int64_t plane = oc * ic;
  const std::int64_t jobs = fh * oc;
  parallel_for(jobs, parallel_grain(jobs), [&](std::int64_t job) {
    const std::int64_t h = job / oc;
    const std::int64_t o = job % oc;
    const float* taps[16];
    for (int j = 0; j < r; ++j) taps[j] = &w.at(o, fh - 1 - h, r - 1 - j, 0);
    hk.transform_cols(plan.g_f.data(), alpha, r, taps, ic,
                      ghat.data() + h * alpha * plane + o * ic, plane);
  });
  return ghat;
}

Buffer<float> gemm_panel_host(const TensorF& w) {
  IWG_CHECK(w.rank() == 4);
  const std::int64_t oc = w.dim(0);
  const std::int64_t taps = w.dim(1) * w.dim(2);
  const std::int64_t ic = w.dim(3);
  Buffer<float> panel(static_cast<std::size_t>(w.size()));
  const float* src = w.data();
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t t = 0; t < taps; ++t) {
      for (std::int64_t i = 0; i < ic; ++i) {
        panel[static_cast<std::size_t>((t * ic + i) * oc + o)] =
            src[(o * taps + t) * ic + i];
      }
    }
  }
  return panel;
}

Buffer<float> deconv_gemm_panel_host(const TensorF& w) {
  IWG_CHECK(w.rank() == 4);
  const std::int64_t oc = w.dim(0);
  const std::int64_t fh = w.dim(1);
  const std::int64_t fw = w.dim(2);
  const std::int64_t ic = w.dim(3);
  Buffer<float> panel(static_cast<std::size_t>(w.size()));
  float* dst = panel.data();
  for (std::int64_t h = 0; h < fh; ++h) {
    for (std::int64_t x = 0; x < fw; ++x) {
      for (std::int64_t o = 0; o < oc; ++o) {
        const float* src = &w.at(o, fh - 1 - h, fw - 1 - x, 0);
        dst = std::copy(src, src + ic, dst);
      }
    }
  }
  return panel;
}

std::size_t FilterTransformCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = std::hash<const void*>{}(k.weights);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::uint64_t>{}(k.version));
  mix(static_cast<std::size_t>(k.alpha) * 31 + static_cast<std::size_t>(k.r));
  mix(k.deconv ? 1 : 0);
  return h;
}

FilterTransformCache::FilterTransformCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FilterTransformCache::Ghat FilterTransformCache::get_or_compute(
    const Key& key, const std::function<Buffer<float>()>& compute) {
  {
    std::lock_guard lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      filter_transform_hits().add();
      return it->second.ghat;
    }
  }
  filter_transform_misses().add();
  IWG_TRACE_SCOPE("filter_transform", "host");
  Ghat ghat = std::make_shared<const Buffer<float>>(compute());
  std::lock_guard lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent duplicate miss: the transform is deterministic, keep the
    // first insertion.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.ghat;
  }
  // A new version supersedes older versions of the same weights/config.
  for (auto mit = map_.begin(); mit != map_.end();) {
    const Key& k = mit->first;
    if (k.weights == key.weights && k.alpha == key.alpha && k.r == key.r &&
        k.deconv == key.deconv && k.version != key.version) {
      lru_.erase(mit->second.lru);
      mit = map_.erase(mit);
    } else {
      ++mit;
    }
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{ghat, lru_.begin()});
  return ghat;
}

void FilterTransformCache::invalidate(const void* weights) {
  std::lock_guard lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.weights == weights) {
      lru_.erase(it->second.lru);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void FilterTransformCache::clear() {
  std::lock_guard lock(mu_);
  map_.clear();
  lru_.clear();
}

std::size_t FilterTransformCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

FilterTransformCache& FilterTransformCache::global() {
  static FilterTransformCache* cache = new FilterTransformCache();
  return *cache;
}

}  // namespace iwg::core
