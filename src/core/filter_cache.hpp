// Pre-transformed-filter cache for the host engine.
//
// The host fast path used to re-derive the transformed filters
// ĝ[fh][t][ic][oc] inside *every* Γ segment execution — so a multi-segment
// boundary plan re-paid the α·FH·IC·OC transform per segment, and a training
// step re-paid it on every forward and backward even though the weights only
// change once per optimizer step. This cache memoizes ĝ under
// (weights identity, weights version, α, r, direction):
//
//   * weights identity is the storage address of the filter tensor — stable
//     for the life of an `nn::Param` — plus a monotonically bumped version
//     the optimizers increment on every update, so a stale transform can
//     never be served after a weight update;
//   * ĝ depends on the Γ geometry only through (α, r) (the G matrix), so a
//     ruse prefix and its base mop-up segment share one entry;
//   * `deconv` distinguishes the backward-data transform (rotated /
//     channel-swapped filter, read from the original weights in place) of
//     the same weights;
//   * the implicit-GEMM body's weight panel [FH][FW][IC][OC] lives here
//     too, under α = kGemmPanelAlpha (the identity transform, a geometry
//     no Γ kernel has), so a version bump or `invalidate` drops it exactly
//     as it drops ĝ.
//
// Entries are shared_ptrs: a conv executing against an entry keeps it alive
// even if it is evicted or invalidated mid-flight. Misses compute outside
// the lock (a concurrent duplicate miss computes twice, deterministically
// identically — same discipline as the PlanCache). Capacity is a small LRU
// bound; `invalidate(weights)` drops every entry of a weight tensor so a
// freed address cannot alias a later allocation's version numbering.
//
// Observability: `host.filter_transform.hits` / `host.filter_transform.misses`
// count every ĝ request across the cache and the per-call reuse path in
// `conv2d_gamma_host`, so a report shows transforms computed once per
// (weights version, config) rather than once per call.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/gamma_config.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg::trace {
class Counter;
}

namespace iwg::core {

// Each transform below writes every element of the buffer it returns, so
// the buffers are allocated without a zero fill (tensor.hpp's Buffer).

/// ĝ[fh][t][ic][oc] for one (filter, Γ geometry): OC contiguous for the
/// host engine's inner axpy. `w` is the original OC,FH,FW,IC filter.
Buffer<float> transform_filter_host(const TensorF& w, const ConvShape& s,
                                    const GammaConfig& cfg);

/// ĝ of the backward-data problem, ĝ[fh][t][oc][ic] = Σ_j G[t][j] ·
/// w[oc][FH−1−fh][FW−1−j][ic]: transform_filter_host of deconv_filter(w),
/// bit for bit, read from the OC,FH,FW,IC filter `w` in place.
Buffer<float> deconv_transform_filter_host(const TensorF& w,
                                           const GammaConfig& cfg);

/// Cache-key α of the implicit-GEMM weight panel: α = 1, the identity
/// transform. Γ kernels use α ∈ {4, 8, 16}, so the keys never collide.
inline constexpr int kGemmPanelAlpha = 1;

/// The implicit-GEMM weight panel [FH][FW][IC][OC] of the OC,FH,FW,IC
/// filter `w`: one [IC][OC] plane per filter tap, OC contiguous — the
/// g[k·nj + j] operand of axpy_rank1_multi.
Buffer<float> gemm_panel_host(const TensorF& w);

/// gemm_panel_host of deconv_filter(w), copied from `w` as whole IC rows:
/// panel[fh][fw][oc][ic] = w[oc][FH−1−fh][FW−1−fw][ic].
Buffer<float> deconv_gemm_panel_host(const TensorF& w);

/// The metrics-registry counters the host filter-transform paths feed
/// (stable references, cheap to cache at call sites).
trace::Counter& filter_transform_hits();
trace::Counter& filter_transform_misses();

class FilterTransformCache {
 public:
  struct Key {
    const void* weights = nullptr;  ///< identity of the weight storage
    std::uint64_t version = 0;      ///< bumped on every weight update
    int alpha = 0;                  ///< ĝ depends on the Γ geometry …
    int r = 0;                      ///< … only through (α, r)
    bool deconv = false;            ///< backward-data transform
    friend bool operator==(const Key&, const Key&) = default;
  };

  using Ghat = std::shared_ptr<const Buffer<float>>;

  explicit FilterTransformCache(std::size_t capacity = 128);

  /// The cached ĝ for `key`, computing via `compute` on miss (outside the
  /// lock). A miss whose key names a *new version* of already-cached weights
  /// drops the stale versions of the same (weights, α, r, deconv) — they are
  /// unreachable once the version has moved on.
  Ghat get_or_compute(const Key& key,
                      const std::function<Buffer<float>()>& compute);

  /// Drop every entry for a weight tensor (layer teardown: a later
  /// allocation could reuse the address and collide on version numbering).
  void invalidate(const void* weights);
  void clear();
  std::size_t size() const;

  /// Process-wide instance (what `src/nn` threads through ConvOptions).
  static FilterTransformCache& global();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  using LruList = std::list<Key>;
  struct Entry {
    Ghat ghat;
    LruList::iterator lru;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  LruList lru_;  ///< front = most recently used
};

}  // namespace iwg::core
