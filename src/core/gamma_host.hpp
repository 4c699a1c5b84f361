// Host (CPU) execution engine for Im2col-Winograd.
//
// Same mathematics and FP32 accumulation structure as the GPU kernels —
// 1-D Winograd per filter row, elementwise accumulation over (FH, IC) in the
// α-state domain, one output transform per tile — organized for CPU
// efficiency:
//
//   * transformed filters ĝ come from the FilterTransformCache (or a
//     per-call memo), so a boundary plan — and, through `src/nn`, a whole
//     optimizer step — transforms filters once per (weights version, α, r)
//     instead of once per segment execution;
//   * each (image, tile-column) task walks all OH output rows with a ring
//     of the last FH transformed input rows, so the α·IC input transform of
//     a row is computed once and reused by every filter row that consumes
//     it — the host analogue of the paper's §5.4 overlap reuse (the old
//     row-major order re-transformed each input row up to FH times);
//   * per-task scratch lives in the thread-local ScratchArena (no heap
//     churn inside parallel_for bodies), and the inner ĝ·d̂ accumulation is
//     the register-blocked axpy_rank1_multi;
//   * everything that is not Γ — the §5.5 GEMM tail, the GEMM engine and
//     every strided layer (§6.3.2) — runs one indirect implicit-GEMM body
//     on the same kernel: per filter tap, one axpy_rank1_multi call over
//     a cached [FH][FW][IC][OC] weight panel, input pixels as row pointers.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/gamma_config.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg {
struct WinogradPlan;
}

namespace iwg::core {

class FilterTransformCache;
struct HostKernels;

namespace detail {

/// One image slot of a Γ dispatch, dense or indirect. `rows` is the row
/// indirection: rows[ihp + ph] is input row ihp (an IW·IC NHWC slice),
/// nullptr for rows inside the zero padding — null is the shared zero row
/// the host kernels already understand (transform_cols reads a null tap as
/// zeros, axpy_rank1_multi skips null d̂ rows), so padding is an address,
/// never materialized storage. Table length is ih + 2·ph.
struct ImageTask {
  const float* const* rows = nullptr;
  float* y = nullptr;  ///< OH×OW×OC output base for this image
  std::int64_t ih = 0;
  std::int64_t iw = 0;
  std::int64_t oh = 0;
  std::int64_t ow = 0;
};

/// One (image, tile-column) Γ task: the sliding-window ring over OH row
/// blocks. Shared verbatim by the dense segment entry points and
/// conv2d_gamma_host_indirect, so the two paths produce bitwise-identical
/// outputs per image by construction. `geom` contributes the fields every
/// image of a dispatch shares (ic/oc/fh/ph/pw); per-image extents live in
/// `img`.
void gamma_tile_column(const ImageTask& img, const ConvShape& geom,
                       const GammaConfig& cfg, const WinogradPlan& plan,
                       const float* ghat, const HostKernels& hk,
                       std::int64_t ow_start, std::int64_t tw);

/// Output row `hi`, columns [ow_start, ow_start + ow_len), of the indirect
/// implicit GEMM at `stride` (img.oh/img.ow are the strided extents).
/// `panel` is gemm_panel_host's [FH][FW][IC][OC]. Per filter tap, one
/// axpy_rank1_multi call accumulates a plane (IC×OC) into blocks of up to
/// 8 output pixels, whose input pixels arrive as tap pointers — null for
/// zero padding, and skipped. Each output element therefore sums its terms
/// in ascending (fh, fw, ic) order from zero. Same sharing story as
/// gamma_tile_column.
void gemm_row(const ImageTask& img, const ConvShape& geom, const float* panel,
              const HostKernels& hk, std::int64_t stride, std::int64_t hi,
              std::int64_t ow_start, std::int64_t ow_len);

/// Fill a row table (length ih + 2·ph) for a densely stored image: in-bounds
/// rows point into `x`, padding rows stay nullptr.
void fill_row_table(const float** rows, const float* x, std::int64_t ih,
                    std::int64_t iw, std::int64_t ic, std::int64_t ph);

}  // namespace detail

/// Output extent of a stride-`stride` convolution whose unit-stride extent
/// is `unit` (ConvShape::oh()/ow()): (IH + 2·ph − FH) / stride + 1.
inline std::int64_t strided_extent(std::int64_t unit, std::int64_t stride) {
  return (unit - 1) / stride + 1;
}

/// How the host engine obtains (and possibly reuses) transformed filters.
/// Default-constructed: no cross-call cache — transforms are still shared
/// across the segments of one call, but recomputed per call. `src/nn`
/// threads the global cache plus the parameter's bumped version through
/// here so transforms survive across forward/backward and across steps.
struct FilterCacheRef {
  FilterTransformCache* cache = nullptr;  ///< nullptr: per-call reuse only
  std::uint64_t version = 0;              ///< weights version (cache key)
  const void* key = nullptr;              ///< nullptr: use w.data()
  /// Backward-data transforms: `w` is still the forward OC,FH,FW,IC filter,
  /// read rotated and channel-swapped in place (deconv2d_gamma_host only).
  bool deconv = false;
};

namespace detail {

/// The filter transforms of one dispatch — ĝ per Γ geometry (α, r) and the
/// GEMM panel — each fetched or computed once per call, through the
/// cross-call cache when `fc` names one. A ruse prefix and its base mop-up
/// share an entry, and repeat segments stay off the cache lock. With
/// `fc.deconv`, both come out in the deconvolution's layout, read from the
/// forward filter `w`. Returned pointers live as long as the memo.
class TransformMemo {
 public:
  TransformMemo(const TensorF& w, const FilterCacheRef& fc) : w_(w), fc_(fc) {}

  const float* ghat(const ConvShape& s, const GammaConfig& cfg);
  const float* panel();

 private:
  template <class Compute>
  const float* get(int alpha, int r, const Compute& compute);

  const TensorF& w_;
  FilterCacheRef fc_;
  std::vector<std::pair<std::pair<int, int>,
                        std::shared_ptr<const Buffer<float>>>>
      memo_;
};

}  // namespace detail

/// Convolution over one OW segment with Γα(n,r); writes into `y` in place.
/// `w` is the original OC,FH,FW,IC filter (transformed internally).
void conv2d_gamma_host_segment(const TensorF& x, const TensorF& w,
                               const ConvShape& s, const GammaConfig& cfg,
                               std::int64_t ow_start, std::int64_t ow_len,
                               TensorF& y);

/// Same, but against pre-transformed filters ĝ[fh][t][ic][oc] (from
/// transform_filter_host / the FilterTransformCache).
void conv2d_gamma_host_segment_pretransformed(
    const TensorF& x, const float* ghat, const ConvShape& s,
    const GammaConfig& cfg, std::int64_t ow_start, std::int64_t ow_len,
    TensorF& y);

/// Full convolution: §5.5 boundary plan over OW, Γ kernels + GEMM tail.
/// At `stride` > 1 the output is strided_extent(s.oh(), stride) ×
/// strided_extent(s.ow(), stride) and the plan must be GEMM segments over
/// that width (Γ needs unit stride).
TensorF conv2d_gamma_host(const TensorF& x, const TensorF& w,
                          const ConvShape& s,
                          const std::vector<Segment>& plan,
                          const FilterCacheRef& fc = {},
                          std::int64_t stride = 1);

/// Backward-data (deconvolution) through the same engine: the filter
/// rotation/channel swap is folded into the filter transform, which reads
/// `w` in place (no rotated copy). A cache ref is keyed on the *original*
/// weights with the deconv flag set.
TensorF deconv2d_gamma_host(const TensorF& dy, const TensorF& w,
                            const ConvShape& s,
                            const std::vector<Segment>& plan,
                            const FilterCacheRef& fc = {});

/// Filter gradient via 1-D Winograd — an extension beyond the paper (which
/// computes filter gradients with standard algorithms): the weight-gradient
/// correlation dW[oc,fh,j,ic] = Σ dY[...]·X[...+j] is itself a 1-D
/// correlation along W with the dY row acting as the filter, so F(fw, m)
/// with m = α+1−fw applies. Requires 2 ≤ fw ≤ 9; α is 8 for fw ≤ 7 and 16
/// otherwise. Zero-padded tail tiles handle OW % m ≠ 0. Per filter row it
/// runs α GEMMs on axpy_rank1_multi over K = (row, tile, image) (DESIGN
/// §8); tests/filter_grad_test.cpp bounds its error against FP64.
TensorF conv2d_filter_grad_winograd(const TensorF& x, const TensorF& dy,
                                    const ConvShape& s);

}  // namespace iwg::core
