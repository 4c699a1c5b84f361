// Indirect Γ execution: one host dispatch over mixed-shape traffic.
//
// The Indirect Convolution Algorithm (Dukhan 2019) replaces im2col's index
// arithmetic with an indirection buffer of row pointers. Grafted onto the
// paper's Γα decomposition, that buffer is exactly the hook that lets one
// dispatch walk images of *different* sizes: the sliding-window ring and the
// SIMD inner kernels never compute a row address — they are handed
// `rows[ihp + ph]`, and whether that pointer lands in a batch tensor, in a
// caller-owned per-image buffer, or on the shared zero row (nullptr — the
// kernels' documented null-tap convention) is the IndirectionTable's
// business alone.
//
// conv2d_gamma_host_indirect therefore reuses detail::gamma_tile_column /
// detail::gemm_row — the very task bodies the dense segment entry points
// run — so per-image outputs are bitwise identical to a dense batch-1
// dispatch of the same image by construction. Each distinct (IH, IW) shape
// class gets the §5.5 boundary plan the dense path would pick (plans depend
// only on OW, FW and the option flags, never on N; a strided dispatch is
// GEMM over the whole strided width), and the flattened (image, segment)
// task list runs under a single parallel_for.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/gamma_host.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg {
class ScratchArena;
}

namespace iwg::core {

/// One image of an indirect dispatch: caller-owned NHWC input (IH×IW×IC)
/// and pre-allocated output (OH×OW×OC). Channels, filter and padding come
/// from the dispatch-wide geometry; only the spatial extents vary.
struct ImageView {
  const float* x = nullptr;
  float* y = nullptr;
  std::int64_t ih = 0;
  std::int64_t iw = 0;
};

struct IndirectOptions {
  bool use_winograd = true;  ///< false: implicit-GEMM for every image
  bool allow_ruse = true;    ///< §5.4 overlap-reuse variants
  bool allow_c64 = false;    ///< §5.6 Γ^c64 plans
  /// Cross-call reuse of transformed filters ĝ, as in conv2d_gamma_host.
  FilterCacheRef fc;
};

/// The per-batch indirection: row pointers plus per-image tile geometry,
/// built once per dispatch. Row-pointer arrays live in the caller's arena
/// scope (valid for the dispatch, freed in O(1) when it returns); padding
/// rows are nullptr — the shared zero row — never materialized slots.
struct IndirectionTable {
  /// Distinct (IH, IW) shape classes, each as an n = 1 ConvShape carrying
  /// the dispatch geometry; images of one class share a boundary plan.
  std::vector<ConvShape> classes;
  /// Per-image row table + extents, in input order.
  std::vector<detail::ImageTask> images;
  /// images[i] belongs to classes[image_class[i]].
  std::vector<int> image_class;
};

/// Build the table for a dispatch (validates every image's shape). Each
/// image's oh/ow are its extents at `stride`.
IndirectionTable build_indirection_table(std::span<const ImageView> images,
                                         const ConvShape& geom,
                                         ScratchArena& arena,
                                         std::int64_t stride = 1);

/// NHWC convolution of every view in one dispatch. `geom` supplies the
/// shared fields (ic/oc/fh/fw/ph/pw); its n/ih/iw are ignored — spatial
/// extents are per image. At `stride` > 1 every image runs the implicit
/// GEMM and each view's `y` holds the strided output. Outputs are bitwise
/// identical to `conv2d` / `conv2d_strided` run per image with matching
/// options.
void conv2d_gamma_host_indirect(std::span<const ImageView> images,
                                const TensorF& w, const ConvShape& geom,
                                const IndirectOptions& opts = {},
                                std::int64_t stride = 1);

}  // namespace iwg::core
