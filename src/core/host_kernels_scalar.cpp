// Scalar reference table — the semantic ground truth every SIMD table is
// tested against, and the fallback engine on CPUs without AVX2/ASIMD.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/core/CMakeLists.txt): the bitwise and ULP contracts in
// host_kernels.hpp are stated relative to a reference that performs one
// rounding per multiply and per add, so the compiler must not fuse the
// scalar code into FMAs behind our back (GCC contracts by default, and
// aarch64 has baseline FMA that would otherwise change the reference).
#include "core/host_kernels.hpp"

namespace iwg::core::detail {

namespace {

// Dense: every (i, e) term is added, including zero coefficients and null
// rows. A null row contributes me·0.0f — note the multiply is kept (its
// ±0.0f sign depends on me's sign), so the per-element op sequence is
// identical to a vector table that folds a zero register in. Skipping would
// be cheaper here but costs the SIMD tables a branch per lane-block, and
// the bitwise contract requires one shared sequence.
void transform_cols_scalar(const float* m, int rows_n, int cols,
                           const float* const* rows, std::int64_t nc,
                           float* dst, std::int64_t dst_stride) {
  for (int i = 0; i < rows_n; ++i) {
    float* __restrict drow = dst + static_cast<std::int64_t>(i) * dst_stride;
    for (std::int64_t c = 0; c < nc; ++c) drow[c] = 0.0f;
    for (int e = 0; e < cols; ++e) {
      const float me = m[static_cast<std::size_t>(i) * cols + e];
      if (rows[e] != nullptr) {
        const float* __restrict src = rows[e];
        for (std::int64_t c = 0; c < nc; ++c) drow[c] += me * src[c];
      } else {
        const float z = me * 0.0f;
        for (std::int64_t c = 0; c < nc; ++c) drow[c] += z;
      }
    }
  }
}

// Unrolling k by 4 keeps one load+store of m per four updates; the
// additions stay in ascending-k order, so results match the rolled loop
// bit for bit.
void axpy_rank1_scalar(const float* __restrict d, const float* __restrict g,
                       float* __restrict m, std::int64_t kc, std::int64_t nj) {
  std::int64_t k = 0;
  for (; k + 4 <= kc; k += 4) {
    const float d0 = d[k];
    const float d1 = d[k + 1];
    const float d2 = d[k + 2];
    const float d3 = d[k + 3];
    const float* __restrict g0 = g + k * nj;
    const float* __restrict g1 = g0 + nj;
    const float* __restrict g2 = g1 + nj;
    const float* __restrict g3 = g2 + nj;
    for (std::int64_t j = 0; j < nj; ++j) {
      float acc = m[j];
      acc += d0 * g0[j];
      acc += d1 * g1[j];
      acc += d2 * g2[j];
      acc += d3 * g3[j];
      m[j] = acc;
    }
  }
  for (; k < kc; ++k) {
    const float dv = d[k];
    const float* __restrict gr = g + k * nj;
    for (std::int64_t j = 0; j < nj; ++j) m[j] += dv * gr[j];
  }
}

// The reference for the blocked form is literally the unblocked kernel per
// row: blocking is a vector-ISA register trick, not a semantic change.
void axpy_rank1_multi_scalar(const float* const* ds, const float* g,
                             float* const* ms, int rows, std::int64_t kc,
                             std::int64_t nj) {
  for (int r = 0; r < rows; ++r) {
    if (ds[r] != nullptr) axpy_rank1_scalar(ds[r], g, ms[r], kc, nj);
  }
}

// Dense for the same reason as transform_cols: zero A^T entries are folded
// in, keeping one op sequence across every table.
void out_transform_scalar(const float* at, int alpha, const float* m,
                          std::int64_t mstride, float* __restrict y,
                          std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) y[j] = 0.0f;
  for (int t = 0; t < alpha; ++t) {
    const float a = at[t];
    const float* __restrict mrow = m + static_cast<std::int64_t>(t) * mstride;
    for (std::int64_t j = 0; j < n; ++j) y[j] += a * mrow[j];
  }
}

}  // namespace

const HostKernels& host_kernels_scalar() {
  static const HostKernels table = {
      transform_cols_scalar, axpy_rank1_scalar, axpy_rank1_multi_scalar,
      out_transform_scalar,  "scalar",          HostIsa::kScalar,
  };
  return table;
}

}  // namespace iwg::core::detail
