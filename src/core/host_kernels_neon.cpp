// ASIMD/NEON table (aarch64). Advanced SIMD is baseline on aarch64 — the
// armv8-a HWCAP always reports ASIMD — so there is no runtime feature probe
// to fail: if this build targets aarch64 the table exists, otherwise the
// factory returns nullptr.
//
// Same structure as the AVX2 table at 4 lanes: explicit vmul+vadd for the
// bitwise transform kernel (no compiler contraction), vfma for the
// ULP-contract kernels, unaligned-tolerant loads, scalar ragged tails in
// reference term order.
#include "core/host_kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <vector>

namespace iwg::core::detail {

namespace {

// Channel-block outer, output-row inner: each source row is loaded once per
// block (null padding rows become a zero register) and reused for every
// output row. Dense and branch-free like the AVX2 table — ±0.0f terms are
// folded in, matching the dense scalar reference's op sequence exactly.
void transform_cols_neon(const float* m, int rows_n, int cols,
                         const float* const* rows, std::int64_t nc, float* dst,
                         std::int64_t dst_stride) {
  float32x4_t src[16];
  std::int64_t c = 0;
  for (; c + 4 <= nc; c += 4) {
    for (int e = 0; e < cols; ++e) {
      src[e] = rows[e] != nullptr ? vld1q_f32(rows[e] + c) : vdupq_n_f32(0.0f);
    }
    for (int i = 0; i < rows_n; ++i) {
      const float* mrow = m + static_cast<std::size_t>(i) * cols;
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (int e = 0; e < cols; ++e) {
        acc = vaddq_f32(acc, vmulq_n_f32(src[e], mrow[e]));
      }
      vst1q_f32(dst + static_cast<std::int64_t>(i) * dst_stride + c, acc);
    }
  }
  for (; c < nc; ++c) {
    for (int i = 0; i < rows_n; ++i) {
      const float* mrow = m + static_cast<std::size_t>(i) * cols;
      float acc = 0.0f;
      for (int e = 0; e < cols; ++e) {
        acc += mrow[e] * (rows[e] != nullptr ? rows[e][c] : 0.0f);
      }
      dst[static_cast<std::int64_t>(i) * dst_stride + c] = acc;
    }
  }
}

void axpy_rank1_neon(const float* d, const float* g, float* m, std::int64_t kc,
                     std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 16 <= nj; j += 16) {
    float32x4_t acc0 = vld1q_f32(m + j);
    float32x4_t acc1 = vld1q_f32(m + j + 4);
    float32x4_t acc2 = vld1q_f32(m + j + 8);
    float32x4_t acc3 = vld1q_f32(m + j + 12);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float32x4_t dv = vdupq_n_f32(d[k]);
      const float* gr = gj + k * nj;
      acc0 = vfmaq_f32(acc0, dv, vld1q_f32(gr));
      acc1 = vfmaq_f32(acc1, dv, vld1q_f32(gr + 4));
      acc2 = vfmaq_f32(acc2, dv, vld1q_f32(gr + 8));
      acc3 = vfmaq_f32(acc3, dv, vld1q_f32(gr + 12));
    }
    vst1q_f32(m + j, acc0);
    vst1q_f32(m + j + 4, acc1);
    vst1q_f32(m + j + 8, acc2);
    vst1q_f32(m + j + 12, acc3);
  }
  for (; j + 8 <= nj; j += 8) {
    float32x4_t acc0 = vld1q_f32(m + j);
    float32x4_t acc1 = vld1q_f32(m + j + 4);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float32x4_t dv = vdupq_n_f32(d[k]);
      const float* gr = gj + k * nj;
      acc0 = vfmaq_f32(acc0, dv, vld1q_f32(gr));
      acc1 = vfmaq_f32(acc1, dv, vld1q_f32(gr + 4));
    }
    vst1q_f32(m + j, acc0);
    vst1q_f32(m + j + 4, acc1);
  }
  for (; j + 4 <= nj; j += 4) {
    float32x4_t acc = vld1q_f32(m + j);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      acc = vfmaq_f32(acc, vdupq_n_f32(d[k]), vld1q_f32(gj + k * nj));
    }
    vst1q_f32(m + j, acc);
  }
  for (; j < nj; ++j) {
    float acc = m[j];
    for (std::int64_t k = 0; k < kc; ++k)
      acc = std::fmaf(d[k], g[k * nj + j], acc);
    m[j] = acc;
  }
}

// Blocked rank-1: each g vector feeds four accumulator rows (see the AVX2
// table for the load-bound rationale). 8-wide j blocks × 4 rows use 8
// accumulators + 2 g registers.
void axpy4_j_neon(const float* const* d, const float* g, float* const* m,
                  std::int64_t kc, std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 8 <= nj; j += 8) {
    float32x4_t a00 = vld1q_f32(m[0] + j), a01 = vld1q_f32(m[0] + j + 4);
    float32x4_t a10 = vld1q_f32(m[1] + j), a11 = vld1q_f32(m[1] + j + 4);
    float32x4_t a20 = vld1q_f32(m[2] + j), a21 = vld1q_f32(m[2] + j + 4);
    float32x4_t a30 = vld1q_f32(m[3] + j), a31 = vld1q_f32(m[3] + j + 4);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* gr = gj + k * nj;
      const float32x4_t g0 = vld1q_f32(gr);
      const float32x4_t g1 = vld1q_f32(gr + 4);
      a00 = vfmaq_n_f32(a00, g0, d[0][k]);
      a01 = vfmaq_n_f32(a01, g1, d[0][k]);
      a10 = vfmaq_n_f32(a10, g0, d[1][k]);
      a11 = vfmaq_n_f32(a11, g1, d[1][k]);
      a20 = vfmaq_n_f32(a20, g0, d[2][k]);
      a21 = vfmaq_n_f32(a21, g1, d[2][k]);
      a30 = vfmaq_n_f32(a30, g0, d[3][k]);
      a31 = vfmaq_n_f32(a31, g1, d[3][k]);
    }
    vst1q_f32(m[0] + j, a00);
    vst1q_f32(m[0] + j + 4, a01);
    vst1q_f32(m[1] + j, a10);
    vst1q_f32(m[1] + j + 4, a11);
    vst1q_f32(m[2] + j, a20);
    vst1q_f32(m[2] + j + 4, a21);
    vst1q_f32(m[3] + j, a30);
    vst1q_f32(m[3] + j + 4, a31);
  }
  for (; j + 4 <= nj; j += 4) {
    float32x4_t a0 = vld1q_f32(m[0] + j);
    float32x4_t a1 = vld1q_f32(m[1] + j);
    float32x4_t a2 = vld1q_f32(m[2] + j);
    float32x4_t a3 = vld1q_f32(m[3] + j);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float32x4_t g0 = vld1q_f32(gj + k * nj);
      a0 = vfmaq_n_f32(a0, g0, d[0][k]);
      a1 = vfmaq_n_f32(a1, g0, d[1][k]);
      a2 = vfmaq_n_f32(a2, g0, d[2][k]);
      a3 = vfmaq_n_f32(a3, g0, d[3][k]);
    }
    vst1q_f32(m[0] + j, a0);
    vst1q_f32(m[1] + j, a1);
    vst1q_f32(m[2] + j, a2);
    vst1q_f32(m[3] + j, a3);
  }
  for (; j < nj; ++j) {
    for (int r = 0; r < 4; ++r) {
      float acc = m[r][j];
      for (std::int64_t k = 0; k < kc; ++k)
        acc = std::fmaf(d[r][k], g[k * nj + j], acc);
      m[r][j] = acc;
    }
  }
}

// Eight accumulator rows per g pass (16 accumulators + 2 g registers of
// the 32 NEON has): maximizes reuse of each streamed ĝ vector, which is
// what bounds the engine once the FMA pipes fill.
void axpy8_j_neon(const float* const* d, const float* g, float* const* m,
                  std::int64_t kc, std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 8 <= nj; j += 8) {
    float32x4_t a00 = vld1q_f32(m[0] + j), a01 = vld1q_f32(m[0] + j + 4);
    float32x4_t a10 = vld1q_f32(m[1] + j), a11 = vld1q_f32(m[1] + j + 4);
    float32x4_t a20 = vld1q_f32(m[2] + j), a21 = vld1q_f32(m[2] + j + 4);
    float32x4_t a30 = vld1q_f32(m[3] + j), a31 = vld1q_f32(m[3] + j + 4);
    float32x4_t a40 = vld1q_f32(m[4] + j), a41 = vld1q_f32(m[4] + j + 4);
    float32x4_t a50 = vld1q_f32(m[5] + j), a51 = vld1q_f32(m[5] + j + 4);
    float32x4_t a60 = vld1q_f32(m[6] + j), a61 = vld1q_f32(m[6] + j + 4);
    float32x4_t a70 = vld1q_f32(m[7] + j), a71 = vld1q_f32(m[7] + j + 4);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* gr = gj + k * nj;
      const float32x4_t g0 = vld1q_f32(gr);
      const float32x4_t g1 = vld1q_f32(gr + 4);
      a00 = vfmaq_n_f32(a00, g0, d[0][k]);
      a01 = vfmaq_n_f32(a01, g1, d[0][k]);
      a10 = vfmaq_n_f32(a10, g0, d[1][k]);
      a11 = vfmaq_n_f32(a11, g1, d[1][k]);
      a20 = vfmaq_n_f32(a20, g0, d[2][k]);
      a21 = vfmaq_n_f32(a21, g1, d[2][k]);
      a30 = vfmaq_n_f32(a30, g0, d[3][k]);
      a31 = vfmaq_n_f32(a31, g1, d[3][k]);
      a40 = vfmaq_n_f32(a40, g0, d[4][k]);
      a41 = vfmaq_n_f32(a41, g1, d[4][k]);
      a50 = vfmaq_n_f32(a50, g0, d[5][k]);
      a51 = vfmaq_n_f32(a51, g1, d[5][k]);
      a60 = vfmaq_n_f32(a60, g0, d[6][k]);
      a61 = vfmaq_n_f32(a61, g1, d[6][k]);
      a70 = vfmaq_n_f32(a70, g0, d[7][k]);
      a71 = vfmaq_n_f32(a71, g1, d[7][k]);
    }
    vst1q_f32(m[0] + j, a00);
    vst1q_f32(m[0] + j + 4, a01);
    vst1q_f32(m[1] + j, a10);
    vst1q_f32(m[1] + j + 4, a11);
    vst1q_f32(m[2] + j, a20);
    vst1q_f32(m[2] + j + 4, a21);
    vst1q_f32(m[3] + j, a30);
    vst1q_f32(m[3] + j + 4, a31);
    vst1q_f32(m[4] + j, a40);
    vst1q_f32(m[4] + j + 4, a41);
    vst1q_f32(m[5] + j, a50);
    vst1q_f32(m[5] + j + 4, a51);
    vst1q_f32(m[6] + j, a60);
    vst1q_f32(m[6] + j + 4, a61);
    vst1q_f32(m[7] + j, a70);
    vst1q_f32(m[7] + j + 4, a71);
  }
  for (; j < nj; ++j) {
    for (int r = 0; r < 8; ++r) {
      float acc = m[r][j];
      for (std::int64_t k = 0; k < kc; ++k)
        acc = std::fmaf(d[r][k], g[k * nj + j], acc);
      m[r][j] = acc;
    }
  }
}

void axpy_rank1_multi_neon(const float* const* ds, const float* g,
                           float* const* ms, int rows, std::int64_t kc,
                           std::int64_t nj) {
  const float* d[8];
  float* m[8];
  int r = 0;
  int n = 0;
  for (;;) {
    while (r < rows && n < 8) {
      if (ds[r] != nullptr) {
        d[n] = ds[r];
        m[n] = ms[r];
        ++n;
      }
      ++r;
    }
    if (n == 8) {
      axpy8_j_neon(d, g, m, kc, nj);
      n = 0;
    }
    if (r == rows) break;
  }
  if (n >= 6) {
    // Ragged 6- or 7-row remainder: pad the octet with dummy rows (real d̂
    // source, thread-local sink destination) instead of peeling leftovers
    // through the load-bound single-row kernel. Real rows' chains are
    // independent of the dummies — bit-identical to the per-row split.
    static thread_local std::vector<float> sink;
    if (static_cast<std::int64_t>(sink.size()) < nj)
      sink.resize(static_cast<std::size_t>(nj));
    for (int i = n; i < 8; ++i) {
      d[i] = d[0];
      m[i] = sink.data();
    }
    axpy8_j_neon(d, g, m, kc, nj);
    return;
  }
  if (n >= 4) {
    axpy4_j_neon(d, g, m, kc, nj);
    d[0] = d[4];
    d[1] = d[5];
    d[2] = d[6];
    m[0] = m[4];
    m[1] = m[5];
    m[2] = m[6];
    n -= 4;
  }
  for (int i = 0; i < n; ++i) axpy_rank1_neon(d[i], g, m[i], kc, nj);
}

// Dense like transform_cols: branch-free, ascending t, one FMA per term.
void out_transform_neon(const float* at, int alpha, const float* m,
                        std::int64_t mstride, float* y, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (int t = 0; t < alpha; ++t) {
      acc = vfmaq_n_f32(
          acc, vld1q_f32(m + static_cast<std::int64_t>(t) * mstride + j),
          at[t]);
    }
    vst1q_f32(y + j, acc);
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int t = 0; t < alpha; ++t) {
      acc = std::fmaf(at[t], m[static_cast<std::int64_t>(t) * mstride + j],
                      acc);
    }
    y[j] = acc;
  }
}

}  // namespace

const HostKernels* host_kernels_neon() {
  static const HostKernels table = {
      transform_cols_neon, axpy_rank1_neon, axpy_rank1_multi_neon,
      out_transform_neon,  "neon",          HostIsa::kNeon,
  };
  return &table;
}

}  // namespace iwg::core::detail

#else  // !__aarch64__

namespace iwg::core::detail {
const HostKernels* host_kernels_neon() { return nullptr; }
}  // namespace iwg::core::detail

#endif
