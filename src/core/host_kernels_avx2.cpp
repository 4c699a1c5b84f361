// AVX2 + FMA table (x86-64). Compiled with -mavx2 -mfma on x86 targets
// (src/core/CMakeLists.txt adds the per-file flags); on other
// architectures, or when the running CPU lacks AVX2/FMA (CPUID via
// __builtin_cpu_supports), the factory returns nullptr and the dispatcher
// falls back.
//
// All loads and stores are unaligned (loadu/storeu): the host engine hands
// these kernels interior pointers of NHWC rows and arena ring slots whose
// offsets are multiples of sizeof(float)·IC, not of 32 bytes. Ragged tails
// are finished with scalar code in the same per-element term order — no
// masked or overshooting lane reads, so ASan stays clean on odd sizes.
#include "core/host_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace iwg::core::detail {

namespace {

// BITWISE contract: explicit mul + add intrinsics (never contracted by the
// compiler), dense terms in ascending e per element — the scalar
// reference's exact op sequence, eight elements at a time.
//
// Loop order is channel-block outer, output-row inner: one block loads each
// of the ≤16 source rows exactly once (null padding rows become a zero
// register) and reuses them for every output row. The inner loop is
// branch-free on purpose: a skip test per (row, element, block) costs more
// than the multiply-add it saves, and folding ±0.0f terms in keeps the op
// sequence identical to the dense scalar reference by construction.
void transform_cols_avx2(const float* m, int rows_n, int cols,
                         const float* const* rows, std::int64_t nc, float* dst,
                         std::int64_t dst_stride) {
  __m256 src[16];
  std::int64_t c = 0;
  for (; c + 8 <= nc; c += 8) {
    for (int e = 0; e < cols; ++e) {
      src[e] = rows[e] != nullptr ? _mm256_loadu_ps(rows[e] + c)
                                  : _mm256_setzero_ps();
    }
    for (int i = 0; i < rows_n; ++i) {
      const float* mrow = m + static_cast<std::size_t>(i) * cols;
      __m256 acc = _mm256_setzero_ps();
      for (int e = 0; e < cols; ++e) {
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(mrow[e]), src[e]));
      }
      _mm256_storeu_ps(dst + static_cast<std::int64_t>(i) * dst_stride + c,
                       acc);
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

// ULP contract: ascending-k term order per element, FMA per term. 32-wide
// j blocks keep four accumulators (four independent FMA dependency chains —
// two chains leave the FMA units mostly idle waiting on latency); m is
// loaded/stored once per block, g rows stream.
void axpy_rank1_avx2(const float* d, const float* g, float* m, std::int64_t kc,
                     std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 32 <= nj; j += 32) {
    __m256 acc0 = _mm256_loadu_ps(m + j);
    __m256 acc1 = _mm256_loadu_ps(m + j + 8);
    __m256 acc2 = _mm256_loadu_ps(m + j + 16);
    __m256 acc3 = _mm256_loadu_ps(m + j + 24);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const __m256 dv = _mm256_set1_ps(d[k]);
      const float* gr = gj + k * nj;
      acc0 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr), acc0);
      acc1 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr + 8), acc1);
      acc2 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr + 16), acc2);
      acc3 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr + 24), acc3);
    }
    _mm256_storeu_ps(m + j, acc0);
    _mm256_storeu_ps(m + j + 8, acc1);
    _mm256_storeu_ps(m + j + 16, acc2);
    _mm256_storeu_ps(m + j + 24, acc3);
  }
  for (; j + 16 <= nj; j += 16) {
    __m256 acc0 = _mm256_loadu_ps(m + j);
    __m256 acc1 = _mm256_loadu_ps(m + j + 8);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const __m256 dv = _mm256_set1_ps(d[k]);
      const float* gr = gj + k * nj;
      acc0 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr), acc0);
      acc1 = _mm256_fmadd_ps(dv, _mm256_loadu_ps(gr + 8), acc1);
    }
    _mm256_storeu_ps(m + j, acc0);
    _mm256_storeu_ps(m + j + 8, acc1);
  }
  for (; j + 8 <= nj; j += 8) {
    __m256 acc = _mm256_loadu_ps(m + j);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(d[k]), _mm256_loadu_ps(gj + k * nj),
                            acc);
    }
    _mm256_storeu_ps(m + j, acc);
  }
  for (; j < nj; ++j) {
    float acc = m[j];
    for (std::int64_t k = 0; k < kc; ++k)
      acc = std::fmaf(d[k], g[k * nj + j], acc);
    m[j] = acc;
  }
}

// The payoff kernel for the row-blocked engine: a single rank-1 update is
// load-bound (one g load feeds one FMA, so the FMA units idle half the
// time); with four accumulator rows each g vector feeds four FMAs and the
// loop turns compute-bound. 16-wide j blocks × 4 rows use 8 accumulator
// registers + 2 g registers, leaving room for the broadcast temporaries.
void axpy4_j_avx2(const float* const* d, const float* g, float* const* m,
                  std::int64_t kc, std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 16 <= nj; j += 16) {
    __m256 a00 = _mm256_loadu_ps(m[0] + j), a01 = _mm256_loadu_ps(m[0] + j + 8);
    __m256 a10 = _mm256_loadu_ps(m[1] + j), a11 = _mm256_loadu_ps(m[1] + j + 8);
    __m256 a20 = _mm256_loadu_ps(m[2] + j), a21 = _mm256_loadu_ps(m[2] + j + 8);
    __m256 a30 = _mm256_loadu_ps(m[3] + j), a31 = _mm256_loadu_ps(m[3] + j + 8);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* gr = gj + k * nj;
      const __m256 g0 = _mm256_loadu_ps(gr);
      const __m256 g1 = _mm256_loadu_ps(gr + 8);
      __m256 dv = _mm256_set1_ps(d[0][k]);
      a00 = _mm256_fmadd_ps(dv, g0, a00);
      a01 = _mm256_fmadd_ps(dv, g1, a01);
      dv = _mm256_set1_ps(d[1][k]);
      a10 = _mm256_fmadd_ps(dv, g0, a10);
      a11 = _mm256_fmadd_ps(dv, g1, a11);
      dv = _mm256_set1_ps(d[2][k]);
      a20 = _mm256_fmadd_ps(dv, g0, a20);
      a21 = _mm256_fmadd_ps(dv, g1, a21);
      dv = _mm256_set1_ps(d[3][k]);
      a30 = _mm256_fmadd_ps(dv, g0, a30);
      a31 = _mm256_fmadd_ps(dv, g1, a31);
    }
    _mm256_storeu_ps(m[0] + j, a00);
    _mm256_storeu_ps(m[0] + j + 8, a01);
    _mm256_storeu_ps(m[1] + j, a10);
    _mm256_storeu_ps(m[1] + j + 8, a11);
    _mm256_storeu_ps(m[2] + j, a20);
    _mm256_storeu_ps(m[2] + j + 8, a21);
    _mm256_storeu_ps(m[3] + j, a30);
    _mm256_storeu_ps(m[3] + j + 8, a31);
  }
  for (; j + 8 <= nj; j += 8) {
    __m256 a0 = _mm256_loadu_ps(m[0] + j);
    __m256 a1 = _mm256_loadu_ps(m[1] + j);
    __m256 a2 = _mm256_loadu_ps(m[2] + j);
    __m256 a3 = _mm256_loadu_ps(m[3] + j);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const __m256 g0 = _mm256_loadu_ps(gj + k * nj);
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(d[0][k]), g0, a0);
      a1 = _mm256_fmadd_ps(_mm256_set1_ps(d[1][k]), g0, a1);
      a2 = _mm256_fmadd_ps(_mm256_set1_ps(d[2][k]), g0, a2);
      a3 = _mm256_fmadd_ps(_mm256_set1_ps(d[3][k]), g0, a3);
    }
    _mm256_storeu_ps(m[0] + j, a0);
    _mm256_storeu_ps(m[1] + j, a1);
    _mm256_storeu_ps(m[2] + j, a2);
    _mm256_storeu_ps(m[3] + j, a3);
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

// Eight accumulator rows per g pass: the row count is the factor by which
// one streamed ĝ plane is reused, so the widest block the register file
// takes (8 accumulators + 1 g + broadcast temporaries) minimizes L2
// traffic on the ĝ working set — the engine's actual bound once the FMA
// chains saturate.
void axpy8_j_avx2(const float* const* d, const float* g, float* const* m,
                  std::int64_t kc, std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 8 <= nj; j += 8) {
    __m256 a0 = _mm256_loadu_ps(m[0] + j);
    __m256 a1 = _mm256_loadu_ps(m[1] + j);
    __m256 a2 = _mm256_loadu_ps(m[2] + j);
    __m256 a3 = _mm256_loadu_ps(m[3] + j);
    __m256 a4 = _mm256_loadu_ps(m[4] + j);
    __m256 a5 = _mm256_loadu_ps(m[5] + j);
    __m256 a6 = _mm256_loadu_ps(m[6] + j);
    __m256 a7 = _mm256_loadu_ps(m[7] + j);
    const float* gj = g + j;
    for (std::int64_t k = 0; k < kc; ++k) {
      const __m256 g0 = _mm256_loadu_ps(gj + k * nj);
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(d[0][k]), g0, a0);
      a1 = _mm256_fmadd_ps(_mm256_set1_ps(d[1][k]), g0, a1);
      a2 = _mm256_fmadd_ps(_mm256_set1_ps(d[2][k]), g0, a2);
      a3 = _mm256_fmadd_ps(_mm256_set1_ps(d[3][k]), g0, a3);
      a4 = _mm256_fmadd_ps(_mm256_set1_ps(d[4][k]), g0, a4);
      a5 = _mm256_fmadd_ps(_mm256_set1_ps(d[5][k]), g0, a5);
      a6 = _mm256_fmadd_ps(_mm256_set1_ps(d[6][k]), g0, a6);
      a7 = _mm256_fmadd_ps(_mm256_set1_ps(d[7][k]), g0, a7);
    }
    _mm256_storeu_ps(m[0] + j, a0);
    _mm256_storeu_ps(m[1] + j, a1);
    _mm256_storeu_ps(m[2] + j, a2);
    _mm256_storeu_ps(m[3] + j, a3);
    _mm256_storeu_ps(m[4] + j, a4);
    _mm256_storeu_ps(m[5] + j, a5);
    _mm256_storeu_ps(m[6] + j, a6);
    _mm256_storeu_ps(m[7] + j, a7);
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

void axpy_rank1_multi_avx2(const float* const* ds, const float* g,
                           float* const* ms, int rows, std::int64_t kc,
                           std::int64_t nj) {
  // Compact away null (padding) rows, then run full octets and quads
  // through the blocked kernels and leftovers through the plain one.
  // Per-row term order is identical everywhere, so the split is invisible
  // to the contract.
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
      axpy8_j_avx2(d, g, m, kc, nj);
      n = 0;
    }
    if (r == rows) break;
  }
  if (n >= 6) {
    // Ragged 6- or 7-row remainder: fill the octet with dummy rows that
    // read a real d̂ row and write a thread-local sink, and run the 8-row
    // kernel anyway. Two wasted FMA chains are cheaper than peeling the
    // leftovers through the load-bound single-row kernel, and each real
    // row's chain is independent of the dummies, so results are
    // bit-identical to the per-row split.
    static thread_local std::vector<float> sink;
    if (static_cast<std::int64_t>(sink.size()) < nj)
      sink.resize(static_cast<std::size_t>(nj));
    for (int i = n; i < 8; ++i) {
      d[i] = d[0];
      m[i] = sink.data();
    }
    axpy8_j_avx2(d, g, m, kc, nj);
    return;
  }
  if (n >= 4) {
    axpy4_j_avx2(d, g, m, kc, nj);
    d[0] = d[4];
    d[1] = d[5];
    d[2] = d[6];
    m[0] = m[4];
    m[1] = m[5];
    m[2] = m[6];
    n -= 4;
  }
  for (int i = 0; i < n; ++i) axpy_rank1_avx2(d[i], g, m[i], kc, nj);
}

// Dense like transform_cols (zero A^T entries folded in): branch-free
// inner loop, ascending t, one FMA per term.
void out_transform_avx2(const float* at, int alpha, const float* m,
                        std::int64_t mstride, float* y, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int t = 0; t < alpha; ++t) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(at[t]),
                            _mm256_loadu_ps(m + static_cast<std::int64_t>(t) *
                                                    mstride + j),
                            acc);
    }
    _mm256_storeu_ps(y + j, acc);
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

const HostKernels* host_kernels_avx2() {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
    return nullptr;
  static const HostKernels table = {
      transform_cols_avx2, axpy_rank1_avx2, axpy_rank1_multi_avx2,
      out_transform_avx2,  "avx2",          HostIsa::kAvx2,
  };
  return &table;
}

}  // namespace iwg::core::detail

#else  // !(__AVX2__ && __FMA__): built for another target; never selectable.

namespace iwg::core::detail {
const HostKernels* host_kernels_avx2() { return nullptr; }
}  // namespace iwg::core::detail

#endif
