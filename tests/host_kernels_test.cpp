// Per-ISA parity suite for the host-kernel dispatch table.
//
// Every table host_kernels_for() returns is checked against the scalar
// reference under the contract host_kernels.hpp states per entry point:
//   transform_cols               bitwise-identical FP32 (dense sums)
//   axpy_rank1 / axpy_rank1_multi
//   / out_transform              ULP-bounded (FMA contraction allowed)
// Inputs cover every α the paper supports (4..16), ragged tail lengths
// around the 4/8/16-lane block widths, unaligned NHWC base pointers, null
// (padding) rows, and zero matrix entries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/conv_api.hpp"
#include "core/host_kernels.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {
namespace {

constexpr float kEps = std::numeric_limits<float>::epsilon();

// Channel counts straddling the lane-block boundaries (1×, 4×, 8×, 16×) so
// both the full-width vector body and the scalar ragged tail execute.
const std::int64_t kLaneCounts[] = {1, 3, 4, 5, 8, 9, 16, 17, 31, 32, 33};

std::vector<float> rand_buf(std::size_t n, unsigned seed, float lo = -1.0f,
                            float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

// The NHWC base pointers the engine hands these kernels are only
// float-aligned (interior arena ring slots, &x.at(n,h,w,0) at any w), so
// the suite deliberately runs everything one float off the allocator's
// natural alignment.
float* misalign(std::vector<float>& v) { return v.data() + 1; }

struct IsaRestore {
  HostIsa prev = host_isa();
  ~IsaRestore() { set_host_isa(prev); }
};

TEST(HostKernels, ScalarAlwaysAvailableAndFirst) {
  const auto avail = host_isa_available();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), HostIsa::kScalar);
  for (HostIsa isa : avail) {
    const HostKernels* t = host_kernels_for(isa);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->isa, isa);
    EXPECT_STREQ(t->name, host_isa_name(isa));
  }
}

TEST(HostKernels, ParseRoundTripsEveryName) {
  for (HostIsa isa : {HostIsa::kScalar, HostIsa::kAvx2, HostIsa::kNeon}) {
    const auto parsed = parse_host_isa(host_isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(parse_host_isa("native").has_value());
  EXPECT_FALSE(parse_host_isa("avx512").has_value());
  EXPECT_FALSE(parse_host_isa("").has_value());
}

TEST(HostKernels, SetHostIsaRejectsUnavailableAndKeepsSelection) {
  const IsaRestore restore;
  const auto avail = host_isa_available();
  for (HostIsa isa : avail) {
    ASSERT_TRUE(set_host_isa(isa));
    EXPECT_EQ(host_isa(), isa);
  }
  for (HostIsa isa : {HostIsa::kAvx2, HostIsa::kNeon}) {
    if (host_kernels_for(isa) != nullptr) continue;
    const HostIsa before = host_isa();
    EXPECT_FALSE(set_host_isa(isa));
    EXPECT_EQ(host_isa(), before);  // failed override leaves selection alone
  }
}

// --- transform_cols: BITWISE ------------------------------------------------

// Runs one (matrix, rows) case through `table` and the scalar reference and
// requires bit-identical output (memcmp, so ±0 and NaN patterns count too).
void check_transform_bitwise(const HostKernels& table, const float* m,
                             int rows_n, int cols, const float* const* rows,
                             std::int64_t nc, std::int64_t dst_stride) {
  const HostKernels& ref = detail::host_kernels_scalar();
  std::vector<float> got_buf(static_cast<std::size_t>(rows_n) * dst_stride + 1,
                             -7.5f);
  std::vector<float> want_buf(got_buf);
  table.transform_cols(m, rows_n, cols, rows, nc, misalign(got_buf),
                       dst_stride);
  ref.transform_cols(m, rows_n, cols, rows, nc, misalign(want_buf),
                     dst_stride);
  ASSERT_EQ(std::memcmp(got_buf.data(), want_buf.data(),
                        got_buf.size() * sizeof(float)),
            0);
}

TEST(HostKernels, TransformColsBitwiseAcrossAllAlphaAndTails) {
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    for (int alpha = 4; alpha <= 16; ++alpha) {
      // D^T (α×α, the input transform) and G (α×3, the filter transform):
      // the exact matrices the engine feeds this kernel, zeros included.
      const WinogradPlan& plan = get_plan(alpha - 2, 3);
      for (std::int64_t nc : kLaneCounts) {
        std::vector<float> src =
            rand_buf(static_cast<std::size_t>(alpha) * nc + 1,
                     1000u + static_cast<unsigned>(alpha * 100 + nc));
        const float* rows[16];
        for (int e = 0; e < alpha; ++e) rows[e] = misalign(src) + e * nc;
        // Null out two rows: the boundary-tile padding case.
        rows[0] = nullptr;
        rows[alpha - 1] = nullptr;
        check_transform_bitwise(table, plan.bt_f.data(), alpha, alpha, rows,
                                nc, nc);
        check_transform_bitwise(table, plan.bt_f.data(), alpha, alpha, rows,
                                nc, nc + 5);  // strided dst
        // Rectangular: G is α×3, only 3 source rows.
        const float* grows[3] = {misalign(src), nullptr, misalign(src) + nc};
        check_transform_bitwise(table, plan.g_f.data(), alpha, 3, grows, nc,
                                nc);
      }
    }
  }
}

TEST(HostKernels, TransformColsZeroCoefficientsBitwise) {
  // A matrix that is mostly zeros (including a negative zero): the dense
  // contract folds every term in, so ±0 coefficients must produce the same
  // signed-zero arithmetic in every table — memcmp catches a table that
  // "optimizes" them away and flips a -0.0f.
  const float m[8] = {0.0f, 2.5f, -0.0f, 0.0f, -1.25f, 0.0f, 0.0f, 3.0f};
  std::vector<float> src = rand_buf(4 * 33 + 1, 42);
  const float* rows[4];
  for (int e = 0; e < 4; ++e) rows[e] = misalign(src) + e * 33;
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    check_transform_bitwise(table, m, 2, 4, rows, 33, 33);
  }
}

TEST(HostKernels, TransformColsAllRowsNullWritesZeros) {
  // Dense semantics: every term is mᵢₑ·0.0f, so each output is a sum of
  // signed zeros — numerically zero whatever the signs. Bitwise parity with
  // the scalar reference is checked on top of the numeric expectation.
  const float* rows[4] = {nullptr, nullptr, nullptr, nullptr};
  const WinogradPlan& plan = get_plan(2, 3);
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    std::vector<float> dst(static_cast<std::size_t>(plan.alpha) * 17, -3.0f);
    table.transform_cols(plan.bt_f.data(), plan.alpha, plan.alpha, rows, 17,
                         dst.data(), 17);
    for (float v : dst) EXPECT_EQ(v, 0.0f);
    check_transform_bitwise(table, plan.bt_f.data(), plan.alpha, plan.alpha,
                            rows, 17, 17);
  }
}

// --- axpy_rank1 / out_transform: ULP-BOUNDED --------------------------------

// |simd − scalar| ≤ K·ε·Σ|terms|: the SIMD table may fuse each
// multiply-add, saving at most one rounding per term relative to the
// -ffp-contract=off scalar reference. The factor 4 is headroom for the
// accumulated-value magnitude exceeding the per-term sum.
void expect_ulp_close(float got, float want, double term_abs_sum, int terms) {
  const double tol = 4.0 * terms * kEps * (term_abs_sum + 1.0);
  EXPECT_NEAR(got, want, tol) << "term_abs_sum=" << term_abs_sum;
}

TEST(HostKernels, AxpyRank1UlpBoundedAcrossShapes) {
  const HostKernels& ref = detail::host_kernels_scalar();
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    for (std::int64_t kc : {1, 3, 4, 7, 9, 32}) {
      for (std::int64_t nj : kLaneCounts) {
        const unsigned seed = static_cast<unsigned>(3000 + kc * 64 + nj);
        std::vector<float> d = rand_buf(kc, seed);
        std::vector<float> g(static_cast<std::size_t>(kc) * nj + 1);
        {
          Rng rng(seed + 1);
          for (float& x : g) x = rng.uniform(-1.0f, 1.0f);
        }
        std::vector<float> got = rand_buf(nj + 1, seed + 2);
        std::vector<float> want(got);
        table.axpy_rank1(d.data(), misalign(g), misalign(got), kc, nj);
        ref.axpy_rank1(d.data(), misalign(g), misalign(want), kc, nj);
        for (std::int64_t j = 0; j < nj; ++j) {
          double terms = std::abs(want[j + 1]);
          for (std::int64_t k = 0; k < kc; ++k)
            terms += std::abs(static_cast<double>(d[k]) * g[k * nj + j + 1]);
          expect_ulp_close(got[j + 1], want[j + 1], terms,
                           static_cast<int>(kc));
        }
        EXPECT_EQ(got[0], want[0]);  // byte before the span untouched
      }
    }
  }
}

TEST(HostKernels, AxpyRank1MultiMatchesPerRowSemantics) {
  // The blocked kernel's contract is per-row axpy_rank1: same ascending-k
  // term order, null d rows skipped with their m row untouched. Row counts
  // 1..13 exercise the octet, quad, and leftover paths and their
  // combinations; the null rows sprinkled in force the compaction logic to
  // split around them.
  const HostKernels& ref = detail::host_kernels_scalar();
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    for (int rows = 1; rows <= 13; ++rows) {
      for (std::int64_t nj : kLaneCounts) {
        const std::int64_t kc = 9;
        const unsigned seed = static_cast<unsigned>(4000 + rows * 64 + nj);
        std::vector<float> g(static_cast<std::size_t>(kc) * nj + 1);
        {
          Rng rng(seed);
          for (float& v : g) v = rng.uniform(-1.0f, 1.0f);
        }
        std::vector<std::vector<float>> d(rows), got(rows), want(rows);
        const float* ds[13];
        float* got_ms[13];
        float* want_ms[13];
        for (int r = 0; r < rows; ++r) {
          d[r] = rand_buf(kc, seed + 10 + r);
          got[r] = rand_buf(nj + 1, seed + 20 + r);
          want[r] = got[r];
          // Every third row is a padding row: null d, m must not move.
          ds[r] = r % 3 == 2 ? nullptr : d[r].data();
          got_ms[r] = misalign(got[r]);
          want_ms[r] = misalign(want[r]);
        }
        table.axpy_rank1_multi(ds, misalign(g), got_ms, rows, kc, nj);
        ref.axpy_rank1_multi(ds, misalign(g), want_ms, rows, kc, nj);
        for (int r = 0; r < rows; ++r) {
          if (ds[r] == nullptr) {
            // Untouched bit for bit, including the guard float.
            ASSERT_EQ(std::memcmp(got[r].data(), want[r].data(),
                                  got[r].size() * sizeof(float)),
                      0);
            continue;
          }
          for (std::int64_t j = 0; j < nj; ++j) {
            double terms = std::abs(want[r][j + 1]);
            for (std::int64_t k = 0; k < kc; ++k)
              terms +=
                  std::abs(static_cast<double>(d[r][k]) * g[k * nj + j + 1]);
            expect_ulp_close(got[r][j + 1], want[r][j + 1], terms,
                             static_cast<int>(kc));
          }
          EXPECT_EQ(got[r][0], want[r][0]);
        }
      }
    }
  }
}

TEST(HostKernels, OutTransformUlpBounded) {
  const HostKernels& ref = detail::host_kernels_scalar();
  for (HostIsa isa : host_isa_available()) {
    const HostKernels& table = *host_kernels_for(isa);
    SCOPED_TRACE(table.name);
    for (int alpha = 4; alpha <= 16; ++alpha) {
      const WinogradPlan& plan = get_plan(alpha - 2, 3);
      for (std::int64_t n : kLaneCounts) {
        std::vector<float> m =
            rand_buf(static_cast<std::size_t>(alpha) * (n + 3) + 1,
                     700 + static_cast<unsigned>(alpha * 37 + n));
        std::vector<float> got(n + 1, -9.0f);
        std::vector<float> want(n + 1, -9.0f);
        // Row 0 of A^T: contains both ±1 entries and (for larger α) zeros.
        const float* at_row = plan.at_f.data();
        table.out_transform(at_row, alpha, misalign(m), n + 3, misalign(got),
                            n);
        ref.out_transform(at_row, alpha, misalign(m), n + 3, misalign(want),
                          n);
        for (std::int64_t j = 1; j <= n; ++j) {
          double terms = 0.0;
          for (int t = 0; t < alpha; ++t)
            terms += std::abs(static_cast<double>(at_row[t]) *
                              m[static_cast<std::size_t>(t) * (n + 3) + j]);
          expect_ulp_close(got[j], want[j], terms, alpha);
        }
      }
    }
  }
}

// --- full-convolution cross-ISA agreement -----------------------------------

TensorF rand_tensor(std::initializer_list<std::int64_t> dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

// Routing a whole convolution through each table must agree with the scalar
// engine to within Winograd error amplification (not bitwise: the ULP
// kernels sit inside the transform sandwich).
TEST(HostKernels, FullConvolutionAgreesAcrossIsas) {
  const IsaRestore restore;
  struct Case {
    int n, ih, iw, ic, oc, f, p;
  };
  // Odd channel counts exercise ragged lanes; iw=13 with f=5 leaves a GEMM
  // tail segment in the boundary plan.
  const Case cases[] = {
      {1, 9, 9, 3, 5, 3, 1}, {2, 12, 13, 5, 4, 5, 2}, {1, 8, 8, 16, 8, 3, 0}};
  for (const Case& c : cases) {
    ConvShape s;
    s.n = c.n;
    s.ih = c.ih;
    s.iw = c.iw;
    s.ic = c.ic;
    s.oc = c.oc;
    s.fh = s.fw = c.f;
    s.ph = s.pw = c.p;
    s.validate();
    const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic},
                                  2000u + static_cast<unsigned>(c.f));
    const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic},
                                  2001u + static_cast<unsigned>(c.f));
    ASSERT_TRUE(set_host_isa(HostIsa::kScalar));
    const TensorF base = conv2d(x, w, s);
    const TensorD truth = ref::conv2d_direct_fp64(x, w, s);
    EXPECT_LT(average_relative_error(base, truth), 1e-4);
    for (HostIsa isa : host_isa_available()) {
      if (isa == HostIsa::kScalar) continue;
      ASSERT_TRUE(set_host_isa(isa));
      const TensorF out = conv2d(x, w, s);
      EXPECT_LT(max_rel_diff(out, base), 5e-4)
          << host_isa_name(isa) << " f" << c.f;
      EXPECT_LT(average_relative_error(out, truth), 1e-4)
          << host_isa_name(isa) << " f" << c.f;
    }
  }
}

}  // namespace
}  // namespace iwg::core
