// Host-engine validation: Γα(n,r) convolution must match direct convolution
// for every (n, r) the paper supports, across paddings, boundary widths,
// channel counts, and for the backward (deconvolution) pass.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "core/host_kernels.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {
namespace {

struct HostCase {
  int alpha, n, r;
  Variant variant;
  std::string label;
};

TensorF rand_tensor(std::initializer_list<std::int64_t> dims, unsigned seed,
                    float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, lo, hi);
  return t;
}

double tol_for(int alpha) { return alpha >= 16 ? 5e-3 : 1e-4; }

class GammaHostSweep : public ::testing::TestWithParam<HostCase> {};

TEST_P(GammaHostSweep, MatchesDirectExactTiling) {
  const HostCase& c = GetParam();
  const GammaConfig cfg = GammaConfig::make(c.alpha, c.n, c.r, c.variant);
  // OW chosen as a multiple of the segment granularity: pure Γ path.
  const std::int64_t gran = c.n * (c.variant == Variant::kRuse ? 2 : 1);
  ConvShape s;
  s.n = 2;
  s.ic = 5;
  s.oc = 7;
  s.fh = 3;
  s.fw = c.r;
  s.ph = 1;
  s.pw = c.r / 2;
  s.iw = 2 * gran - 2 * s.pw + c.r - 1;
  s.ih = 6;
  s.validate();
  ASSERT_EQ(s.ow() % gran, 0);

  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 11);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 12);
  const TensorF want = ref::conv2d_direct(x, w, s);
  TensorF got({s.n, s.oh(), s.ow(), s.oc});
  conv2d_gamma_host_segment(x, w, s, cfg, 0, s.ow(), got);
  EXPECT_LT(max_rel_diff(got, want), tol_for(c.alpha)) << c.label;
}

TEST_P(GammaHostSweep, MatchesDirectWithBoundaryPlan) {
  const HostCase& c = GetParam();
  // OW NOT divisible by n: exercises the §5.5 segmentation.
  ConvShape s;
  s.n = 1;
  s.ic = 4;
  s.oc = 6;
  s.fh = 2;
  s.fw = c.r;
  s.ph = 0;
  s.pw = c.r / 2;
  s.iw = 2 * c.n + 1 + c.r - 1 - 2 * s.pw;
  s.ih = 5;
  s.validate();
  ASSERT_NE(s.ow() % c.n, 0);

  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 21);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 22);
  const TensorF want = ref::conv2d_direct(x, w, s);
  const TensorF got = conv2d_gamma_host(x, w, s, plan_for(s));
  EXPECT_LT(max_rel_diff(got, want), tol_for(c.alpha)) << c.label;
}

std::vector<HostCase> host_cases() {
  std::vector<HostCase> v;
  for (int r = 2; r <= 3; ++r)
    v.push_back({4, 5 - r, r, Variant::kBase,
                 "g4_" + std::to_string(5 - r) + "_" + std::to_string(r)});
  for (int r = 2; r <= 7; ++r)
    v.push_back({8, 9 - r, r, Variant::kBase,
                 "g8_" + std::to_string(9 - r) + "_" + std::to_string(r)});
  for (int r = 7; r <= 9; ++r)
    v.push_back({16, 17 - r, r, Variant::kBase,
                 "g16_" + std::to_string(17 - r) + "_" + std::to_string(r)});
  v.push_back({8, 4, 5, Variant::kRuse, "g8ruse_4_5"});
  v.push_back({8, 2, 7, Variant::kRuse, "g8ruse_2_7"});
  v.push_back({16, 8, 9, Variant::kRuse, "g16ruse_8_9"});
  v.push_back({16, 10, 7, Variant::kC64, "g16c64_10_7"});
  v.push_back({16, 8, 9, Variant::kC64, "g16c64_8_9"});
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GammaHostSweep,
                         ::testing::ValuesIn(host_cases()),
                         [](const auto& info) { return info.param.label; });

TEST(GammaHost, FullApiAcrossFilterWidths) {
  for (int r = 2; r <= 9; ++r) {
    ConvShape s;
    s.n = 2;
    s.ic = 3;
    s.oc = 4;
    s.fh = r;
    s.fw = r;
    s.ph = r / 2;
    s.pw = r / 2;
    s.ih = 13;
    s.iw = 13;  // odd: boundary treatment active for most n
    s.validate();
    const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 30 + r);
    const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 40 + r);
    const TensorF want = ref::conv2d_direct(x, w, s);
    const TensorF got = conv2d(x, w, s);
    // α = 16 kernels (r ≥ 7) carry larger FP32 transform error (§6.2.2).
    EXPECT_LT(max_rel_diff(got, want), r >= 7 ? 5e-3 : 5e-4) << "r=" << r;
  }
}

TEST(GammaHost, NoPaddingAndAsymmetricPadding) {
  for (auto [ph, pw] : {std::pair<int, int>{0, 0}, {0, 1}, {2, 0}, {3, 3}}) {
    ConvShape s;
    s.n = 1;
    s.ic = 3;
    s.oc = 2;
    s.fh = 3;
    s.fw = 3;
    s.ph = ph;
    s.pw = pw;
    s.ih = 10;
    s.iw = 11;
    s.validate();
    const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 51);
    const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 52);
    EXPECT_LT(max_rel_diff(conv2d(x, w, s), ref::conv2d_direct(x, w, s)), 1e-4)
        << ph << "," << pw;
  }
}

TEST(GammaHost, LargePaddingBeyondHalfFilter) {
  // §5.1 optimizes pW ≤ ⌊r/2⌋ but correctness must hold beyond it.
  ConvShape s;
  s.n = 1;
  s.ic = 2;
  s.oc = 2;
  s.fh = 3;
  s.fw = 3;
  s.ph = 2;
  s.pw = 2;
  s.ih = 6;
  s.iw = 6;
  s.validate();
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 61);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 62);
  EXPECT_LT(max_rel_diff(conv2d(x, w, s), ref::conv2d_direct(x, w, s)), 1e-4);
}

TEST(GammaHost, DeconvMatchesDirectTransposed) {
  for (int r : {2, 3, 5, 7}) {
    ConvShape s;
    s.n = 2;
    s.ic = 3;
    s.oc = 5;
    s.fh = r;
    s.fw = r;
    s.ph = r / 2;
    s.pw = r / 2;
    s.ih = 12;
    s.iw = 14;
    s.validate();
    TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, 70 + r);
    const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 80 + r);
    const TensorF want = ref::deconv2d_direct(dy, w, s);
    const TensorF got = deconv2d(dy, w, s);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_LT(max_rel_diff(got, want), r >= 7 ? 5e-3 : 5e-4) << "r=" << r;
  }
}

TEST(GammaHost, SingleChannel) {
  ConvShape s;
  s.n = 1;
  s.ic = 1;
  s.oc = 1;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.ih = 8;
  s.iw = 12;
  s.validate();
  const TensorF x = rand_tensor({1, 8, 12, 1}, 91);
  const TensorF w = rand_tensor({1, 3, 3, 1}, 92);
  EXPECT_LT(max_rel_diff(conv2d(x, w, s), ref::conv2d_direct(x, w, s)), 1e-4);
}

TEST(GammaHost, RectangularFilterHeights) {
  // FH ≠ FW: Im2col-Winograd only constrains FW (§4.2).
  for (int fh : {1, 2, 5}) {
    ConvShape s;
    s.n = 1;
    s.ic = 3;
    s.oc = 4;
    s.fh = fh;
    s.fw = 3;
    s.ph = 0;
    s.pw = 1;
    s.ih = 9;
    s.iw = 12;
    s.validate();
    const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 100 + fh);
    const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 110 + fh);
    EXPECT_LT(max_rel_diff(conv2d(x, w, s), ref::conv2d_direct(x, w, s)), 1e-4)
        << "fh=" << fh;
  }
}

TEST(GammaHost, GemmOnlyOptionMatches) {
  ConvShape s;
  s.n = 1;
  s.ic = 3;
  s.oc = 4;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.ih = 7;
  s.iw = 7;
  s.validate();
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 121);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 122);
  ConvOptions opts;
  opts.use_winograd = false;
  EXPECT_LT(max_rel_diff(conv2d(x, w, s, opts), ref::conv2d_direct(x, w, s)),
            1e-5);
}

TEST(GammaHost, WinogradIsMoreAccurateThanGemmAtLargeChannels) {
  // The Table-3 effect: fewer multiplications → smaller rounding error.
  // Pin the scalar engine: the effect is about operation counts, and the
  // SIMD tables make each GEMM and Γ term one FMA (one rounding instead of
  // two), which moves the error independently of the operation count.
  const HostIsa prev = host_isa();
  ASSERT_TRUE(set_host_isa(HostIsa::kScalar));
  ConvShape s;
  s.n = 1;
  s.ic = 128;
  s.oc = 8;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.ih = 12;
  s.iw = 12;
  s.validate();
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 131, 1.0f, 2.0f);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 132, 1.0f, 2.0f);
  const TensorD truth = ref::conv2d_direct_fp64(x, w, s);
  ConvOptions gemm_only;
  gemm_only.use_winograd = false;
  const double err_wino = average_relative_error(conv2d(x, w, s), truth);
  const double err_gemm =
      average_relative_error(conv2d(x, w, s, gemm_only), truth);
  set_host_isa(prev);
  EXPECT_LT(err_wino, err_gemm);
}

// ĝ[fh][t][a][b] = Σ_j G[t][j] · tap(fh, j, a, b), the terms added to +0 in
// ascending j with one rounding per multiply and per add.
template <class Tap>
std::vector<float> literal_ghat(const WinogradPlan& plan, std::int64_t fh_n,
                                std::int64_t na, std::int64_t nb,
                                const Tap& tap) {
  std::vector<float> out(static_cast<std::size_t>(fh_n * plan.alpha * na * nb));
  std::size_t i = 0;
  for (std::int64_t fh = 0; fh < fh_n; ++fh) {
    for (int t = 0; t < plan.alpha; ++t) {
      for (std::int64_t a = 0; a < na; ++a) {
        for (std::int64_t b = 0; b < nb; ++b) {
          float acc = 0.0f;
          for (int j = 0; j < plan.r; ++j) {
            // volatile: the product is rounded before the add, never fused.
            const volatile float p =
                plan.g_f[static_cast<std::size_t>(t * plan.r + j)] *
                tap(fh, j, a, b);
            acc += p;
          }
          out[i++] = acc;
        }
      }
    }
  }
  return out;
}

TEST(FilterTransform, ForwardAndDeconvAreBitwiseTheLiteralFormula) {
  // The forward ĝ[fh][t][ic][oc] reads w[oc][fh][j][ic]; the deconv ĝ
  // [fh][t][oc][ic] reads w[oc][FH−1−fh][FW−1−j][ic] in place. Both must be
  // the per-element formula bit for bit on every ISA (transform_cols is
  // BITWISE), whichever axis the lanes run over.
  const std::int64_t channels[][2] = {
      {3, 16}, {16, 32}, {64, 64}, {128, 128}, {13, 21}};
  const GammaConfig cfgs[] = {GammaConfig::make(4, 2, 3),
                              GammaConfig::make(8, 6, 3),
                              GammaConfig::make(16, 10, 7)};
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  for (HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    for (const auto& ch : channels) {
      for (const GammaConfig& cfg : cfgs) {
        ConvShape s;
        s.n = 1;
        s.ic = ch[0];
        s.oc = ch[1];
        s.fh = 3;
        s.fw = cfg.r;
        s.ih = 8;
        s.iw = 16;
        const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic},
                                      static_cast<unsigned>(s.ic + cfg.alpha));
        const WinogradPlan& plan = get_plan(cfg.n, cfg.r);
        const std::vector<float> fwd = literal_ghat(
            plan, s.fh, s.ic, s.oc,
            [&](std::int64_t fh, int j, std::int64_t ic, std::int64_t oc) {
              return w.at(oc, fh, j, ic);
            });
        const std::vector<float> dec = literal_ghat(
            plan, s.fh, s.oc, s.ic,
            [&](std::int64_t fh, int j, std::int64_t oc, std::int64_t ic) {
              return w.at(oc, s.fh - 1 - fh, s.fw - 1 - j, ic);
            });
        const Buffer<float> got_fwd = transform_filter_host(w, s, cfg);
        const Buffer<float> got_dec = deconv_transform_filter_host(w, cfg);
        SCOPED_TRACE(std::string(host_isa_name(isa)) + " ic=" +
                     std::to_string(s.ic) + " oc=" + std::to_string(s.oc) +
                     " alpha=" + std::to_string(cfg.alpha));
        ASSERT_EQ(got_fwd.size(), fwd.size());
        ASSERT_EQ(got_dec.size(), dec.size());
        EXPECT_EQ(std::memcmp(got_fwd.data(), fwd.data(),
                              fwd.size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(got_dec.data(), dec.data(),
                              dec.size() * sizeof(float)),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace iwg::core
