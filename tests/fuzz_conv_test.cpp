// Randomized property sweep: for many random geometries, the full public
// conv2d/deconv2d path (boundary planning + Γ host kernels + GEMM tail)
// must match direct convolution, and repeated runs must be bit-identical
// (determinism).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/conv_api.hpp"
#include "core/host_kernels.hpp"
#include "core/indirect.hpp"
#include "core/selector.hpp"
#include "tensor/layout.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"

namespace iwg::core {
namespace {

ConvShape random_shape(Rng& rng) {
  ConvShape s;
  s.fw = 2 + static_cast<std::int64_t>(rng.below(8));  // 2..9
  s.fh = 1 + static_cast<std::int64_t>(rng.below(4));
  s.n = 1 + static_cast<std::int64_t>(rng.below(3));
  s.ic = 1 + static_cast<std::int64_t>(rng.below(9));
  s.oc = 1 + static_cast<std::int64_t>(rng.below(9));
  s.ph = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(s.fh)));
  s.pw = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(s.fw)));
  s.ih = s.fh + static_cast<std::int64_t>(rng.below(10));
  s.iw = s.fw + static_cast<std::int64_t>(rng.below(24));
  // Ensure non-empty output.
  while (s.oh() < 1) ++s.ih;
  while (s.ow() < 1) ++s.iw;
  s.validate();
  return s;
}

TEST(FuzzConv, ForwardMatchesDirectOnRandomGeometries) {
  Rng rng(20240812);
  int worst_r = 0;
  double worst = 0.0;
  for (int trial = 0; trial < 48; ++trial) {
    const ConvShape s = random_shape(rng);
    Rng data(1000 + static_cast<unsigned>(trial));
    TensorF x({s.n, s.ih, s.iw, s.ic});
    x.fill_uniform(data, -1.0f, 1.0f);
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    const TensorF want = ref::conv2d_direct(x, w, s);
    const TensorF got = conv2d(x, w, s);
    const double d = max_rel_diff(got, want);
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;  // r >= 7 plans use alpha = 16
    EXPECT_LT(d, tol) << "trial " << trial << " shape " << s.to_string();
    if (d > worst) {
      worst = d;
      worst_r = static_cast<int>(s.fw);
    }
  }
  // The worst deviation should come from the α = 16 kernels if anywhere.
  if (worst > 5e-4) {
    EXPECT_GE(worst_r, 7);
  }
}

TEST(FuzzConv, SelectorChosenPlansMatchFp64DirectOnRandomGeometries) {
  // Route fuzzed shapes through the autotuner: whatever plan the selector
  // picks (winograd chain or GEMM fallback) must agree with an FP64 direct
  // reference, so the search can never select a numerically broken plan.
  Rng rng(31337);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  for (int trial = 0; trial < 12; ++trial) {
    const ConvShape s = random_shape(rng);
    const auto choice = select_algorithm(s, dev, /*samples=*/1,
                                         TuningBudget{8});
    const auto plan = choice.executable_plan(s);
    ASSERT_FALSE(plan.empty()) << s.to_string();
    Rng data(3000 + static_cast<unsigned>(trial));
    TensorF x({s.n, s.ih, s.iw, s.ic});
    x.fill_uniform(data, -1.0f, 1.0f);
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    const TensorD want = ref::conv2d_direct_fp64(x, w, s);
    const TensorF got = conv2d(x, w, s, plan);
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;  // r >= 7 plans use alpha = 16
    EXPECT_LT(average_relative_error(got, want), tol)
        << "trial " << trial << " shape " << s.to_string() << " plan "
        << choice.description;
  }
}

TEST(FuzzConv, BackwardMatchesDirectOnRandomGeometries) {
  Rng rng(777);
  for (int trial = 0; trial < 24; ++trial) {
    const ConvShape s = random_shape(rng);
    Rng data(2000 + static_cast<unsigned>(trial));
    TensorF dy({s.n, s.oh(), s.ow(), s.oc});
    dy.fill_uniform(data, -1.0f, 1.0f);
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    const TensorF want = ref::deconv2d_direct(dy, w, s);
    const TensorF got = deconv2d(dy, w, s);
    ASSERT_TRUE(got.same_shape(want)) << s.to_string();
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;  // r >= 7 plans use alpha = 16
    EXPECT_LT(max_rel_diff(got, want), tol)
        << "trial " << trial << " shape " << s.to_string();
  }
}

// Dispatch-aware fuzz: each trial force-selects a random ISA from whatever
// this build/CPU carries, then runs the full conv2d/deconv2d path against
// an FP64 direct reference. Together with the IWG_HOST_ISA env override in
// the dispatcher, this keeps the downgrade paths (scalar on an AVX2 host,
// scalar-only CI leg) exercised by the same property suite as the fast
// tables.
TEST(FuzzConv, RandomIsaDowngradeMatchesFp64Direct) {
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  const auto avail = host_isa_available();
  Rng rng(424242);
  for (int trial = 0; trial < 32; ++trial) {
    const HostIsa isa = avail[rng.below(avail.size())];
    ASSERT_TRUE(set_host_isa(isa));
    const ConvShape s = random_shape(rng);
    Rng data(6000 + static_cast<unsigned>(trial));
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;
    if (trial % 3 == 2) {
      TensorF dy({s.n, s.oh(), s.ow(), s.oc});
      dy.fill_uniform(data, -1.0f, 1.0f);
      const TensorF got = deconv2d(dy, w, s);
      const TensorF want = ref::deconv2d_direct(dy, w, s);
      EXPECT_LT(max_rel_diff(got, want), tol)
          << "trial " << trial << " isa " << host_isa_name(isa) << " shape "
          << s.to_string();
    } else {
      TensorF x({s.n, s.ih, s.iw, s.ic});
      x.fill_uniform(data, -1.0f, 1.0f);
      const TensorF got = conv2d(x, w, s);
      const TensorD want = ref::conv2d_direct_fp64(x, w, s);
      EXPECT_LT(average_relative_error(got, want), tol)
          << "trial " << trial << " isa " << host_isa_name(isa) << " shape "
          << s.to_string();
    }
  }
}

TEST(FuzzConv, RandomIsaSelectorRoutedPlansMatchFp64Direct) {
  // A few selector-routed trials per ISA: the tuned plan (Γ chain or GEMM
  // fallback) must stay correct whichever kernel table executes it.
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  const auto dev = sim::DeviceProfile::rtx3060ti();
  Rng rng(515151);
  for (int trial = 0; trial < 6; ++trial) {
    const HostIsa isa =
        host_isa_available()[rng.below(host_isa_available().size())];
    ASSERT_TRUE(set_host_isa(isa));
    const ConvShape s = random_shape(rng);
    const auto choice = select_algorithm(s, dev, /*samples=*/1,
                                         TuningBudget{8});
    const auto plan = choice.executable_plan(s);
    ASSERT_FALSE(plan.empty()) << s.to_string();
    Rng data(7000 + static_cast<unsigned>(trial));
    TensorF x({s.n, s.ih, s.iw, s.ic});
    x.fill_uniform(data, -1.0f, 1.0f);
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    const TensorD want = ref::conv2d_direct_fp64(x, w, s);
    const TensorF got = conv2d(x, w, s, plan);
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;
    EXPECT_LT(average_relative_error(got, want), tol)
        << "trial " << trial << " isa " << host_isa_name(isa) << " shape "
        << s.to_string() << " plan " << choice.description;
  }
}

// Ragged fuzz: random mixed-shape batches through the indirect Γ dispatch,
// each image judged against an FP64 direct reference. This covers geometry
// combinations (shape-class counts, α mixes, pad widths) the structured
// parity tests in indirect_conv_test.cpp don't enumerate.
TEST(FuzzConv, IndirectRaggedBatchesMatchFp64Direct) {
  Rng rng(868686);
  for (int trial = 0; trial < 12; ++trial) {
    // Shared dispatch geometry; per-image spatial extents vary.
    ConvShape geom = random_shape(rng);
    geom.n = 1;
    const std::size_t count = 2 + rng.below(5);  // 2..6 images
    Rng data(8000 + static_cast<unsigned>(trial));
    TensorF w({geom.oc, geom.fh, geom.fw, geom.ic});
    w.fill_uniform(data, -1.0f, 1.0f);
    std::vector<ConvShape> shapes;
    std::vector<TensorF> xs(count), ys(count);
    std::vector<ImageView> views(count);
    for (std::size_t i = 0; i < count; ++i) {
      ConvShape s = geom;
      s.ih = s.fh + static_cast<std::int64_t>(rng.below(10));
      s.iw = s.fw + static_cast<std::int64_t>(rng.below(24));
      while (s.oh() < 1) ++s.ih;
      while (s.ow() < 1) ++s.iw;
      s.validate();
      xs[i].reset({1, s.ih, s.iw, s.ic});
      xs[i].fill_uniform(data, -1.0f, 1.0f);
      ys[i].reset({1, s.oh(), s.ow(), s.oc});
      views[i] = ImageView{xs[i].data(), ys[i].data(), s.ih, s.iw};
      shapes.push_back(s);
    }
    conv2d_gamma_host_indirect(views, w, geom);
    const double tol = geom.fw >= 7 ? 1e-2 : 5e-4;
    for (std::size_t i = 0; i < count; ++i) {
      const TensorD want = ref::conv2d_direct_fp64(xs[i], w, shapes[i]);
      EXPECT_LT(average_relative_error(ys[i], want), tol)
          << "trial " << trial << " image " << i << " shape "
          << shapes[i].to_string();
    }
  }
}

// The implicit-GEMM body — the GEMM engine at stride 1 and every stride-2
// layer — against FP64 direct convolution, for r = 1–9, padding
// 0..⌊r/2⌋, odd and even H and W, channel counts off the 8-lane grid, on
// every ISA. Data in [1, 2] as in the Table 3 bench, so the bound is the
// strict-FP32 GEMM band EXPERIMENTS.md measures there (0.9e-7–9e-7 up to
// IC = 128), rounded up. Stride 2 is judged against the stride-1 truth
// sampled at even positions.
TEST(FuzzConv, ImplicitGemmMatchesFp64AtStrideOneAndTwo) {
  constexpr double kFp32GemmBound = 1e-6;
  struct IsaRestore {
    HostIsa prev = host_isa();
    ~IsaRestore() { set_host_isa(prev); }
  } restore;
  ConvOptions gemm;
  gemm.use_winograd = false;
  for (const HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    Rng rng(5150);
    for (std::int64_t r = 1; r <= 9; ++r) {
      for (const std::int64_t stride : {1, 2}) {
        for (int parity = 0; parity < 2; ++parity) {
          ConvShape s;
          s.n = 1 + static_cast<std::int64_t>(rng.below(2));
          s.fh = s.fw = r;
          s.ph = static_cast<std::int64_t>(
              rng.below(static_cast<std::uint64_t>(r / 2 + 1)));
          s.pw = static_cast<std::int64_t>(
              rng.below(static_cast<std::uint64_t>(r / 2 + 1)));
          do {
            s.ic = 1 + static_cast<std::int64_t>(rng.below(13));
          } while (s.ic % 8 == 0);
          do {
            s.oc = 1 + static_cast<std::int64_t>(rng.below(21));
          } while (s.oc % 8 == 0);
          // One odd and one even extent per trial, swapped between trials.
          s.ih = r + 2 * static_cast<std::int64_t>(rng.below(5)) + parity;
          s.iw = r + 2 * static_cast<std::int64_t>(rng.below(5)) + 1 - parity;
          s.validate();
          Rng data(9000 + static_cast<unsigned>(r * 4 + stride * 2 + parity));
          TensorF x({s.n, s.ih, s.iw, s.ic});
          x.fill_uniform(data, 1.0f, 2.0f);
          TensorF w({s.oc, s.fh, s.fw, s.ic});
          w.fill_uniform(data, 1.0f, 2.0f);
          const TensorD full = ref::conv2d_direct_fp64(x, w, s);
          const std::int64_t oh = strided_extent(s.oh(), stride);
          const std::int64_t ow = strided_extent(s.ow(), stride);
          TensorD want({s.n, oh, ow, s.oc});
          for (std::int64_t ni = 0; ni < s.n; ++ni)
            for (std::int64_t h = 0; h < oh; ++h)
              for (std::int64_t wo = 0; wo < ow; ++wo)
                for (std::int64_t oc = 0; oc < s.oc; ++oc)
                  want.at(ni, h, wo, oc) =
                      full.at(ni, h * stride, wo * stride, oc);
          const TensorF got = conv2d_strided(x, w, s, stride, gemm);
          ASSERT_TRUE(got.same_shape(TensorF({s.n, oh, ow, s.oc})));
          EXPECT_LT(average_relative_error(got, want), kFp32GemmBound)
              << host_isa_name(isa) << " stride " << stride << " shape "
              << s.to_string() << " pad " << s.ph << "," << s.pw;
        }
      }
    }
  }
}

TEST(FuzzConv, DeterministicAcrossRuns) {
  Rng rng(99);
  const ConvShape s = random_shape(rng);
  Rng data(42);
  TensorF x({s.n, s.ih, s.iw, s.ic});
  x.fill_uniform(data, -1.0f, 1.0f);
  TensorF w({s.oc, s.fh, s.fw, s.ic});
  w.fill_uniform(data, -1.0f, 1.0f);
  const TensorF a = conv2d(x, w, s);
  const TensorF b = conv2d(x, w, s);
  for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FuzzConv, SimCountingDoesNotChangeResults) {
  // Counter collection must be observation-only.
  ConvShape s;
  s.n = 1;
  s.ih = 5;
  s.iw = 12;
  s.ic = 8;
  s.oc = 16;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.validate();
  Rng data(5);
  TensorF x({s.n, s.ih, s.iw, s.ic});
  x.fill_uniform(data, -1.0f, 1.0f);
  TensorF w({s.oc, s.fh, s.fw, s.ic});
  w.fill_uniform(data, -1.0f, 1.0f);
  const auto plan = plan_single(s, GammaConfig::make(8, 6, 3));

  const TensorF y1 = conv2d_sim(x, w, s, plan);
  // Re-run the Γ segment with counters enabled.
  const TensorF wt = transpose_filter_to_fhwio(w);
  TensorF y2({s.n, s.oh(), s.ow(), s.oc});
  sim::GmemBuf xb(x.data(), x.size(), true);
  sim::GmemBuf wb(wt.data(), wt.size());
  sim::GmemBuf yb(y2.data(), y2.size());
  GammaKernel k(plan[0].cfg, s, ConvDir::kForward, xb, wb, yb, 0,
                plan[0].ow_len);
  sim::launch_all(k, k.grid(), /*counting=*/true);
  for (std::int64_t i = 0; i < s.n * s.oh(); ++i) {
    for (std::int64_t wcol = 0; wcol < plan[0].ow_len; ++wcol) {
      for (std::int64_t oc = 0; oc < s.oc; ++oc) {
        const std::int64_t hi = i % s.oh();
        const std::int64_t ni = i / s.oh();
        EXPECT_EQ(y1.at(ni, hi, wcol, oc), y2.at(ni, hi, wcol, oc));
      }
    }
  }
}

}  // namespace
}  // namespace iwg::core
