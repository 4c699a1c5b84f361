// Tests of the Winograd weight-gradient extension: must match the direct
// filter-gradient for every filter width, padding, and ragged OW, and an
// FP64 truth on every host ISA within a stated bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/gamma_host.hpp"
#include "core/host_kernels.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"

namespace iwg::core {
namespace {

TensorF rand_tensor(std::initializer_list<std::int64_t> dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

class FilterGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(FilterGradSweep, MatchesDirect) {
  const int r = GetParam();
  ConvShape s;
  s.n = 2;
  s.ih = 9;
  s.iw = 13;  // OW not a multiple of the tile size: zero-padded tail tiles
  s.ic = 3;
  s.oc = 4;
  s.fh = r;
  s.fw = r;
  s.ph = r / 2;
  s.pw = r / 2;
  s.validate();
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 21);
  TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, 22);
  const TensorF want = ref::conv2d_filter_grad_direct(x, dy, s);
  const TensorF got = conv2d_filter_grad_winograd(x, dy, s);
  ASSERT_TRUE(got.same_shape(want));
  EXPECT_LT(max_rel_diff(got, want), r >= 8 ? 2e-2 : 2e-3) << "r=" << r;
}

INSTANTIATE_TEST_SUITE_P(FilterWidths, FilterGradSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9));

TEST(FilterGrad, NoPadding) {
  ConvShape s;
  s.n = 1;
  s.ih = 8;
  s.iw = 12;
  s.ic = 2;
  s.oc = 3;
  s.fh = 3;
  s.fw = 3;
  s.ph = 0;
  s.pw = 0;
  s.validate();
  const TensorF x = rand_tensor({1, 8, 12, 2}, 31);
  TensorF dy = rand_tensor({1, s.oh(), s.ow(), 3}, 32);
  EXPECT_LT(max_rel_diff(conv2d_filter_grad_winograd(x, dy, s),
                         ref::conv2d_filter_grad_direct(x, dy, s)),
            1e-3);
}

TEST(FilterGrad, RectangularFilter) {
  ConvShape s;
  s.n = 1;
  s.ih = 10;
  s.iw = 11;
  s.ic = 2;
  s.oc = 2;
  s.fh = 5;
  s.fw = 3;
  s.ph = 2;
  s.pw = 1;
  s.validate();
  const TensorF x = rand_tensor({1, 10, 11, 2}, 41);
  TensorF dy = rand_tensor({1, s.oh(), s.ow(), 2}, 42);
  EXPECT_LT(max_rel_diff(conv2d_filter_grad_winograd(x, dy, s),
                         ref::conv2d_filter_grad_direct(x, dy, s)),
            1e-3);
}

/// dW in FP64 with double accumulators:
/// dW[oc][fh][fw][ic] = Σ_{n,h,w} dY[n][h][w][oc] · X[n][h+fh−ph][w+fw−pw][ic].
std::vector<double> filter_grad_fp64(const TensorF& x, const TensorF& dy,
                                     const ConvShape& s) {
  std::vector<double> dw(static_cast<std::size_t>(s.oc * s.fh * s.fw * s.ic));
  for (std::int64_t oc = 0; oc < s.oc; ++oc) {
    for (std::int64_t fh = 0; fh < s.fh; ++fh) {
      for (std::int64_t fw = 0; fw < s.fw; ++fw) {
        for (std::int64_t ic = 0; ic < s.ic; ++ic) {
          double acc = 0.0;
          for (std::int64_t n = 0; n < s.n; ++n) {
            for (std::int64_t h = 0; h < s.oh(); ++h) {
              const std::int64_t ih = h + fh - s.ph;
              if (ih < 0 || ih >= s.ih) continue;
              for (std::int64_t w = 0; w < s.ow(); ++w) {
                const std::int64_t iw = w + fw - s.pw;
                if (iw < 0 || iw >= s.iw) continue;
                acc += static_cast<double>(dy.at(n, h, w, oc)) *
                       x.at(n, ih, iw, ic);
              }
            }
          }
          dw[static_cast<std::size_t>(((oc * s.fh + fh) * s.fw + fw) * s.ic +
                                      ic)] = acc;
        }
      }
    }
  }
  return dw;
}

double rel_l2(const TensorF& got, const std::vector<double>& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = got[static_cast<std::int64_t>(i)] - want[i];
    num += d * d;
    den += want[i] * want[i];
  }
  return std::sqrt(num / den);
}

struct IsaRestore {
  HostIsa prev = host_isa();
  ~IsaRestore() { set_host_isa(prev); }
};

TEST(FilterGrad, MatchesFp64OnEveryIsa) {
  // Every filter width 2-9 at every padding 0..r/2, OW odd and even (the
  // even widths leave zero-padded tail tiles too), N of 2 and 3, and channel
  // pairs on and off the 8-lane grid — full octets at 16 and 24, IC = 3 as
  // in VGG's first layer — so both lane axes and the ragged row blocks run.
  // Relative L2 error against FP64 must stay within 2x the largest error
  // the previous kernel (per-filter-row tasks, single-row saxpy with zero
  // skips, scalar out-transform) measured on these same inputs, worst over
  // the scalar and AVX2 tables: 1.50e-6 at α = 8 (r ≤ 7) and 1.77e-4 at
  // α = 16 (r = 8, 9). The blocked-GEMM kernel measures 1.45e-6 and
  // 1.73e-4.
  constexpr double kPrevWorst[2] = {1.50e-6, 1.77e-4};
  const std::int64_t channels[][2] = {{3, 16}, {16, 24}, {13, 21}, {24, 9},
                                      {17, 32}, {8, 3}};
  IsaRestore restore;
  for (HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    double worst[2] = {0.0, 0.0};
    int index = 0;
    for (int r = 2; r <= 9; ++r) {
      for (int pad = 0; pad <= r / 2; ++pad, ++index) {
        ConvShape s;
        s.n = 2 + index % 2;
        s.ic = channels[index % 6][0];
        s.oc = channels[index % 6][1];
        s.fh = r;
        s.fw = r;
        s.ph = pad;
        s.pw = pad;
        s.ih = r + 4;
        s.iw = r + 9 + index % 2;  // OW alternates odd and even
        s.validate();
        const auto seed = static_cast<unsigned>(500 + 2 * index);
        const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, seed);
        const TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, seed + 1);
        const double err =
            rel_l2(conv2d_filter_grad_winograd(x, dy, s),
                   filter_grad_fp64(x, dy, s));
        SCOPED_TRACE(std::string(host_isa_name(isa)) + " " + s.to_string());
        EXPECT_LT(err, 2 * kPrevWorst[r <= 7 ? 0 : 1]);
        double& w = worst[r <= 7 ? 0 : 1];
        w = std::max(w, err);
      }
    }
    std::printf("[ %s ] worst relative L2: %.3g (alpha 8), %.3g (alpha 16)\n",
                host_isa_name(isa), worst[0], worst[1]);
  }
}

TEST(FilterGrad, MatchesFp64AcrossKChunksAndRowBlockPasses) {
  // Shapes large enough that the kernel's bounded scratch splits the work:
  // K-chunks of dY rows with an input-row halo (a), passes over groups of
  // accumulator row blocks sharing one panel build (b, d), and both at
  // once with OC on the lanes and both channel counts off the 8-lane grid
  // (c). Bound as above: 2x the previous kernel's worst relative L2 on
  // these inputs over both tables, 4.59e-6 (α = 8) and 1.28e-4 (α = 16);
  // the blocked-GEMM kernel measures 4.52e-6 and 1.29e-4.
  struct Case {
    std::int64_t n, hw, ic, oc, r;
  };
  const Case cases[] = {{16, 32, 16, 16, 3},   // (a) 8 K-chunks
                        {4, 4, 128, 128, 3},   // (b) 3 passes, 1 build
                        {4, 16, 44, 100, 5},   // (c) 2 passes × 4 chunks
                        {2, 12, 24, 60, 9}};   // (d) α = 16, 2 passes
  constexpr double kPrevWorst[2] = {4.59e-6, 1.28e-4};
  IsaRestore restore;
  for (HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    for (const Case& c : cases) {
      ConvShape s;
      s.n = c.n;
      s.ih = c.hw;
      s.iw = c.hw;
      s.ic = c.ic;
      s.oc = c.oc;
      s.fh = c.r;
      s.fw = c.r;
      s.ph = c.r / 2;
      s.pw = c.r / 2;
      s.validate();
      const auto seed = static_cast<unsigned>(700 + c.ic);
      const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, seed);
      const TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, seed + 1);
      const double err = rel_l2(conv2d_filter_grad_winograd(x, dy, s),
                                filter_grad_fp64(x, dy, s));
      std::printf("[ %s ] %s relative L2 %.3g\n", host_isa_name(isa),
                  s.to_string().c_str(), err);
      EXPECT_LT(err, 2 * kPrevWorst[c.r <= 7 ? 0 : 1])
          << host_isa_name(isa) << " " << s.to_string();
    }
  }
}

TEST(FilterGrad, RejectsUnsupportedWidths) {
  ConvShape s;
  s.n = 1;
  s.ih = 4;
  s.iw = 14;
  s.ic = 1;
  s.oc = 1;
  s.fh = 1;
  s.fw = 11;
  s.ph = 0;
  s.pw = 5;
  s.validate();
  TensorF x({1, 4, 14, 1});
  TensorF dy({1, s.oh(), s.ow(), 1});
  EXPECT_THROW(conv2d_filter_grad_winograd(x, dy, s), Error);
}

}  // namespace
}  // namespace iwg::core
