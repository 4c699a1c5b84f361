// Gradient checks (finite differences) for every layer, plus semantic unit
// tests. Gradcheck validates both the layer backward rules and, for Conv2D,
// the full Winograd forward/backward/filter-grad stack end to end. The
// ConcurrentInference cases check that const Model::infer is safe and
// bitwise stable from many threads at once (this binary runs under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace iwg::nn {
namespace {

/// Scalar objective: sum of elementwise weighted outputs (weights fixed so
/// the objective is smooth and generic).
float objective(const TensorF& y) {
  float s = 0.0f;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    s += y[i] * (0.1f + 0.01f * static_cast<float>(i % 17));
  }
  return s;
}

TensorF objective_grad(const TensorF& y) {
  TensorF g = y;
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g[i] = 0.1f + 0.01f * static_cast<float>(i % 17);
  }
  return g;
}

/// Check dL/dx and dL/dparams of `layer` at input `x` by central differences.
/// `allowed_outliers` absorbs finite-difference breakdown at ReLU kinks
/// (the perturbation flips an activation sign and the two-sided difference
/// no longer measures the one-sided derivative backward uses).
void gradcheck(Layer& layer, TensorF x, float tol = 2e-2f,
               int max_checks = 24, int allowed_outliers = 0) {
  int outliers = 0;
  const TensorF y = layer.forward(x, /*train=*/true);
  const TensorF dy = objective_grad(y);
  for (Param* p : layer.params()) p->zero_grad();
  const TensorF dx = layer.backward(dy);

  const float eps = 3e-3f;
  // Input gradient.
  Rng pick(99);
  for (int k = 0; k < max_checks; ++k) {
    const std::int64_t i =
        static_cast<std::int64_t>(pick.below(static_cast<std::uint64_t>(x.size())));
    const float saved = x[i];
    x[i] = saved + eps;
    const float lp = objective(layer.forward(x, true));
    x[i] = saved - eps;
    const float lm = objective(layer.forward(x, true));
    x[i] = saved;
    const float want = (lp - lm) / (2 * eps);
    if (std::abs(dx[i] - want) > tol * (1.0f + std::abs(want))) {
      ++outliers;
      EXPECT_LE(outliers, allowed_outliers) << "input grad at " << i << ": "
                                            << dx[i] << " vs " << want;
    }
  }
  // Parameter gradients (re-run forward to restore caches).
  layer.forward(x, true);
  for (Param* p : layer.params()) {
    for (int k = 0; k < max_checks / 2; ++k) {
      const std::int64_t i = static_cast<std::int64_t>(
          pick.below(static_cast<std::uint64_t>(p->value.size())));
      const float saved = p->value[i];
      // Param's contract: every in-place mutation of `value` bumps `version`
      // (otherwise the filter-transform cache would serve stale transforms
      // and the perturbation would not reach the output).
      p->value[i] = saved + eps;
      ++p->version;
      const float lp = objective(layer.forward(x, true));
      p->value[i] = saved - eps;
      ++p->version;
      const float lm = objective(layer.forward(x, true));
      p->value[i] = saved;
      ++p->version;
      const float want = (lp - lm) / (2 * eps);
      if (std::abs(p->grad[i] - want) > tol * (1.0f + std::abs(want))) {
        ++outliers;
        EXPECT_LE(outliers, allowed_outliers)
            << p->name << " grad at " << i << ": " << p->grad[i] << " vs "
            << want;
      }
    }
  }
}

TensorF rand_input(std::initializer_list<std::int64_t> dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

TEST(NnGradcheck, Conv2DWinogradUnitStride) {
  Rng rng(1);
  Conv2D conv(3, 4, 3, 1, 1, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 6, 7, 3}, 2));
}

TEST(NnGradcheck, Conv2DGemmUnitStride) {
  Rng rng(3);
  Conv2D conv(3, 4, 3, 1, 1, ConvEngine::kGemm, rng);
  gradcheck(conv, rand_input({2, 6, 7, 3}, 4));
}

TEST(NnGradcheck, Conv2DWinograd5x5) {
  Rng rng(5);
  Conv2D conv(2, 3, 5, 1, 2, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({1, 8, 9, 2}, 6));
}

TEST(NnGradcheck, Conv2DStride2) {
  Rng rng(7);
  Conv2D conv(3, 4, 3, 2, 1, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 8, 8, 3}, 8));
}

TEST(NnGradcheck, Conv2DPointwise) {
  Rng rng(9);
  Conv2D conv(4, 5, 1, 1, 0, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 4, 4, 4}, 10));
}

TEST(NnGradcheck, BatchNorm) {
  BatchNorm2D bn(5);
  gradcheck(bn, rand_input({3, 4, 4, 5}, 11), 3e-2f, 24, 1);
}

TEST(NnGradcheck, LeakyReLU) {
  LeakyReLU relu;
  gradcheck(relu, rand_input({2, 4, 4, 3}, 12));
}

TEST(NnGradcheck, MaxPool) {
  MaxPool2x2 pool;
  gradcheck(pool, rand_input({2, 6, 6, 3}, 13));
}

TEST(NnGradcheck, GlobalAvgPool) {
  GlobalAvgPool pool;
  gradcheck(pool, rand_input({2, 4, 4, 3}, 14));
}

TEST(NnGradcheck, Linear) {
  Rng rng(15);
  Linear lin(12, 7, rng);
  gradcheck(lin, rand_input({4, 12}, 16));
}

TEST(NnGradcheck, ResidualBlockIdentity) {
  Rng rng(17);
  ResidualBlock block(4, 4, 1, ConvEngine::kWinograd, rng);
  gradcheck(block, rand_input({1, 6, 6, 4}, 18), 3e-2f, 24, 4);
}

TEST(NnGradcheck, ResidualBlockProjection) {
  Rng rng(19);
  ResidualBlock block(3, 6, 2, ConvEngine::kWinograd, rng);
  gradcheck(block, rand_input({1, 8, 8, 3}, 20), 3e-2f, 24, 4);
}

// ---------------------------------------------------------------------------

TEST(NnLayers, LinearInferEqualsForwardAndMatchesFp64) {
  // D = 37 and M = 19 leave ragged vector tails; 1, 8 and 13 rows cover a
  // lone row, one full 8-row block, and a block plus a ragged remainder.
  constexpr std::int64_t kD = 37;
  constexpr std::int64_t kM = 19;
  Rng rng(21);
  Linear lin(kD, kM, rng);
  Param* w = lin.params()[0];
  Param* b = lin.params()[1];
  b->value.fill_uniform(rng, -1.0f, 1.0f);
  const TensorF all = rand_input({13, kD}, 22);
  for (const std::int64_t n : {1, 8, 13}) {
    TensorF x({n, kD});
    std::copy_n(all.data(), n * kD, x.data());
    const TensorF y = lin.infer(x);
    const TensorF yf = lin.forward(x, /*train=*/false);
    ASSERT_TRUE(y.same_shape(yf));
    EXPECT_EQ(std::memcmp(y.data(), yf.data(),
                          static_cast<std::size_t>(y.size()) * sizeof(float)),
              0)
        << "n=" << n;
    for (std::int64_t i = 0; i < n; ++i) {
      // A row's bits do not depend on the batch it rides in.
      TensorF xi({1, kD});
      std::copy_n(x.data() + i * kD, kD, xi.data());
      const TensorF yi = lin.infer(xi);
      EXPECT_EQ(std::memcmp(yi.data(), y.data() + i * kM, kM * sizeof(float)),
                0)
          << "n=" << n << " row " << i;
      for (std::int64_t j = 0; j < kM; ++j) {
        double want = b->value[j];
        double mag = std::abs(want);
        for (std::int64_t k = 0; k < kD; ++k) {
          const double t = static_cast<double>(x[i * kD + k]) *
                           static_cast<double>(w->value[k * kM + j]);
          want += t;
          mag += std::abs(t);
        }
        // D + 1 roundings of at most ε/2 each, on the sum of magnitudes.
        const double bound = (kD + 1) * 0.5 * 1.1920929e-7 * mag;
        EXPECT_NEAR(y[i * kM + j], want, bound)
            << "n=" << n << " row " << i << " col " << j;
      }
    }
  }
}

TEST(NnLayers, LeakyReLUForwardValues) {
  LeakyReLU relu(0.01f);
  TensorF x({4});
  x[0] = -2.0f;
  x[1] = 0.0f;
  x[2] = 3.0f;
  x[3] = -0.5f;
  const TensorF y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.02f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
  EXPECT_FLOAT_EQ(y[3], -0.005f);
}

TEST(NnLayers, MaxPoolSelectsMaximum) {
  MaxPool2x2 pool;
  TensorF x({1, 2, 2, 1});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -1.0f;
  x[3] = 2.0f;
  const TensorF y = pool.forward(x, true);
  EXPECT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  TensorF dy({1, 1, 1, 1});
  dy[0] = 3.0f;
  const TensorF dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[1], 3.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(NnLayers, MaxPoolIsBitwiseTheLiteralWindowFormula) {
  // forward (train and eval), infer and backward against the per-window
  // formula: (0,0), (0,1), (1,0), (1,1) in order, a candidate wins only if
  // it is `>` the best so far (first maximum wins a tie; a NaN never
  // replaces the best), and dx is a zeroed tensor with 0.0f + g added at
  // the winner. Values on a coarse grid make ties common, and ±0 and NaN
  // are sprinkled in. The first shape pools inline, the second splits
  // into row chunks across the pool (more than 8 192 output floats).
  const std::int64_t shapes[][4] = {{2, 4, 6, 3}, {3, 64, 40, 13}};
  for (const auto& sh : shapes) {
    const std::int64_t n = sh[0], ih = sh[1], iw = sh[2], c = sh[3];
    SCOPED_TRACE("N=" + std::to_string(n) + " " + std::to_string(ih) + "x" +
                 std::to_string(iw) + " C=" + std::to_string(c));
    Rng rng(static_cast<unsigned>(50 + c));
    TensorF x({n, ih, iw, c});
    for (std::int64_t i = 0; i < x.size(); ++i) {
      const std::uint64_t pick = rng.below(16);
      x[i] = pick == 0   ? -0.0f
             : pick == 1 ? 0.0f
             : pick == 2 ? std::nanf("")
                         : 0.5f * static_cast<float>(rng.below(9)) - 2.0f;
    }
    TensorF dy({n, ih / 2, iw / 2, c});
    for (std::int64_t i = 0; i < dy.size(); ++i) {
      dy[i] = rng.below(8) == 0 ? -0.0f : rng.uniform(-1.0f, 1.0f);
    }
    TensorF want_y({n, ih / 2, iw / 2, c});
    TensorF want_dx({n, ih, iw, c});
    for (std::int64_t ni = 0; ni < n; ++ni) {
      for (std::int64_t h = 0; h < ih / 2; ++h) {
        for (std::int64_t w = 0; w < iw / 2; ++w) {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const std::int64_t hs[4] = {2 * h, 2 * h, 2 * h + 1, 2 * h + 1};
            const std::int64_t ws[4] = {2 * w, 2 * w + 1, 2 * w, 2 * w + 1};
            int win = 0;
            float best = x.at(ni, hs[0], ws[0], ch);
            for (int k = 1; k < 4; ++k) {
              if (x.at(ni, hs[k], ws[k], ch) > best) {
                best = x.at(ni, hs[k], ws[k], ch);
                win = k;
              }
            }
            want_y.at(ni, h, w, ch) = best;
            want_dx.at(ni, hs[win], ws[win], ch) += dy.at(ni, h, w, ch);
          }
        }
      }
    }
    const auto bytes = [](const TensorF& t) {
      return static_cast<std::size_t>(t.size()) * sizeof(float);
    };
    MaxPool2x2 pool;
    const TensorF y_eval = pool.forward(x, /*train=*/false);
    const TensorF y_infer = pool.infer(x);
    const TensorF y_train = pool.forward(x, /*train=*/true);
    const TensorF dx = pool.backward(dy);
    for (const TensorF* y : {&y_eval, &y_infer, &y_train}) {
      ASSERT_TRUE(y->same_shape(want_y));
      EXPECT_EQ(std::memcmp(y->data(), want_y.data(), bytes(want_y)), 0);
    }
    ASSERT_TRUE(dx.same_shape(want_dx));
    EXPECT_EQ(std::memcmp(dx.data(), want_dx.data(), bytes(want_dx)), 0);
  }
}

TEST(NnLayers, Conv2DBiasGradientMatchesFp64AndRepeatsBitwise) {
  // The bias gradient is FP64 column sums over fixed 256-row blocks, cast
  // to float once: within ε·Σ|dy| of the FP64 sum (one rounding of at most
  // ε/2·|sum|, the FP64 partials' error far below it). Row counts are off
  // the block grid and OC off the 8-lane grid; the strided layer runs the
  // same reduction.
  constexpr double kEps = 1.0 / (1 << 24);
  struct Case {
    std::int64_t n, h, w, stride;
  };
  for (const Case& k : {Case{3, 7, 13, 1}, Case{2, 19, 23, 1},
                        Case{2, 18, 22, 2}}) {
    SCOPED_TRACE("N=" + std::to_string(k.n) + " " + std::to_string(k.h) +
                 "x" + std::to_string(k.w) + " stride " +
                 std::to_string(k.stride));
    constexpr std::int64_t kOc = 13;
    Rng rng(static_cast<unsigned>(60 + k.h));
    Conv2D conv(4, kOc, 3, k.stride, 1, ConvEngine::kWinograd, rng);
    Param& b = *conv.params()[1];
    const TensorF x = rand_input({k.n, k.h, k.w, 4}, 61);
    const TensorF y = conv.forward(x, /*train=*/true);
    TensorF dy = y;
    dy.fill_uniform(rng, -1.0f, 1.0f);
    const std::int64_t rows = dy.size() / kOc;
    ASSERT_NE(rows % 256, 0);
    b.zero_grad();
    (void)conv.backward(dy);
    const TensorF first = b.grad;
    for (std::int64_t ch = 0; ch < kOc; ++ch) {
      double want = 0.0;
      double mag = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        want += dy[i * kOc + ch];
        mag += std::abs(dy[i * kOc + ch]);
      }
      EXPECT_LE(std::abs(first[ch] - want), kEps * mag) << "channel " << ch;
    }
    b.zero_grad();
    (void)conv.backward(dy);
    EXPECT_EQ(std::memcmp(first.data(), b.grad.data(), kOc * sizeof(float)),
              0);
  }
}

TEST(NnLayers, LinearBackwardMatchesFp64) {
  // dW, db and dX against FP64, each within (K+1)·ε/2·Σ|terms| for its K
  // terms (N for dW and db, M for dX) — the forward's bound. D×M = 37×19
  // runs inline; 300×40 splits into feature chunks across the pool. Batches
  // of 1, 8 and 13 rows.
  constexpr double kEps = 1.1920929e-7;
  const std::int64_t dims[][2] = {{37, 19}, {300, 40}};
  for (const auto& dm : dims) {
    const std::int64_t d = dm[0];
    const std::int64_t m = dm[1];
    Rng rng(static_cast<unsigned>(70 + d));
    Linear lin(d, m, rng);
    Param& w = *lin.params()[0];
    Param& b = *lin.params()[1];
    for (const std::int64_t n : {1, 8, 13}) {
      SCOPED_TRACE("D=" + std::to_string(d) + " M=" + std::to_string(m) +
                   " N=" + std::to_string(n));
      const TensorF x = rand_input({n, d}, static_cast<unsigned>(71 + n));
      const TensorF dy = rand_input({n, m}, static_cast<unsigned>(72 + n));
      (void)lin.forward(x, /*train=*/true);
      w.zero_grad();
      b.zero_grad();
      const TensorF dx = lin.backward(dy);
      ASSERT_EQ(dx.dim(0), n);
      ASSERT_EQ(dx.dim(1), d);
      for (std::int64_t k = 0; k < d; ++k) {
        for (std::int64_t j = 0; j < m; ++j) {
          double want = 0.0;
          double mag = 0.0;
          for (std::int64_t i = 0; i < n; ++i) {
            const double t = static_cast<double>(x[i * d + k]) * dy[i * m + j];
            want += t;
            mag += std::abs(t);
          }
          ASSERT_NEAR(w.grad[k * m + j], want, (n + 1) * 0.5 * kEps * mag)
              << "dW " << k << "," << j;
        }
      }
      for (std::int64_t j = 0; j < m; ++j) {
        double want = 0.0;
        double mag = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          want += dy[i * m + j];
          mag += std::abs(dy[i * m + j]);
        }
        EXPECT_NEAR(b.grad[j], want, (n + 1) * 0.5 * kEps * mag) << "db " << j;
      }
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t k = 0; k < d; ++k) {
          double want = 0.0;
          double mag = 0.0;
          for (std::int64_t j = 0; j < m; ++j) {
            const double t =
                static_cast<double>(dy[i * m + j]) * w.value[k * m + j];
            want += t;
            mag += std::abs(t);
          }
          ASSERT_NEAR(dx[i * d + k], want, (m + 1) * 0.5 * kEps * mag)
              << "dX " << i << "," << k;
        }
      }
    }
  }
}

TEST(NnLayers, BatchNormNormalizesTrainingBatch) {
  BatchNorm2D bn(2);
  Rng rng(31);
  TensorF x({4, 3, 3, 2});
  x.fill_uniform(rng, 3.0f, 9.0f);
  const TensorF y = bn.forward(x, true);
  // Per-channel mean ≈ 0, var ≈ 1.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    const std::int64_t m = y.size() / 2;
    for (std::int64_t i = 0; i < m; ++i) mean += y[i * 2 + c];
    mean /= static_cast<double>(m);
    for (std::int64_t i = 0; i < m; ++i) {
      var += (y[i * 2 + c] - mean) * (y[i * 2 + c] - mean);
    }
    var /= static_cast<double>(m);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(NnLayers, BatchNormTrainingMatchesFp64AndRepeatsBitwise) {
  // Training BatchNorm sums in FP64 over fixed 256-row blocks; checked
  // against an FP64 BatchNorm on row counts off the block grid (one ragged
  // block; several blocks and a ragged tail; exact blocks) with channel
  // counts off the 8-lane grid. The bound is in units of ε = 2^-24 over
  // each output's own scale: the FP32 steps (mean and 1/σ rounded to
  // float, x − μ, ·inv, γ·x̂ + β, and dx's three-term combination) round a
  // few times each, so every output must land within 16·ε of its scale.
  constexpr double kEps = 1.0 / (1 << 24);
  const std::int64_t shapes[][4] = {{3, 7, 13, 5}, {2, 19, 23, 13},
                                    {4, 16, 16, 9}};
  for (const auto& sh : shapes) {
    const std::int64_t c = sh[3];
    const std::int64_t m = sh[0] * sh[1] * sh[2];
    SCOPED_TRACE("rows=" + std::to_string(m) + " C=" + std::to_string(c));
    BatchNorm2D bn(c);
    Rng rng(static_cast<unsigned>(40 + m));
    Param& gamma = *bn.params()[0];
    Param& beta = *bn.params()[1];
    gamma.value.fill_uniform(rng, 0.5f, 1.5f);
    beta.value.fill_uniform(rng, -0.5f, 0.5f);
    TensorF x({sh[0], sh[1], sh[2], c});
    x.fill_uniform(rng, -1.0f, 3.0f);
    TensorF dy({sh[0], sh[1], sh[2], c});
    dy.fill_uniform(rng, -1.0f, 1.0f);

    const TensorF y = bn.forward(x, true);
    const TensorF dx = bn.backward(dy);
    for (std::int64_t k = 0; k < c; ++k) {
      double mean = 0.0;
      for (std::int64_t i = 0; i < m; ++i) mean += x[i * c + k];
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        var += (x[i * c + k] - mean) * (x[i * c + k] - mean);
      }
      var /= static_cast<double>(m);
      const double inv = 1.0 / std::sqrt(var + 1e-5);
      const double g = gamma.value[k];
      double sum_dy = 0.0;
      double sum_dy_xhat = 0.0;
      double sum_abs_dy = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        const double xh = (x[i * c + k] - mean) * inv;
        sum_dy += dy[i * c + k];
        sum_dy_xhat += dy[i * c + k] * xh;
        sum_abs_dy += std::abs(dy[i * c + k]) * (1.0 + std::abs(xh));
      }
      const double k1 = sum_dy / static_cast<double>(m);
      const double k2 = sum_dy_xhat / static_cast<double>(m);
      const double shift = std::abs(mean) * inv;  // μ's rounding, in x̂ units
      for (std::int64_t i = 0; i < m; ++i) {
        const double xh = (x[i * c + k] - mean) * inv;
        const double y64 = g * xh + beta.value[k];
        const double y_scale =
            std::abs(g) * (std::abs(xh) + shift + 1.0) + std::abs(y64);
        ASSERT_LE(std::abs(y[i * c + k] - y64), 16 * kEps * y_scale)
            << "y at row " << i << " channel " << k;
        const double dx64 = g * inv * (dy[i * c + k] - k1 - xh * k2);
        const double dx_scale =
            std::abs(g) * inv *
            (std::abs(dy[i * c + k]) + std::abs(k1) +
             (std::abs(xh) + shift + 1.0) * std::abs(k2) + 1.0);
        ASSERT_LE(std::abs(dx[i * c + k] - dx64), 16 * kEps * dx_scale)
            << "dx at row " << i << " channel " << k;
      }
      EXPECT_LE(std::abs(gamma.grad[k] - sum_dy_xhat),
                16 * kEps * (1.0 + shift) * sum_abs_dy);
      EXPECT_LE(std::abs(beta.grad[k] - sum_dy), kEps * sum_abs_dy);
    }

    // Same layer, same input: forward and backward repeat bit for bit.
    const TensorF y2 = bn.forward(x, true);
    const TensorF dx2 = bn.backward(dy);
    EXPECT_EQ(std::memcmp(y.data(), y2.data(), y.size() * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(dx.data(), dx2.data(), dx.size() * sizeof(float)),
              0);
  }
}

TEST(NnLayers, BatchNormEvalUsesRunningStats) {
  BatchNorm2D bn(1);
  Rng rng(33);
  TensorF x({8, 2, 2, 1});
  x.fill_uniform(rng, 4.0f, 6.0f);
  for (int i = 0; i < 150; ++i) bn.forward(x, true);  // converge running stats
  const TensorF y = bn.forward(x, false);
  double mean = 0.0;
  for (std::int64_t i = 0; i < y.size(); ++i) mean += y[i];
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
}

TEST(NnLayers, KaimingUniformBounds) {
  Rng rng(35);
  TensorF w({64, 3, 3, 16});
  kaiming_uniform(w, 3 * 3 * 16, rng);
  const float bound = std::sqrt(6.0f / (3 * 3 * 16));
  float mx = 0.0f;
  for (std::int64_t i = 0; i < w.size(); ++i) mx = std::max(mx, std::abs(w[i]));
  EXPECT_LE(mx, bound);
  EXPECT_GT(mx, bound * 0.9f);  // actually fills the range
}

TEST(NnLoss, SoftmaxCrossEntropyKnownValues) {
  TensorF logits({2, 3});
  logits[0] = 10.0f;  // sample 0 strongly predicts class 0
  logits[1] = 0.0f;
  logits[2] = 0.0f;
  logits[3] = 0.0f;  // sample 1 uniform
  logits[4] = 0.0f;
  logits[5] = 0.0f;
  const LossResult res = softmax_cross_entropy(logits, {0, 1});
  EXPECT_NEAR(res.loss, 0.5f * (0.000091f + std::log(3.0f)), 1e-3f);
  EXPECT_EQ(res.correct, 1);  // argmax of uniform row is class 0 ≠ 1
  // Gradient rows sum to zero.
  for (int i = 0; i < 2; ++i) {
    float s = 0.0f;
    for (int j = 0; j < 3; ++j) s += res.dlogits[i * 3 + j];
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(NnLoss, GradMatchesFiniteDifference) {
  Rng rng(37);
  TensorF logits({3, 4});
  logits.fill_uniform(rng, -2.0f, 2.0f);
  const std::vector<std::int64_t> labels = {1, 3, 0};
  const LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    TensorF lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float want = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2 * eps);
    EXPECT_NEAR(res.dlogits[i], want, 2e-3f) << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent inference: const Model::infer from many threads at once

/// Tiny conv net with a classifier head; same seed → identical weights.
Model make_tiny_classifier(unsigned seed) {
  Rng rng(seed);
  Model m;
  m.add(std::make_unique<Conv2D>(3, 8, 3, 1, 1, ConvEngine::kWinograd, rng,
                                 "c1"));
  m.add(std::make_unique<BatchNorm2D>(8));
  m.add(std::make_unique<LeakyReLU>());
  m.add(std::make_unique<Conv2D>(8, 8, 3, 1, 1, ConvEngine::kWinograd, rng,
                                 "c2"));
  m.add(std::make_unique<LeakyReLU>());
  m.add(std::make_unique<MaxPool2x2>());
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Linear>(4 * 4 * 8, 10, rng, "fc"));
  return m;
}

bool bits_equal(const TensorF& a, const TensorF& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(ConcurrentInference, EightThreadsMatchSingleThread) {
  Model model = make_tiny_classifier(21);
  Rng rng(22);
  TensorF x({4, 8, 8, 3});
  x.fill_uniform(rng, -1.0f, 1.0f);
  const TensorF want = model.forward(x, /*train=*/false);
  const TensorF want_infer = model.infer(x);
  ASSERT_TRUE(bits_equal(want, want_infer));  // infer ≡ eval-mode forward

  constexpr int kThreads = 8;
  constexpr int kReps = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const TensorF y = model.infer(x);
        if (!bits_equal(y, want)) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(ConcurrentInference, ResNetInferMatchesEvalForward) {
  // ResidualBlock (incl. projection shortcut) also needs a const path.
  ModelConfig cfg;
  cfg.image_size = 8;
  cfg.base_channels = 4;
  Model model = make_resnet(18, cfg);
  Rng rng(33);
  TensorF x({2, 8, 8, 3});
  x.fill_uniform(rng, -1.0f, 1.0f);
  const TensorF want = model.forward(x, false);
  EXPECT_TRUE(bits_equal(model.infer(x), want));
}

}  // namespace
}  // namespace iwg::nn
