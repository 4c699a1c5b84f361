// The fused inference epilogue (Conv2D bias → BatchNorm2D → skip →
// LeakyReLU in one pass) against the unfused layers, with BatchNorm state
// that is not the identity, and LeakyReLU's branch-free form against the
// literal select on edge values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/host_kernels.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"

namespace iwg::nn {
namespace {

using core::host_isa;
using core::host_isa_available;
using core::host_isa_name;
using core::HostIsa;
using core::set_host_isa;

bool bits_equal(const TensorF& a, const TensorF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TensorF random_tensor(std::vector<std::int64_t> dims, Rng& rng) {
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

/// Moves every BatchNorm off its default state (μ = 0, var = 1, γ = 1,
/// β = 0) and every bias off zero: a few train-mode forwards fill the
/// running statistics, then γ, β and the biases get random offsets.
void give_real_bn_state(Model& m, std::int64_t image, Rng& rng) {
  for (int step = 0; step < 3; ++step) {
    TensorF x = random_tensor({4, image, image, 3}, rng);
    for (std::int64_t i = 0; i < x.size(); ++i) x[i] = 0.5f + 2.0f * x[i];
    (void)m.forward(x, /*train=*/true);
  }
  for (Param* p : m.params()) {
    const std::string& n = p->name;
    const bool bn = n == "bn.gamma" || n == "bn.beta";
    if (!bn && n.substr(n.size() - 2) != ".b") continue;
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += rng.uniform(-0.3f, 0.3f);
    }
    ++p->version;
  }
}

struct IsaRestore {
  HostIsa prev = host_isa();
  ~IsaRestore() { set_host_isa(prev); }
};

struct ZooCase {
  const char* name;
  Model model;
  std::int64_t image;             ///< the size Flatten fixes (VGG)
  std::vector<std::int64_t> mix;  ///< ragged per-image sizes
};

std::vector<ZooCase> real_bn_zoo() {
  std::vector<ZooCase> zoo;
  ModelConfig cfg;
  cfg.base_channels = 4;
  cfg.image_size = 16;
  // VGG's Flatten → Linear head accepts only the built image size, so its
  // ragged sets are uniform; ResNet18's global pooling takes the mix.
  zoo.push_back({"vgg16", make_vgg(16, cfg, 3), 16, {16, 16, 16}});
  zoo.push_back({"vgg16x5", make_vgg(16, cfg, 5), 16, {16, 16, 16}});
  cfg.image_size = 32;
  zoo.push_back({"resnet18", make_resnet(18, cfg), 32, {16, 24, 32, 24}});
  Rng rng(2024);
  for (ZooCase& z : zoo) give_real_bn_state(z.model, z.image, rng);
  return zoo;
}

TEST(NnEpilogue, FusedInferMatchesEvalForwardWithRealBnState) {
  std::vector<ZooCase> zoo = real_bn_zoo();
  IsaRestore restore;
  Rng rng(7);
  for (const HostIsa isa : host_isa_available()) {
    ASSERT_TRUE(set_host_isa(isa));
    for (ZooCase& z : zoo) {
      const std::string at = std::string(z.name) + " isa=" + host_isa_name(isa);
      for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{8}}) {
        const TensorF x = random_tensor({batch, z.image, z.image, 3}, rng);
        const TensorF want = z.model.forward(x, /*train=*/false);
        EXPECT_TRUE(bits_equal(z.model.infer(x), want))
            << at << " batch " << batch;
      }
      std::vector<TensorF> xs;
      for (const std::int64_t s : z.mix) {
        xs.push_back(random_tensor({1, s, s, 3}, rng));
      }
      const std::vector<TensorF> ys = z.model.infer_ragged(xs);
      ASSERT_EQ(ys.size(), xs.size());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_TRUE(bits_equal(ys[i], z.model.infer(xs[i])))
            << at << " ragged image " << i << " (" << z.mix[i] << " px)";
      }
    }
  }
}

TEST(NnEpilogue, FusedConvStepMatchesLiteralLayerMath) {
  // Independent of the shared per-element code: the expected output is
  // written out here from the unfused layers' definitions.
  Rng rng(11);
  Conv2D conv(5, 12, 3, 1, 1, ConvEngine::kWinograd, rng);
  BatchNorm2D bn(12);
  LeakyReLU act;
  for (int step = 0; step < 3; ++step) {
    TensorF h = conv.forward(random_tensor({2, 9, 9, 5}, rng), true);
    for (std::int64_t i = 0; i < h.size(); ++i) h[i] = 0.7f + 3.0f * h[i];
    (void)bn.forward(h, true);
  }
  for (Param* p : bn.params()) {
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += rng.uniform(-0.5f, 0.5f);
    }
  }
  Param* bias = conv.params()[1];
  for (std::int64_t i = 0; i < bias->value.size(); ++i) {
    bias->value[i] = rng.uniform(-0.5f, 0.5f);
  }
  const BatchNorm2D::Affine a = bn.inference_affine();
  const float eps = 1e-5f;
  for (std::int64_t c = 0; c < 12; ++c) {
    // The state must not be the identity, or dropping a term goes unseen.
    ASSERT_NE(a.mean[c], 0.0f);
    ASSERT_NE(a.inv[static_cast<std::size_t>(c)], 1.0f / std::sqrt(1.0f + eps));
    ASSERT_NE(a.gamma[c], 1.0f);
    ASSERT_NE(a.beta[c], 0.0f);
  }

  // Large enough that the pass forks across the pool, plus one that runs
  // inline.
  for (const std::int64_t hw : {40, 6}) {
    const TensorF x = random_tensor({2, hw, hw, 5}, rng);
    const TensorF skip = random_tensor({2, hw, hw, 12}, rng);
    TensorF want = conv.infer(x);  // convolution + bias
    TensorF want_skip = want;
    for (std::int64_t i = 0; i < want.size(); ++i) {
      const std::int64_t c = i % 12;
      const float v = a.gamma[c] * (want[i] - a.mean[c]) *
                          a.inv[static_cast<std::size_t>(c)] +
                      a.beta[c];
      want[i] = v < 0.0f ? v * act.slope() : v;
      const float vs = v + skip[i];
      want_skip[i] = vs < 0.0f ? vs * act.slope() : vs;
    }
    EXPECT_TRUE(bits_equal(conv.infer(x, {.bn = &bn, .act = &act}), want))
        << hw;
    EXPECT_TRUE(bits_equal(
        conv.infer(x, {.bn = &bn, .skip = &skip, .act = &act}), want_skip))
        << hw;
  }
}

/// Edge values first (±0, ±denormal, ±inf, NaN, ±max, ±min normal),
/// rotated by `shift`, then random ones, `n` in total.
TensorF leaky_inputs(std::int64_t n, Rng& rng, std::int64_t shift = 0) {
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  const float big = std::numeric_limits<float>::max();
  const float edges[] = {0.0f,   -0.0f, den,  -den,  3 * den, -3 * den,
                         tiny,   -tiny, inf,  -inf,  big,     -big,
                         std::numeric_limits<float>::quiet_NaN(),
                         -std::numeric_limits<float>::quiet_NaN()};
  TensorF x({n});
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = i < 14 ? edges[(i + shift) % 14] : rng.uniform(-10.0f, 10.0f);
  }
  return x;
}

TEST(NnEpilogue, LeakyReluMatchesLiteralSelectOnEdgeValues) {
  Rng rng(5);
  for (const float slope : {0.01f, 0.5f, 1.0f}) {
    // 14 edge values alone (inline), then enough to fork, with a ragged
    // tail.
    for (const std::int64_t n :
         {std::int64_t{14}, std::int64_t{3 * 8192 + 5}}) {
      LeakyReLU act(slope);
      const TensorF x = leaky_inputs(n, rng);
      // Each edge input meets a different edge gradient, so a NaN input
      // with a mask of 0 shows as dy·slope ≠ dy.
      const TensorF dy = leaky_inputs(n, rng, /*shift=*/7);
      const TensorF y_infer = act.infer(x);
      const TensorF y_eval = act.forward(x, /*train=*/false);
      const TensorF y_train = act.forward(x, /*train=*/true);
      const TensorF dx = act.backward(dy);
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        const std::uint32_t want = bits(v < 0.0f ? v * slope : v);
        const std::uint32_t want_dx = bits(v < 0.0f ? dy[i] * slope : dy[i]);
        ASSERT_EQ(bits(y_infer[i]), want) << "infer x=" << v << " i=" << i;
        ASSERT_EQ(bits(y_eval[i]), want) << "eval x=" << v << " i=" << i;
        ASSERT_EQ(bits(y_train[i]), want) << "train x=" << v << " i=" << i;
        ASSERT_EQ(bits(dx[i]), want_dx)
            << "backward x=" << v << " dy=" << dy[i] << " i=" << i;
      }
    }
  }
}

TEST(NnEpilogue, LeakyReluRejectsSlopesOutsideUnitInterval) {
  EXPECT_THROW(LeakyReLU(0.0f), Error);
  EXPECT_THROW(LeakyReLU(-0.01f), Error);
  EXPECT_THROW(LeakyReLU(1.5f), Error);
  EXPECT_THROW(LeakyReLU(std::numeric_limits<float>::quiet_NaN()), Error);
  EXPECT_NO_THROW(LeakyReLU(1.0f));
}

}  // namespace
}  // namespace iwg::nn
