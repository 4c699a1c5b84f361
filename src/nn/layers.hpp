// Concrete layers: Conv2D, BatchNorm2D, LeakyReLU, MaxPool2x2, Flatten,
// Linear.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "tensor/conv_shape.hpp"

namespace iwg::nn {

/// Kaiming-uniform initialization (§6.3.1): U(−b, b), b = √(6 / fan_in),
/// the gain for LeakyReLU-style rectifiers.
void kaiming_uniform(TensorF& w, std::int64_t fan_in, Rng& rng);

class BatchNorm2D;
class LeakyReLU;

/// The elementwise layers an inference convolution's output runs through
/// before anything else reads it, each optional: an inference-mode
/// BatchNorm2D, a skip tensor of the output's shape (the ResidualBlock
/// sum), then a LeakyReLU. Conv2D applies them after its bias in one pass
/// over its output, with each element's operations in the unfused layers'
/// order (bias, BN, skip, activation), so the result is bitwise equal to
/// running the layers one by one. BN reads its live γ/β and running
/// statistics; nothing is folded into the weights.
struct ConvEpilogue {
  const BatchNorm2D* bn = nullptr;
  const TensorF* skip = nullptr;
  const LeakyReLU* act = nullptr;
};

/// 2-D convolution, NHWC, square filter, stride 1 or 2.
/// Unit-stride layers run on the configured engine (Winograd or GEMM);
/// strided layers run the host engine's implicit GEMM in both engines, as
/// in the paper (§6.3.2). Either way the non-Γ work is one rank-1 body
/// over a cached weight panel (core::conv2d_strided).
class Conv2D final : public Layer {
 public:
  Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t fsize,
         std::int64_t stride, std::int64_t pad, ConvEngine engine, Rng& rng,
         std::string label = "conv");
  /// Drops this layer's entries from the global FilterTransformCache — the
  /// weight storage is about to be freed and a later allocation could reuse
  /// the address with unrelated version numbering.
  ~Conv2D() override;

  std::string name() const override { return label_; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override { return infer(x, {}); }
  /// infer() followed by the layers `ep` names, fused into its bias pass.
  TensorF infer(const TensorF& x, const ConvEpilogue& ep) const;
  /// Mixed-shape batch: every image runs in ONE indirect dispatch
  /// (conv2d_gamma_host_indirect) — Γ plus GEMM tail at unit stride, the
  /// implicit GEMM at stride 2. Bitwise identical per image to infer().
  std::vector<TensorF> infer_ragged(
      const std::vector<TensorF>& xs) const override {
    return infer_ragged(xs, {});
  }
  /// The same with a per-image epilogue (`ep.skip` must be null).
  std::vector<TensorF> infer_ragged(const std::vector<TensorF>& xs,
                                    const ConvEpilogue& ep) const;
  TensorF backward(TensorF dy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::int64_t activation_bytes() const override { return x_cache_.size() * 4; }

  /// Resolves this layer's plan from the context's PlanCache (unit-stride
  /// Winograd layers only) and returns the output dims.
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override;

  /// The pre-resolved choice, if pretune ran (exposed for tests/reports).
  const std::optional<core::AlgoChoice>& tuned_choice() const {
    return tuned_;
  }

 private:
  ConvShape shape_for(const TensorF& x) const;
  /// The convolution without bias, shared by forward and infer.
  TensorF convolve(const TensorF& x, const ConvShape& s) const;

  std::string label_;
  std::int64_t fsize_, stride_, pad_;
  ConvEngine engine_;
  Param w_;  // OC,FH,FW,IC
  Param b_;  // OC
  TensorF x_cache_;
  ConvShape shape_;  // geometry of the last forward
  std::optional<core::AlgoChoice> tuned_;  // pre-resolved plan
  ConvShape tuned_shape_;                  // geometry the plan was tuned for
};

/// Batch normalization over (N, H, W) per channel, with running statistics.
class BatchNorm2D final : public Layer {
 public:
  explicit BatchNorm2D(std::int64_t channels, float momentum = 0.9f,
                       float eps = 1e-5f);

  std::string name() const override { return "batchnorm"; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::int64_t activation_bytes() const override {
    return (xhat_.size() + 2 * channels_) * 4;
  }

  /// The inference transform v ↦ γ[c]·(v − μ[c])·inv[c] + β[c] as
  /// per-channel arrays, read from the live parameters and running
  /// statistics; inv[c] = 1/√(var[c] + ε) is computed per call.
  struct Affine {
    const float* gamma = nullptr;
    const float* mean = nullptr;
    std::vector<float> inv;
    const float* beta = nullptr;
  };
  Affine inference_affine() const;

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  TensorF running_mean_, running_var_;
  TensorF xhat_;                 // normalized input (cached)
  std::vector<float> inv_std_;   // per channel
  std::int64_t count_ = 0;       // N·H·W of the cached batch
};

/// LeakyReLU activation (§6.3.1), slope 0.01. Computed branch-free as
/// max(v, v·slope), which equals the select v < 0 ? v·slope : v bit for bit
/// (±0, ±inf and NaN included) for 0 < slope ≤ 1 — the range the
/// constructor accepts.
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f);
  std::string name() const override { return "leaky_relu"; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  std::int64_t activation_bytes() const override { return mask_.size(); }
  float slope() const { return slope_; }

 private:
  float slope_;
  std::vector<std::uint8_t> mask_;  // 1 where the input was not negative
};

/// 2×2 max pooling with stride 2 (VGG down-sampling).
class MaxPool2x2 final : public Layer {
 public:
  std::string name() const override { return "maxpool2x2"; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  std::int64_t activation_bytes() const override { return argmax_.size(); }
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, in.h / 2, in.w / 2, in.c};
  }

 private:
  std::vector<std::uint8_t> argmax_;  // 0-3 winner per output element
  std::int64_t n_ = 0, ih_ = 0, iw_ = 0, c_ = 0;
};

/// Global average pooling (ResNet head): NHWC → (N, C).
class GlobalAvgPool final : public Layer {
 public:
  std::string name() const override { return "global_avg_pool"; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, in.c};
  }

 private:
  std::int64_t n_ = 0, h_ = 0, w_ = 0, c_ = 0;
};

/// NHWC → (N, H·W·C).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, in.h * in.w * in.c};
  }

 private:
  std::int64_t n_ = 0, h_ = 0, w_ = 0, c_ = 0;
};

/// Fully connected layer: (N, D) → (N, M). Forward and infer are one
/// code path: bias rows, then one axpy_rank1_multi call per block of 8
/// batch rows against W (D, M). Each output sums its D products in
/// ascending order with no zero skipping, so 0·inf gives NaN as IEEE
/// arithmetic does, and a row's result does not depend on the batch size.
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
         std::string label = "linear");
  std::string name() const override { return label_; }
  TensorF forward(TensorF x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(TensorF dy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::int64_t activation_bytes() const override { return x_cache_.size() * 4; }
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, w_.value.dim(1)};
  }

 private:
  std::string label_;
  Param w_;  // (D, M)
  Param b_;  // (M)
  TensorF x_cache_;
};

}  // namespace iwg::nn
