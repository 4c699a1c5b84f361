// Optimizers used in Experiment 3: SGD with momentum and Adam (§6.3.1,
// learning rate 0.001 in the paper's runs).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace iwg::nn {

/// step() and zero_grad() each run one parallel_for over every param's
/// fixed-size chunks (DESIGN §8); per-param state is looked up, and created,
/// on the calling thread first. Every element gets the same formula as a
/// serial loop would give it, bit for bit.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step(const std::vector<Param*>& params) = 0;
  virtual std::string name() const = 0;

  void zero_grad(const std::vector<Param*>& params);
};

class Sgdm final : public Optimizer {
 public:
  explicit Sgdm(float lr = 1e-3f, float momentum = 0.9f)
      : lr_(lr), momentum_(momentum) {}
  std::string name() const override { return "SGDM"; }
  void step(const std::vector<Param*>& params) override;

 private:
  float lr_, momentum_;
  std::map<Param*, TensorF> velocity_;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  std::string name() const override { return "Adam"; }
  void step(const std::vector<Param*>& params) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::map<Param*, TensorF> m_, v_;
};

}  // namespace iwg::nn
