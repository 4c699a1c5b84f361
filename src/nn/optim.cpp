#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"

namespace iwg::nn {

namespace {

/// Elements per optimizer task. A constant, so the split depends on the
/// param sizes alone; every element's formula is the same in any split.
constexpr std::int64_t kChunk = 16384;

/// body(k, first, end) for every fixed-size chunk of params[k]->*tensor,
/// all params' chunks in one parallel_for.
template <class Body>
void for_param_chunks(const std::vector<Param*>& params, TensorF Param::*tensor,
                      const Body& body) {
  struct Task {
    std::size_t k;
    std::int64_t first, end;
  };
  std::vector<Task> tasks;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const std::int64_t n = (params[k]->*tensor).size();
    for (std::int64_t i = 0; i < n; i += kChunk) {
      tasks.push_back({k, i, std::min(n, i + kChunk)});
    }
  }
  parallel_for(static_cast<std::int64_t>(tasks.size()), [&](std::int64_t t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    body(task.k, task.first, task.end);
  });
}

/// The state tensor of `p` in `state`, created zeroed on first use. Runs on
/// the calling thread, before the fork.
float* state_of(std::map<Param*, TensorF>& state, Param* p) {
  TensorF& s = state[p];
  if (s.empty()) s.reset({p->value.size()});
  return s.data();
}

}  // namespace

void Optimizer::zero_grad(const std::vector<Param*>& params) {
  for_param_chunks(params, &Param::grad,
                   [&](std::size_t k, std::int64_t i0, std::int64_t i1) {
                     float* g = params[k]->grad.data();
                     std::fill(g + i0, g + i1, 0.0f);
                   });
}

void Sgdm::step(const std::vector<Param*>& params) {
  std::vector<float*> vel(params.size());
  for (std::size_t k = 0; k < params.size(); ++k) {
    vel[k] = state_of(velocity_, params[k]);
  }
  const float lr = lr_;
  const float momentum = momentum_;
  for_param_chunks(params, &Param::value,
                   [&](std::size_t k, std::int64_t i0, std::int64_t i1) {
                     float* __restrict v = vel[k];
                     float* __restrict w = params[k]->value.data();
                     const float* __restrict g = params[k]->grad.data();
                     for (std::int64_t i = i0; i < i1; ++i) {
                       v[i] = momentum * v[i] + g[i];
                       w[i] -= lr * v[i];
                     }
                   });
  for (Param* p : params) ++p->version;
}

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  std::vector<float*> ms(params.size());
  std::vector<float*> vs(params.size());
  for (std::size_t k = 0; k < params.size(); ++k) {
    ms[k] = state_of(m_, params[k]);
    vs[k] = state_of(v_, params[k]);
  }
  const float lr = lr_;
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float eps = eps_;
  for_param_chunks(
      params, &Param::value,
      [&](std::size_t k, std::int64_t i0, std::int64_t i1) {
        float* __restrict m = ms[k];
        float* __restrict v = vs[k];
        float* __restrict w = params[k]->value.data();
        const float* __restrict gr = params[k]->grad.data();
        for (std::int64_t i = i0; i < i1; ++i) {
          const float g = gr[i];
          m[i] = beta1 * m[i] + (1.0f - beta1) * g;
          v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
          const float mh = m[i] / bc1;
          const float vh = v[i] / bc2;
          w[i] -= lr * mh / (std::sqrt(vh) + eps);
        }
      });
  for (Param* p : params) ++p->version;
}

}  // namespace iwg::nn
