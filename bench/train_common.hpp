// Shared harness for the Experiment-3 training benches (Tables 4/5,
// Figures 11/12): trains the same network twice — conv engine Winograd
// ("Alpha") vs implicit GEMM (the PyTorch stand-in) — on identical data and
// seeds, then prints the paper-style comparison row plus both loss curves.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace iwg::bench {

struct TrainCase {
  std::string network;
  std::string optimizer;  // "Adam" or "SGDM"
  std::function<nn::Model(nn::ConvEngine)> build;
};

inline std::unique_ptr<nn::Optimizer> make_optimizer(const std::string& name) {
  if (name == "SGDM") return std::make_unique<nn::Sgdm>(1e-3f, 0.9f);
  return std::make_unique<nn::Adam>(1e-3f);
}

/// Run one Alpha-vs-baseline comparison and print the Table-4/5 row and the
/// Figure-11/12 loss curves. Each engine first takes one untimed training
/// step on a fresh model, so no timed epoch pays the process's one-time
/// warm-up. Then each engine trains twice, in A-B-B-A order, so a drift in
/// host speed (steal, frequency) lands on both engines alike:
/// s/epoch prints as the median with the min–max of the two runs, the
/// acceleration as its median and the range over run pairs, and the last
/// column is the largest |Δloss| between one engine's two runs (training is
/// deterministic per ISA, so it reads 0).
inline void run_train_case(const TrainCase& tc,
                           const data::Dataset& train_set,
                           const data::Dataset* test_set,
                           const nn::TrainConfig& cfg) {
  struct Result {
    nn::TrainStats stats[2];
    std::int64_t weight_file_bytes = 0;
  } res[2];
  const char* engine_names[2] = {"Alpha(winograd)", "Baseline(gemm)"};
  const nn::ConvEngine engines[2] = {nn::ConvEngine::kWinograd,
                                     nn::ConvEngine::kGemm};
  for (const nn::ConvEngine engine : engines) {
    nn::Model model = tc.build(engine);
    auto opt = make_optimizer(tc.optimizer);
    const std::vector<nn::Param*> params = model.params();
    std::vector<std::int64_t> labels;
    const TensorF x = train_set.batch(0, cfg.batch, labels);
    opt->zero_grad(params);
    const nn::LossResult loss =
        nn::softmax_cross_entropy(model.forward(x, /*train=*/true), labels);
    model.backward(loss.dlogits);
    opt->step(params);
  }
  const int order[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};  // A-B-B-A
  for (const auto& [e, run] : order) {
    nn::Model model = tc.build(engines[e]);
    auto opt = make_optimizer(tc.optimizer);
    res[e].stats[run] = nn::train_model(model, *opt, train_set, test_set, cfg);
    const std::string path = "/tmp/iwg_bench_weights.bin";
    res[e].weight_file_bytes = nn::save_weights(model, path);
    std::remove(path.c_str());
  }

  auto sec = [&](int e, int run) {
    return res[e].stats[run].seconds_per_epoch;
  };
  auto lo = [&](int e) { return std::min(sec(e, 0), sec(e, 1)); };
  auto hi = [&](int e) { return std::max(sec(e, 0), sec(e, 1)); };
  auto med = [&](int e) { return 0.5 * (sec(e, 0) + sec(e, 1)); };
  auto max_dloss = [&](int e) {
    const auto& c0 = res[e].stats[0].loss_curve;
    const auto& c1 = res[e].stats[1].loss_curve;
    double d = c0.size() == c1.size() ? 0.0 : INFINITY;
    for (std::size_t i = 0; i < std::min(c0.size(), c1.size()); ++i) {
      d = std::max(d, std::fabs(static_cast<double>(c0[i]) - c1[i]));
    }
    return d;
  };
  const auto& a = res[0].stats[0];
  const auto& b = res[1].stats[0];
  std::printf("\n%s + %s, %d epochs, each engine twice (A-B-B-A)\n",
              tc.network.c_str(), tc.optimizer.c_str(), cfg.epochs);
  std::printf("%-16s %24s %22s %10s %9s %10s %10s %10s\n", "engine",
              "s/epoch med [min-max]", "accel med [min-max]", "train acc",
              "test acc", "memory MB", "weights MB", "max|dloss|");
  for (int e = 0; e < 2; ++e) {
    const auto& s = res[e].stats[0];
    char test_acc[16];
    if (test_set != nullptr) {
      std::snprintf(test_acc, sizeof(test_acc), "%.2f%%",
                    100.0 * s.test_accuracy);
    } else {
      std::snprintf(test_acc, sizeof(test_acc), "n/a");
    }
    std::printf(
        "%-16s %8.3f [%6.3f-%6.3f] %7.3fx [%5.3f-%5.3f] %9.2f%% %9s %10.2f "
        "%10.2f %10.3g\n",
        engine_names[e], med(e), lo(e), hi(e), med(1) / med(e), lo(1) / hi(e),
        hi(1) / lo(e), 100.0 * s.train_accuracy, test_acc,
        static_cast<double>(s.memory_bytes) / 1e6,
        static_cast<double>(res[e].weight_file_bytes) / 1e6, max_dloss(e));
  }
  std::printf("loss curves (step: alpha / baseline, first runs):\n");
  const std::size_t points = std::min(a.loss_curve.size(),
                                      b.loss_curve.size());
  const std::size_t stride = points > 16 ? points / 16 : 1;
  for (std::size_t i = 0; i < points; i += stride) {
    std::printf("  step %4zu: %7.4f / %7.4f\n", i * cfg.record_every,
                static_cast<double>(a.loss_curve[i]),
                static_cast<double>(b.loss_curve[i]));
  }
  std::fflush(stdout);
}

}  // namespace iwg::bench
