// zoo_infer: closed loop, one caller. Each round runs Model::infer at batch
// 8 on 32x32x3 images through VGG16 (r = 3), VGG16x5 (r = 5) and ResNet18,
// base width 16. Compute-bound: time goes to core/host_kernels, the nn
// elementwise passes and ResNet's strided-GEMM layers; the serving layer is
// bypassed, so serving changes predict no change here.
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "ledger.hpp"
#include "models.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

using iwg::TensorF;
using iwg::nn::ConvEngine;
using iwg::nn::Model;

constexpr std::int64_t kBatch = 8;
constexpr std::int64_t kImage = 32;
constexpr std::int64_t kBase = 16;
constexpr int kInputs = 4;  ///< distinct input batches per model
constexpr int kSetups = 5;
constexpr Net kNets[] = {Net::kVgg16, Net::kVgg16x5, Net::kResnet18};
constexpr int kModels = 3;
/// Winograd vs implicit-GEMM twin, relative L2 over a whole network's
/// logits. Table 3 puts one Γ16 layer at ≤ 1.3e-5 and strict-FP32 GEMM at
/// ≤ 9e-7; 17 conv layers compounding linearly give ≈ 2.4e-4, and a 4x
/// margin sets the bound.
constexpr double kRelL2Bound = 1e-3;
/// A round's latency SLO: ~4x its duration on a 4-core AVX2 host.
constexpr double kRoundDeadlineMs = 150.0;

std::vector<Model> build_zoo(ConvEngine engine, unsigned seed) {
  std::vector<Model> zoo;
  for (Net n : kNets) zoo.push_back(make_net(n, kBase, kImage, engine, seed));
  return zoo;
}

struct Rounds {
  ClosedLoop loop;  ///< one op per round of the three models
  double call_ms[kModels] = {};
  std::int64_t calls = 0;
};

Rounds run_rounds(const std::vector<Model>& zoo,
                  const std::vector<std::vector<TensorF>>& inputs,
                  const std::vector<std::vector<TensorF>>& refs,
                  double seconds, bool& corrupt, Result& r) {
  Rounds out;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t k = 0; seconds_since(t0) < seconds; ++k) {
    double round_ms = 0.0;
    bool ok = true;
    for (int m = 0; m < kModels; ++m) {
      const auto slot = static_cast<std::size_t>(k % kInputs);
      const TensorF& x = inputs[static_cast<std::size_t>(m)][slot];
      const Clock::time_point c0 = Clock::now();
      TensorF y;
      {
        iwg::trace::ScopedSpan span("bench.op", "bench");
        y = zoo[static_cast<std::size_t>(m)].infer(x);
      }
      const double ms = us_between(c0, Clock::now()) / 1e3;
      round_ms += ms;
      out.call_ms[m] += ms;
      if (corrupt) {
        corrupt = false;
        y[0] += 1.0f;
      }
      const double err = rel_l2(y, refs[static_cast<std::size_t>(m)][slot]);
      if (!(err <= kRelL2Bound)) {
        ok = false;
        r.fail(std::string(net_name(kNets[m])) + " relative L2 " +
               std::to_string(err) + " vs its implicit-GEMM twin");
      }
    }
    out.calls += kModels;
    out.loop.add(seconds_since(t0), round_ms, ok, kRoundDeadlineMs);
  }
  out.loop.wall_s = seconds_since(t0);
  out.loop.cpu_s = cpu_seconds() - cpu0;
  return out;
}

}  // namespace

void run_zoo_infer(const Options& opt, Result& r) {
  const auto seed = static_cast<unsigned>(opt.seed);
  std::vector<std::vector<TensorF>> inputs(kModels);
  for (int m = 0; m < kModels; ++m) {
    for (int i = 0; i < kInputs; ++i) {
      inputs[static_cast<std::size_t>(m)].push_back(random_tensor(
          {kBatch, kImage, kImage, 3}, opt.seed * 1000 + m * kInputs + i));
    }
  }

  // Reference outputs from same-seed implicit-GEMM twins.
  std::vector<std::vector<TensorF>> refs(kModels);
  {
    const std::vector<Model> twins = build_zoo(ConvEngine::kGemm, seed);
    for (int m = 0; m < kModels; ++m) {
      for (const TensorF& x : inputs[static_cast<std::size_t>(m)]) {
        refs[static_cast<std::size_t>(m)].push_back(
            twins[static_cast<std::size_t>(m)].infer(x));
      }
    }
  }

  // Set-up: build the zoo and run one warm inference per model (plans,
  // filter transforms, scratch arenas).
  double setup_s = 0.0;
  const std::vector<Model> zoo = median_setup(kSetups, setup_s, [&] {
    std::vector<Model> z = build_zoo(ConvEngine::kWinograd, seed);
    for (int m = 0; m < kModels; ++m) {
      (void)z[static_cast<std::size_t>(m)].infer(
          inputs[static_cast<std::size_t>(m)][0]);
    }
    return z;
  });

  bool corrupt = opt.corrupt;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const CacheTally cache0 = CacheTally::now();
  const Rounds run = run_rounds(zoo, inputs, refs, untraced_s, corrupt, r);
  r.attempted += static_cast<std::int64_t>(run.loop.ops.size());
  r.failed += run.loop.failed;

  const double rounds = static_cast<double>(run.loop.ops.size());
  const EndToEnd e = run.loop.end_to_end(setup_s, kModels * kBatch);
  emit_end_to_end(e, r);
  for (int m = 0; m < kModels; ++m) {
    r.metric(std::string("nn.infer_ms.") + net_name(kNets[m]),
             run.call_ms[m] / rounds, "ms");
  }
  if (!opt.trace) return;

  double call_ms = 0.0;
  for (double ms : run.call_ms) call_ms += ms;
  r.metric("nn.model_ms", call_ms / static_cast<double>(run.calls), "ms");
  emit_cpu_util(r, run.loop.cpu_s, run.loop.wall_s);
  emit_cache_ratio(cache0, r);
  emit_no_serving(r, static_cast<double>(kBatch));

  start_tracing(kTraceCapacity);
  const Rounds traced =
      run_rounds(zoo, inputs, refs,
                 std::min(opt.seconds / 2, kTracedSecondsMax), corrupt, r);
  const std::vector<iwg::trace::Event> events =
      stop_tracing(r, opt.trace_out);
  r.attempted += static_cast<std::int64_t>(traced.loop.ops.size());
  r.failed += traced.loop.failed;
  emit_ledger(build_ledger(events), r);
  r.metric("trace.overhead",
           traced.loop.end_to_end(0.0, kModels * kBatch).p50_ms / e.p50_ms,
           "ratio");
  run_layer_probes(r, opt.seed, opt.seconds < 4.0);
}

}  // namespace perf
