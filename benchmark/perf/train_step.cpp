// train_step: closed loop, one caller — the paper's Experiment 3. Each step
// runs VGG16 (32 px, base 16, batch 16) on make_cifar_like data: forward
// (train) → softmax cross-entropy → backward → SGDM step. Every step bumps
// each Param::version, so every conv misses the filter-transform cache, and
// the backward pass runs the deconv and filter-gradient paths inference
// never touches.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "data/synthetic.hpp"
#include "ledger.hpp"
#include "models.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

using iwg::TensorF;
using iwg::nn::ConvEngine;
using iwg::nn::Model;

constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kImage = 32;
constexpr std::int64_t kBase = 16;
constexpr int kBatches = 8;  ///< distinct batches, cycled
constexpr int kSetups = 7;
/// First-step loss against the implicit-GEMM twin: the logits agree to
/// ~1e-4 relative (zoo_infer's bound), and the loss is a smooth function of
/// them.
constexpr double kLossRelBound = 1e-3;
/// A step's latency SLO: ~4x its duration on a 4-core AVX2 host.
constexpr double kStepDeadlineMs = 400.0;

struct Batch {
  TensorF x;
  std::vector<std::int64_t> labels;
};

struct Trainer {
  Model model;
  iwg::nn::Sgdm opt;
  std::vector<iwg::nn::Param*> params;
  std::int64_t step = 0;
};

ClosedLoop run_steps(Trainer& t, const std::vector<Batch>& data,
                     double seconds, double twin_loss, bool& corrupt,
                     Result& r) {
  ClosedLoop out;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    const Batch& b = data[static_cast<std::size_t>(t.step % kBatches)];
    const Clock::time_point s0 = Clock::now();
    float loss = 0.0f;
    {
      iwg::trace::ScopedSpan op("bench.op", "bench");
      t.opt.zero_grad(t.params);
      TensorF logits;
      {
        iwg::trace::ScopedSpan span("bench.forward", "bench");
        logits = t.model.forward(b.x, /*train=*/true);
      }
      iwg::nn::LossResult res;
      {
        iwg::trace::ScopedSpan span("bench.loss", "bench");
        res = iwg::nn::softmax_cross_entropy(logits, b.labels);
      }
      {
        iwg::trace::ScopedSpan span("bench.backward", "bench");
        (void)t.model.backward(res.dlogits);
      }
      {
        iwg::trace::ScopedSpan span("bench.optim", "bench");
        t.opt.step(t.params);
      }
      loss = res.loss;
    }
    const double ms = us_between(s0, Clock::now()) / 1e3;
    if (corrupt) {
      corrupt = false;
      loss = NAN;
    }
    bool ok = std::isfinite(loss);
    if (!ok) r.fail("non-finite loss at step " + std::to_string(t.step));
    if (ok && t.step == 0) {
      const double rel = std::fabs(loss - twin_loss) / std::fabs(twin_loss);
      if (!(rel <= kLossRelBound)) {
        ok = false;
        r.fail("first-step loss " + std::to_string(loss) +
               " vs implicit-GEMM twin " + std::to_string(twin_loss));
      }
    }
    out.add(seconds_since(t0), ms, ok, kStepDeadlineMs);
    ++t.step;
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

}  // namespace

void run_train_step(const Options& opt, Result& r) {
  const auto seed = static_cast<unsigned>(opt.seed);
  const iwg::data::Dataset ds =
      iwg::data::make_cifar_like(kBatch * kBatches, seed, kImage);
  std::vector<Batch> data(kBatches);
  for (int i = 0; i < kBatches; ++i) {
    data[static_cast<std::size_t>(i)].x =
        ds.batch(i * kBatch, kBatch, data[static_cast<std::size_t>(i)].labels);
  }

  double twin_loss = 0.0;
  {
    Model twin = make_net(Net::kVgg16, kBase, kImage, ConvEngine::kGemm, seed);
    const TensorF logits = twin.forward(data[0].x, /*train=*/true);
    twin_loss = iwg::nn::softmax_cross_entropy(logits, data[0].labels).loss;
  }

  // Set-up: build the model and optimizer and warm one inference.
  double setup_s = 0.0;
  const std::unique_ptr<Trainer> t = median_setup(kSetups, setup_s, [&] {
    auto fresh = std::make_unique<Trainer>(Trainer{
        make_net(Net::kVgg16, kBase, kImage, ConvEngine::kWinograd, seed),
        iwg::nn::Sgdm(), {}, 0});
    fresh->params = fresh->model.params();
    (void)fresh->model.infer(data[0].x);
    return fresh;
  });

  bool corrupt = opt.corrupt;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const CacheTally cache0 = CacheTally::now();
  const ClosedLoop run =
      run_steps(*t, data, untraced_s, twin_loss, corrupt, r);
  r.attempted += static_cast<std::int64_t>(run.ops.size());
  r.failed += run.failed;

  const EndToEnd e = run.end_to_end(setup_s, kBatch);
  emit_end_to_end(e, r);
  if (!opt.trace) return;

  double step_ms = 0.0;
  for (const Stamped& op : run.ops) step_ms += op.v;
  r.metric("nn.model_ms", step_ms / static_cast<double>(run.ops.size()), "ms");
  emit_cpu_util(r, run.cpu_s, run.wall_s);
  emit_cache_ratio(cache0, r);
  emit_no_serving(r, static_cast<double>(kBatch));

  start_tracing(kTraceCapacity);
  const ClosedLoop traced =
      run_steps(*t, data, std::min(opt.seconds / 2, kTracedSecondsMax),
                twin_loss, corrupt, r);
  const std::vector<iwg::trace::Event> events =
      stop_tracing(r, opt.trace_out);
  r.attempted += static_cast<std::int64_t>(traced.ops.size());
  r.failed += traced.failed;
  emit_ledger(build_ledger(events), r);
  r.metric("trace.overhead", traced.end_to_end(0.0, kBatch).p50_ms / e.p50_ms,
           "ratio");
  run_layer_probes(r, opt.seed, opt.seconds < 4.0);
}

}  // namespace perf
