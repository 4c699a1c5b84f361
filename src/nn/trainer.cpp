#include "nn/trainer.hpp"

#include <cstdio>
#include <optional>

#include "common/timer.hpp"
#include "common/trace.hpp"

namespace iwg::nn {

TrainStats train_model(Model& model, Optimizer& opt,
                       const data::Dataset& train_set,
                       const data::Dataset* test_set, const TrainConfig& cfg) {
  std::optional<trace::Suppress> mute;
  if (!cfg.trace) mute.emplace();
  trace::Histogram& epoch_hist =
      trace::MetricsRegistry::global().histogram("nn.epoch_s");
  TrainStats stats;
  const std::vector<Param*> params = model.params();
  stats.param_bytes = model.param_bytes();

  const std::int64_t steps_per_epoch = train_set.count() / cfg.batch;
  IWG_CHECK_MSG(steps_per_epoch > 0, "dataset smaller than one batch");

  if (cfg.autotune != nullptr) {
    // Pre-resolve every conv plan before the first batch so no training step
    // pays selector time (the plans may already sit in a loaded plan DB).
    model.pretune(cfg.batch, train_set.images.dim(1), train_set.images.dim(3),
                  *cfg.autotune);
  }

  std::int64_t step = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    IWG_TRACE_SPAN(epoch_span, "train.epoch", "nn");
    epoch_span.arg("epoch", epoch);
    Timer epoch_timer;
    std::int64_t correct = 0;
    std::int64_t seen = 0;
    for (std::int64_t s = 0; s < steps_per_epoch; ++s, ++step) {
      IWG_TRACE_SPAN(step_span, "train.step", "nn");
      step_span.arg("step", step);
      std::vector<std::int64_t> labels;
      const TensorF x = train_set.batch(s * cfg.batch, cfg.batch, labels);
      opt.zero_grad(params);
      const TensorF logits = model.forward(x, /*train=*/true);
      const LossResult res = softmax_cross_entropy(logits, labels);
      model.backward(res.dlogits);
      opt.step(params);
      step_span.arg("loss", static_cast<double>(res.loss));
      correct += res.correct;
      seen += cfg.batch;
      if (step % cfg.record_every == 0) stats.loss_curve.push_back(res.loss);
      if (cfg.verbose && s % 20 == 0) {
        std::printf("epoch %d step %lld loss %.4f\n", epoch,
                    static_cast<long long>(s), static_cast<double>(res.loss));
      }
    }
    const double epoch_s = epoch_timer.seconds();
    stats.epoch_seconds.push_back(epoch_s);
    epoch_hist.record(epoch_s);
    trace::MetricsRegistry::global().counter("nn.epochs").add();
    stats.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(seen);
  }
  double total = 0.0;
  for (double t : stats.epoch_seconds) total += t;
  stats.seconds_per_epoch = total / static_cast<double>(cfg.epochs);

  // Memory accounting: weights + gradients + optimizer-agnostic activation
  // caches from the last training step.
  stats.memory_bytes = 2 * stats.param_bytes + model.activation_bytes();

  if (test_set != nullptr) {
    stats.test_accuracy = evaluate(model, *test_set, cfg.batch);
  }
  return stats;
}

double evaluate(Model& model, const data::Dataset& ds, std::int64_t batch) {
  IWG_TRACE_SCOPE("evaluate", "nn");
  std::int64_t correct = 0;
  std::int64_t seen = 0;
  const std::int64_t batches = ds.count() / batch;
  for (std::int64_t b = 0; b < batches; ++b) {
    std::vector<std::int64_t> labels;
    const TensorF x = ds.batch(b * batch, batch, labels);
    const TensorF logits = model.forward(x, /*train=*/false);
    const LossResult res = softmax_cross_entropy(logits, labels);
    correct += res.correct;
    seen += batch;
  }
  return seen == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(seen);
}

}  // namespace iwg::nn
