// Integration tests of the training framework: optimizers, model zoo
// construction, convergence on synthetic data, and the Experiment-3 property
// that Winograd- and GEMM-backed training stay numerically close.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <tuple>

#include "core/plan_cache.hpp"
#include "data/synthetic.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace iwg::nn {
namespace {

TEST(Optimizers, SgdmMovesAgainstGradient) {
  Param p;
  p.value.reset({2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  p.grad.reset({2});
  p.grad[0] = 0.5f;
  p.grad[1] = -0.5f;
  Sgdm opt(0.1f, 0.9f);
  opt.step({&p});
  EXPECT_LT(p.value[0], 1.0f);
  EXPECT_GT(p.value[1], -1.0f);
  // Momentum: a second identical step moves farther.
  const float d1 = 1.0f - p.value[0];
  const float before = p.value[0];
  opt.step({&p});
  EXPECT_GT(before - p.value[0], d1 * 1.5f);
}

TEST(Optimizers, AdamStepSizeBounded) {
  Param p;
  p.value.reset({1});
  p.grad.reset({1});
  p.grad[0] = 100.0f;  // huge gradient: Adam still steps ≈ lr
  Adam opt(1e-3f);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], -1e-3f, 2e-4f);
}

TEST(Optimizers, AdamConvergesOnQuadratic) {
  Param p;
  p.value.reset({1});
  p.value[0] = 3.0f;
  p.grad.reset({1});
  Adam opt(0.05f);
  for (int i = 0; i < 400; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 1.0f);  // d/dx (x−1)²
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 1.0f, 0.05f);
}

TEST(Optimizers, StepsAreBitwiseThePerElementFormula) {
  // Three steps of SGDM and of Adam over params whose sizes are not
  // multiples of the optimizers' chunk (a 1-element param among them)
  // against the per-element formulas, bit for bit; zero_grad clears every
  // element of every param.
  const std::int64_t sizes[] = {1, 100, 16385, 40001};
  const auto make = [&](unsigned seed) {
    std::vector<Param> ps(std::size(sizes));
    Rng rng(seed);
    for (std::size_t k = 0; k < ps.size(); ++k) {
      ps[k].value.reset({sizes[k]});
      ps[k].value.fill_uniform(rng, -1.0f, 1.0f);
      ps[k].grad.reset({sizes[k]});
    }
    return ps;
  };
  const auto grads = [](std::vector<Param>& ps, int step) {
    Rng rng(static_cast<unsigned>(90 + step));
    for (Param& p : ps) p.grad.fill_uniform(rng, -2.0f, 2.0f);
  };
  const auto same = [](const TensorF& a, const TensorF& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) * sizeof(float)) ==
               0;
  };
  const float lr = 0.01f;
  {
    std::vector<Param> ps = make(81);
    std::vector<Param> want = make(81);
    std::vector<Param*> ptrs;
    for (Param& p : ps) ptrs.push_back(&p);
    std::vector<TensorF> vel;
    for (const Param& p : want) vel.emplace_back(std::vector{p.value.size()});
    Sgdm opt(lr, 0.9f);
    for (int step = 0; step < 3; ++step) {
      grads(ps, step);
      grads(want, step);
      opt.step(ptrs);
      for (std::size_t k = 0; k < want.size(); ++k) {
        for (std::int64_t i = 0; i < want[k].value.size(); ++i) {
          vel[k][i] = 0.9f * vel[k][i] + want[k].grad[i];
          want[k].value[i] -= lr * vel[k][i];
        }
      }
    }
    for (std::size_t k = 0; k < ps.size(); ++k) {
      EXPECT_TRUE(same(ps[k].value, want[k].value)) << "SGDM param " << k;
      EXPECT_EQ(ps[k].version, 3u);
    }
    opt.zero_grad(ptrs);
    for (const Param& p : ps) {
      for (std::int64_t i = 0; i < p.grad.size(); ++i) {
        ASSERT_EQ(p.grad[i], 0.0f);
      }
    }
  }
  {
    std::vector<Param> ps = make(82);
    std::vector<Param> want = make(82);
    std::vector<Param*> ptrs;
    for (Param& p : ps) ptrs.push_back(&p);
    std::vector<TensorF> ms, vs;
    for (const Param& p : want) {
      ms.emplace_back(std::vector{p.value.size()});
      vs.emplace_back(std::vector{p.value.size()});
    }
    const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
    Adam opt(lr, b1, b2, eps);
    for (int step = 0; step < 3; ++step) {
      grads(ps, step);
      grads(want, step);
      opt.step(ptrs);
      const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step + 1));
      const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step + 1));
      for (std::size_t k = 0; k < want.size(); ++k) {
        for (std::int64_t i = 0; i < want[k].value.size(); ++i) {
          const float g = want[k].grad[i];
          ms[k][i] = b1 * ms[k][i] + (1.0f - b1) * g;
          vs[k][i] = b2 * vs[k][i] + (1.0f - b2) * g * g;
          const float mh = ms[k][i] / bc1;
          const float vh = vs[k][i] / bc2;
          want[k].value[i] -= lr * mh / (std::sqrt(vh) + eps);
        }
      }
    }
    for (std::size_t k = 0; k < ps.size(); ++k) {
      EXPECT_TRUE(same(ps[k].value, want[k].value)) << "Adam param " << k;
    }
  }
}

TEST(ModelZoo, VggLayerCounts) {
  ModelConfig cfg;
  cfg.image_size = 16;
  cfg.base_channels = 4;
  Model vgg16 = make_vgg(16, cfg);
  Model vgg19 = make_vgg(19, cfg);
  EXPECT_GT(vgg19.param_count(), vgg16.param_count());
  EXPECT_GT(vgg19.layer_count(), vgg16.layer_count());
}

TEST(ModelZoo, Vgg5x5HasLargerFilters) {
  ModelConfig cfg;
  cfg.image_size = 16;
  cfg.base_channels = 4;
  Model x3 = make_vgg(16, cfg, 3);
  Model x5 = make_vgg(16, cfg, 5);
  // 5×5 filters hold 25/9 of the weights in conv layers.
  EXPECT_GT(x5.param_count(), x3.param_count());
}

TEST(ModelZoo, ResnetDepths) {
  ModelConfig cfg;
  cfg.image_size = 16;
  cfg.base_channels = 4;
  Model r18 = make_resnet(18, cfg);
  Model r34 = make_resnet(34, cfg);
  EXPECT_GT(r34.param_count(), r18.param_count());
}

TEST(ModelZoo, ForwardShapes) {
  ModelConfig cfg;
  cfg.image_size = 16;
  cfg.base_channels = 4;
  cfg.num_classes = 10;
  for (auto* model : {new Model(make_vgg(16, cfg)),
                      new Model(make_resnet(18, cfg))}) {
    Rng rng(5);
    TensorF x({2, 16, 16, 3});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const TensorF y = model->forward(x, false);
    EXPECT_EQ(y.rank(), 2);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 10);
    delete model;
  }
}

TEST(Dataset, BalancedAndBounded) {
  const auto ds = data::make_cifar_like(100, 7);
  EXPECT_EQ(ds.count(), 100);
  EXPECT_EQ(ds.classes, 10);
  std::vector<int> hist(10, 0);
  for (auto l : ds.labels) hist[static_cast<std::size_t>(l)]++;
  for (int h : hist) EXPECT_EQ(h, 10);
  for (std::int64_t i = 0; i < ds.images.size(); ++i) {
    EXPECT_GE(ds.images[i], -1.0f);
    EXPECT_LE(ds.images[i], 1.0f);
  }
}

TEST(Dataset, Deterministic) {
  const auto a = data::make_cifar_like(20, 42);
  const auto b = data::make_cifar_like(20, 42);
  for (std::int64_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i], b.images[i]);
  }
}

TEST(Dataset, BatchSlicing) {
  const auto ds = data::make_cifar_like(30, 3);
  std::vector<std::int64_t> labels;
  const TensorF b = ds.batch(10, 5, labels);
  EXPECT_EQ(b.dim(0), 5);
  EXPECT_EQ(labels.size(), 5u);
  EXPECT_EQ(b[0], ds.images[10 * 16 * 16 * 3]);
}

TEST(Training, SmallCnnLearnsSyntheticData) {
  const auto train_set = data::make_cifar_like(160, 11, /*size=*/8);
  ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  mc.engine = ConvEngine::kWinograd;
  Model model = make_vgg(16, mc);
  Adam opt(1e-3f);
  TrainConfig tc;
  tc.epochs = 6;
  tc.batch = 16;
  tc.record_every = 1;
  const TrainStats stats = train_model(model, opt, train_set, nullptr, tc);
  ASSERT_GE(stats.loss_curve.size(), 10u);
  // Loss at the end well below the start (and below chance level ln 10).
  const float first = stats.loss_curve.front();
  float last = 0.0f;
  for (std::size_t i = stats.loss_curve.size() - 5; i < stats.loss_curve.size();
       ++i) {
    last += stats.loss_curve[i] / 5.0f;
  }
  EXPECT_LT(last, first * 0.7f);
  EXPECT_GT(stats.train_accuracy, 0.3f);  // ≫ 0.1 chance
  EXPECT_GT(stats.seconds_per_epoch, 0.0);
  EXPECT_GT(stats.param_bytes, 0);
  EXPECT_GT(stats.memory_bytes, stats.param_bytes);
}

TEST(Training, PretuneResolvesConvPlansAtGraphBuild) {
  // Graph-build autotuning (§5.7 integration): pretune walks the network's
  // shape chain and resolves every stride-1 Winograd conv through the plan
  // cache before the first batch; the tuned forward path stays numerically
  // equivalent to the heuristic one.
  ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  mc.engine = ConvEngine::kWinograd;
  Model model = make_vgg(16, mc);

  core::PlanCache cache(/*capacity=*/64, /*num_shards=*/2);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  AutotuneContext ctx;
  ctx.dev = &dev;
  ctx.cache = &cache;
  ctx.samples = 1;
  ctx.max_candidates = 2;
  const int resolved = model.pretune(/*batch=*/4, /*image_size=*/8,
                                     /*channels=*/3, ctx);
  EXPECT_GT(resolved, 0);
  EXPECT_EQ(cache.stats().lookups, resolved);  // one lookup per conv layer
  EXPECT_GE(cache.size(), 1);

  // A second pretune (the "second run" of a deployed model) is all hits.
  AutotuneContext ctx2 = ctx;
  ctx2.resolved = 0;
  Model again = make_vgg(16, mc);
  const auto before = cache.stats();
  EXPECT_EQ(again.pretune(4, 8, 3, ctx2), resolved);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, resolved);
  EXPECT_EQ(after.misses, before.misses);

  // Tuned and untuned forward agree (same seed ⇒ same weights; only the
  // kernel chain may differ).
  const auto ds = data::make_cifar_like(16, 5, /*size=*/8);
  std::vector<std::int64_t> labels;
  const TensorF x = ds.batch(0, 4, labels);
  Model untuned = make_vgg(16, mc);
  const TensorF y_tuned = model.forward(x, /*train=*/false);
  const TensorF y_plain = untuned.forward(x, /*train=*/false);
  ASSERT_TRUE(y_tuned.same_shape(y_plain));
  for (std::int64_t i = 0; i < y_tuned.size(); ++i) {
    EXPECT_NEAR(y_tuned[i], y_plain[i], 1e-2f) << i;
  }
}

TEST(Training, WinogradAndGemmEnginesConvergeTogether) {
  // The Experiment-3 property: same seeds, same data, only the convolution
  // algorithm differs — the loss curves must stay close.
  const auto train_set = data::make_cifar_like(96, 13, /*size=*/8);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch = 16;
  tc.record_every = 1;

  ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  mc.seed = 77;

  mc.engine = ConvEngine::kWinograd;
  Model alpha = make_vgg(16, mc);
  Adam opt_a(1e-3f);
  const TrainStats sa = train_model(alpha, opt_a, train_set, nullptr, tc);

  mc.engine = ConvEngine::kGemm;
  Model base = make_vgg(16, mc);
  Adam opt_b(1e-3f);
  const TrainStats sb = train_model(base, opt_b, train_set, nullptr, tc);

  ASSERT_EQ(sa.loss_curve.size(), sb.loss_curve.size());
  double max_gap = 0.0;
  for (std::size_t i = 0; i < sa.loss_curve.size(); ++i) {
    max_gap = std::max(
        max_gap, std::abs(static_cast<double>(sa.loss_curve[i]) -
                          sb.loss_curve[i]));
  }
  // Identical initialization: early steps match tightly; divergence stays
  // small in absolute loss terms over this horizon.
  EXPECT_LT(std::abs(sa.loss_curve[0] - sb.loss_curve[0]), 1e-3);
  EXPECT_LT(max_gap, 0.5);
  EXPECT_NEAR(sa.train_accuracy, sb.train_accuracy, 0.3);
}

TEST(Training, IdenticalModelsTrainToBitwiseEqualWeights) {
  // Every training pass has a fixed partition (row chunks, 256-row blocks,
  // optimizer chunks, per-task outputs), so two identical models trained on
  // the same batches end bitwise equal, whatever the pool's scheduling.
  const auto ds = data::make_cifar_like(48, 17, /*size=*/8);
  ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  mc.seed = 5;
  for (const bool resnet : {false, true}) {
    for (const bool adam : {false, true}) {
      SCOPED_TRACE(std::string(resnet ? "ResNet18" : "VGG16") +
                   (adam ? " Adam" : " SGDM"));
      Model a = resnet ? make_resnet(18, mc) : make_vgg(16, mc);
      Model b = resnet ? make_resnet(18, mc) : make_vgg(16, mc);
      std::unique_ptr<Optimizer> oa, ob;
      if (adam) {
        oa = std::make_unique<Adam>(1e-3f);
        ob = std::make_unique<Adam>(1e-3f);
      } else {
        oa = std::make_unique<Sgdm>(1e-2f);
        ob = std::make_unique<Sgdm>(1e-2f);
      }
      const std::vector<Param*> pa = a.params();
      const std::vector<Param*> pb = b.params();
      for (int step = 0; step < 3; ++step) {
        std::vector<std::int64_t> labels;
        const TensorF x = ds.batch(step * 16, 16, labels);
        for (auto [m, o, ps] : {std::tuple{&a, oa.get(), &pa},
                                std::tuple{&b, ob.get(), &pb}}) {
          o->zero_grad(*ps);
          const TensorF logits = m->forward(x, /*train=*/true);
          m->backward(softmax_cross_entropy(logits, labels).dlogits);
          o->step(*ps);
        }
      }
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t k = 0; k < pa.size(); ++k) {
        ASSERT_TRUE(pa[k]->value.same_shape(pb[k]->value));
        EXPECT_EQ(std::memcmp(pa[k]->value.data(), pb[k]->value.data(),
                              static_cast<std::size_t>(pa[k]->value.size()) *
                                  sizeof(float)),
                  0)
            << pa[k]->name;
      }
    }
  }
}

TEST(Training, EvaluateReportsAccuracy) {
  const auto ds = data::make_cifar_like(32, 15, 8);
  ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  Model model = make_vgg(16, mc);
  const double acc = evaluate(model, ds, 16);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace iwg::nn
