#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/host_kernels.hpp"
#include "reference/im2col_gemm.hpp"

namespace perf {

namespace {

using iwg::ConvShape;
using iwg::TensorF;

/// Repeat `call` until `budget_s` has elapsed; returns seconds per call.
template <typename F>
double per_call_seconds(double budget_s, F&& call) {
  std::int64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 64; ++i) call();
    calls += 64;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

/// The unit-stride conv shapes of make_vgg(16) at batch 8, 32 px, base 16
/// (the zoo_infer geometry), for filter width f.
std::vector<ConvShape> vgg16_shapes(std::int64_t f) {
  const int convs[] = {2, 2, 3, 3, 3};
  std::vector<ConvShape> out;
  std::int64_t ch = 3;
  std::int64_t spatial = 32;
  for (int stage = 0; stage < 5; ++stage) {
    const std::int64_t width = std::int64_t{16} << std::min(stage, 3);
    for (int i = 0; i < convs[stage]; ++i) {
      out.push_back(ConvShape{.n = 8, .ih = spatial, .iw = spatial, .ic = ch,
                              .oc = width, .fh = f, .fw = f, .ph = f / 2,
                              .pw = f / 2});
      ch = width;
    }
    if (spatial >= 8) spatial /= 2;
  }
  return out;
}

/// Multiply-adds the Γ segments of a plan issue, as flops: per output tile
/// and filter row, α·IC·OC rank-1 updates.
double gamma_flops(const ConvShape& s) {
  double flops = 0.0;
  for (const iwg::core::Segment& seg : iwg::core::plan_for(s)) {
    if (seg.is_gemm) continue;
    const double tiles = static_cast<double>(s.n * s.oh()) *
                         static_cast<double>(seg.ow_len / seg.cfg.n);
    flops += 2.0 * tiles * static_cast<double>(s.fh) * seg.cfg.alpha *
             static_cast<double>(s.ic) * static_cast<double>(s.oc);
  }
  return flops;
}

struct ConvReplay {
  double gflops = 0.0;        ///< direct-equivalent GFLOP/s
  double gamma_gflops = 0.0;  ///< Γ-domain GFLOP/s
};

ConvReplay replay_convs(const std::vector<ConvShape>& shapes,
                        std::uint64_t seed, int reps) {
  iwg::core::FilterTransformCache cache;
  std::vector<TensorF> xs;
  std::vector<TensorF> ws;
  double direct = 0.0;
  double gamma = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ConvShape& s = shapes[i];
    xs.push_back(random_tensor({s.n, s.ih, s.iw, s.ic}, seed + 2 * i));
    ws.push_back(random_tensor({s.oc, s.fh, s.fw, s.ic}, seed + 2 * i + 1));
    direct += s.flops();
    gamma += gamma_flops(s);
  }
  iwg::core::ConvOptions opts;
  opts.filter_cache = &cache;
  opts.weights_version = 1;
  auto run_all = [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      (void)iwg::core::conv2d(xs[i], ws[i], shapes[i], opts);
    }
  };
  run_all();  // fill the filter-transform cache and the scratch arenas
  const double s = median_seconds(reps, run_all);
  return ConvReplay{direct / s / 1e9, gamma / s / 1e9};
}

}  // namespace

CacheTally CacheTally::now() {
  return CacheTally{iwg::core::filter_transform_hits().value(),
                    iwg::core::filter_transform_misses().value()};
}

void emit_cache_ratio(const CacheTally& before, Result& r) {
  const CacheTally t = CacheTally::now();
  const auto hits = static_cast<double>(t.hits - before.hits);
  const auto misses = static_cast<double>(t.misses - before.misses);
  r.metric("core.filter_cache_hit_ratio",
           hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
}

void run_layer_probes(Result& r, std::uint64_t seed, bool smoke) {
  const double budget = smoke ? 0.02 : 0.15;
  const int reps = smoke ? 1 : 5;
  const iwg::core::HostKernels& hk = iwg::core::host_kernels();

  // host_kernels: cache-resident operands so the rate is the kernel's, not
  // the memory system's. The accumulate probe is the Γ engine's inner call:
  // axpy_rank1_multi over a 16-row output block (gamma_host's kRowBlock)
  // at IC = OC = 64.
  double axpy = 0.0;
  {
    constexpr int rows = 16;
    constexpr std::int64_t kc = 64;
    constexpr std::int64_t nj = 64;
    TensorF d = random_tensor({rows * kc}, seed);
    TensorF g = random_tensor({kc * nj}, seed + 1);
    TensorF m({rows * nj});
    const float* ds[rows];
    float* ms[rows];
    for (int i = 0; i < rows; ++i) {
      ds[i] = d.data() + i * kc;
      ms[i] = m.data() + i * nj;
    }
    const double s = per_call_seconds(budget, [&] {
      hk.axpy_rank1_multi(ds, g.data(), ms, rows, kc, nj);
    });
    axpy = 2.0 * rows * kc * nj / s / 1e9;
    r.metric("host_kernels.axpy_gflops", axpy, "GFLOP/s");
  }
  {
    constexpr int alpha = 8;
    constexpr std::int64_t nc = 512;
    TensorF mat = random_tensor({alpha * alpha}, seed + 2);
    TensorF src = random_tensor({alpha * nc}, seed + 3);
    TensorF dst({alpha * nc});
    const float* rows[alpha];
    for (int e = 0; e < alpha; ++e) rows[e] = src.data() + e * nc;
    const double s = per_call_seconds(budget, [&] {
      hk.transform_cols(mat.data(), alpha, alpha, rows, nc, dst.data(), nc);
    });
    r.metric("host_kernels.transform_gbps",
             2.0 * alpha * nc * sizeof(float) / s / 1e9, "GB/s");
    TensorF y({nc});
    const double so = per_call_seconds(budget, [&] {
      hk.out_transform(mat.data(), alpha, src.data(), nc, y.data(), nc);
    });
    r.metric("host_kernels.out_transform_gbps",
             (alpha + 1.0) * nc * sizeof(float) / so / 1e9, "GB/s");
  }
  // core: the zoo's unit-stride conv shapes, warm filter-transform cache.
  const ConvReplay r3 = replay_convs(vgg16_shapes(3), seed + 10, reps);
  const ConvReplay r5 = replay_convs(vgg16_shapes(5), seed + 20, reps);
  r.metric("core.conv_gflops.r3", r3.gflops, "GFLOP/s");
  r.metric("core.conv_gflops.r5", r5.gflops, "GFLOP/s");
  // Achieved Γ-domain rate over the axpy rate on every hardware thread.
  r.metric("core.gamma_ceiling_frac",
           r3.gamma_gflops / (axpy * hardware_threads()), "share");

  // core: ResNet18's stride-2 layers (base 16, 32 px, batch 8), which run
  // on the strided implicit-GEMM fallback.
  {
    struct Strided {
      std::int64_t ih, ic, oc, f;
    };
    const Strided layers[] = {{32, 16, 32, 3}, {32, 16, 32, 1},
                              {16, 32, 64, 3}, {16, 32, 64, 1},
                              {8, 64, 128, 3}, {8, 64, 128, 1}};
    std::vector<ConvShape> shapes;
    std::vector<TensorF> xs;
    std::vector<TensorF> ws;
    std::uint64_t k = seed + 30;
    for (const Strided& l : layers) {
      shapes.push_back(ConvShape{.n = 8, .ih = l.ih, .iw = l.ih, .ic = l.ic,
                                 .oc = l.oc, .fh = l.f, .fw = l.f,
                                 .ph = l.f / 2, .pw = l.f / 2});
      xs.push_back(random_tensor({8, l.ih, l.ih, l.ic}, k++));
      ws.push_back(random_tensor({l.oc, l.f, l.f, l.ic}, k++));
    }
    auto run_all = [&] {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        (void)iwg::ref::conv2d_implicit_gemm_strided(xs[i], ws[i], shapes[i],
                                                     2, 2);
      }
    };
    run_all();
    r.metric("core.strided_ms", median_seconds(reps, run_all) * 1e3, "ms");
  }

  // common: an empty 64-task fork/join on the global pool.
  {
    std::vector<double> us;
    const int rounds = smoke ? 50 : 2000;
    for (int i = 0; i < rounds; ++i) {
      const Clock::time_point t0 = Clock::now();
      iwg::parallel_for(64, [](std::int64_t) {});
      us.push_back(us_between(t0, Clock::now()));
    }
    r.metric("common.parallel_for_us", quantile(us, 0.5), "us");
  }
  r.metric("common.arena_high_water_kb",
           static_cast<double>(iwg::ScratchArena::max_high_water()) / 1024.0,
           "KiB");
}

}  // namespace perf
