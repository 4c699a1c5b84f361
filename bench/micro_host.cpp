// Google-benchmark microbenchmarks of the host execution engines (§6.1
// methodology note: these measure THIS machine's CPU, not the GPU model —
// useful for tracking regressions in the host fast path that the training
// experiments depend on).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "reference/direct_conv.hpp"
#include "reference/im2col_gemm.hpp"
#include "core/gamma_host.hpp"
#include "reference/winograd2d.hpp"

namespace {

using namespace iwg;

ConvShape shape_for(int r) {
  return ConvShape::from_ofms(2, 24, 24, 32, r);
}

struct Inputs {
  TensorF x, w;
};

Inputs make_inputs(const ConvShape& s) {
  Rng rng(9);
  Inputs in;
  in.x.reset({s.n, s.ih, s.iw, s.ic});
  in.x.fill_uniform(rng, -1.0f, 1.0f);
  in.w.reset({s.oc, s.fh, s.fw, s.ic});
  in.w.fill_uniform(rng, -1.0f, 1.0f);
  return in;
}

void BM_HostGammaConv(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  const Inputs in = make_inputs(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::conv2d(in.x, in.w, s));
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      s.flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostGammaConv)->Arg(2)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

// Before/after view of the filter-transform cache: the same repeated-call
// conv as BM_HostGammaConv, but serving ĝ from a FilterTransformCache the
// way `src/nn` does (the weights version never changes inside the loop).
// The delta against BM_HostGammaConv is the per-call transform cost the
// cache eliminates.
void BM_HostGammaConvCached(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  const Inputs in = make_inputs(s);
  core::FilterTransformCache cache(16);
  core::ConvOptions opts;
  opts.filter_cache = &cache;
  opts.weights_version = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::conv2d(in.x, in.w, s, opts));
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      s.flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostGammaConvCached)->Arg(2)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_HostGemmConv(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  const Inputs in = make_inputs(s);
  core::ConvOptions opts;
  opts.use_winograd = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::conv2d(in.x, in.w, s, opts));
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      s.flops() * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HostGemmConv)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_HostDirectConv(benchmark::State& state) {
  const ConvShape s = shape_for(static_cast<int>(state.range(0)));
  const Inputs in = make_inputs(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::conv2d_direct(in.x, in.w, s));
  }
}
BENCHMARK(BM_HostDirectConv)->Arg(3)->Arg(5);

void BM_HostWinograd2d(benchmark::State& state) {
  const ConvShape s = shape_for(3);
  const Inputs in = make_inputs(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::conv2d_winograd2d_f2x2_3x3(in.x, in.w, s));
  }
}
BENCHMARK(BM_HostWinograd2d);

void BM_HostDeconv(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  Rng rng(11);
  TensorF dy({s.n, s.oh(), s.ow(), s.oc});
  dy.fill_uniform(rng, -1.0f, 1.0f);
  const Inputs in = make_inputs(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::deconv2d(dy, in.w, s));
  }
}
BENCHMARK(BM_HostDeconv)->Arg(3)->Arg(5);

void BM_FilterGradWinograd(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  const Inputs in = make_inputs(s);
  Rng rng(13);
  TensorF dy({s.n, s.oh(), s.ow(), s.oc});
  dy.fill_uniform(rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::conv2d_filter_grad_winograd(in.x, dy, s));
  }
}
BENCHMARK(BM_FilterGradWinograd)->Arg(3)->Arg(5)->Arg(7);

void BM_FilterGradGemm(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const ConvShape s = shape_for(r);
  const Inputs in = make_inputs(s);
  Rng rng(13);
  TensorF dy({s.n, s.oh(), s.ow(), s.oc});
  dy.fill_uniform(rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref::conv2d_filter_grad_gemm(in.x, dy, s));
  }
}
BENCHMARK(BM_FilterGradGemm)->Arg(3)->Arg(5)->Arg(7);

void BM_TransformPaired(benchmark::State& state) {
  const WinogradPlan& plan = get_plan(6, 3);
  const TransformEval eval(8, 8, plan.bt_f, state.range(0) == 1);
  float x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  float y[8];
  for (auto _ : state) {
    eval.apply(x, 1, y, 1);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_TransformPaired)->Arg(0)->Arg(1);

// --- Per-kernel, per-ISA table -------------------------------------------
//
// One benchmark per (dispatch-table entry, available ISA), registered at
// startup from host_isa_available() so the table shrinks to what the build
// and CPU actually carry (scalar-only under -DIWG_HOST_ISA=scalar). Each
// reports GB/s (bytes the kernel touches once per call) and GFLOP/s, so a
// kernel regression is attributable to the exact entry and ISA rather than
// smeared across a whole conv.

struct KernelBuffers {
  std::vector<float> d, g, m, y;
  std::vector<const float*> taps;
  std::vector<const float*> ds;
  std::vector<float*> ms;
};

KernelBuffers make_kernel_buffers(std::int64_t kc, std::int64_t nj, int rows) {
  Rng rng(17);
  KernelBuffers b;
  b.d.resize(static_cast<std::size_t>(rows) * kc);
  b.g.resize(static_cast<std::size_t>(kc) * nj);
  b.m.resize(static_cast<std::size_t>(rows) * nj);
  b.y.resize(static_cast<std::size_t>(nj));
  for (float& v : b.d) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : b.g) v = rng.uniform(-1.0f, 1.0f);
  for (int r = 0; r < rows; ++r) {
    b.taps.push_back(b.d.data() + static_cast<std::size_t>(r) * kc);
    b.ds.push_back(b.d.data() + static_cast<std::size_t>(r) * kc);
    b.ms.push_back(b.m.data() + static_cast<std::size_t>(r) * nj);
  }
  return b;
}

void register_kernel_benches() {
  using core::HostIsa;
  using core::HostKernels;
  constexpr std::int64_t kNc = 64;  // channel-lane count (NHWC row length)
  constexpr std::int64_t kKc = 32;  // rank-1 depth (IC)
  constexpr std::int64_t kNj = 32;  // rank-1 width (OC)
  constexpr int kRows = 8;          // blocked-axpy row count
  for (const HostIsa isa : core::host_isa_available()) {
    const HostKernels* hk = core::host_kernels_for(isa);
    const std::string suffix = std::string("/") + hk->name;

    // Input transform: B^T (α×α, α=8 for Γ(6,3)) over 64-channel rows.
    benchmark::RegisterBenchmark(
        ("BM_KernelInputTransform" + suffix).c_str(),
        [hk](benchmark::State& state) {
          const WinogradPlan& plan = get_plan(6, 3);
          auto b = make_kernel_buffers(kNc, kNc, 8);
          std::vector<float> dst(8 * kNc);
          for (auto _ : state) {
            hk->transform_cols(plan.bt_f.data(), 8, 8, b.taps.data(), kNc,
                               dst.data(), kNc);
            benchmark::DoNotOptimize(dst.data());
          }
          const double it = static_cast<double>(state.iterations());
          state.counters["GB/s"] = benchmark::Counter(
              it * (8 + 8) * kNc * sizeof(float) / 1e9,
              benchmark::Counter::kIsRate);
          state.counters["Gflop/s"] = benchmark::Counter(
              it * 2.0 * 8 * 8 * kNc / 1e9, benchmark::Counter::kIsRate);
        });

    // Filter transform: G (α×r, 8×3) over 64-channel rows.
    benchmark::RegisterBenchmark(
        ("BM_KernelFilterTransform" + suffix).c_str(),
        [hk](benchmark::State& state) {
          const WinogradPlan& plan = get_plan(6, 3);
          auto b = make_kernel_buffers(kNc, kNc, 3);
          std::vector<float> dst(8 * kNc);
          for (auto _ : state) {
            hk->transform_cols(plan.g_f.data(), 8, 3, b.taps.data(), kNc,
                               dst.data(), kNc);
            benchmark::DoNotOptimize(dst.data());
          }
          const double it = static_cast<double>(state.iterations());
          state.counters["GB/s"] = benchmark::Counter(
              it * (3 + 8) * kNc * sizeof(float) / 1e9,
              benchmark::Counter::kIsRate);
          state.counters["Gflop/s"] = benchmark::Counter(
              it * 2.0 * 8 * 3 * kNc / 1e9, benchmark::Counter::kIsRate);
        });

    // Single-row rank-1 accumulate (the load-bound baseline).
    benchmark::RegisterBenchmark(
        ("BM_KernelAxpyRank1" + suffix).c_str(),
        [hk](benchmark::State& state) {
          auto b = make_kernel_buffers(kKc, kNj, 1);
          for (auto _ : state) {
            hk->axpy_rank1(b.d.data(), b.g.data(), b.m.data(), kKc, kNj);
            benchmark::DoNotOptimize(b.m.data());
          }
          const double it = static_cast<double>(state.iterations());
          state.counters["GB/s"] = benchmark::Counter(
              it * (kKc + kKc * kNj + 2 * kNj) * sizeof(float) / 1e9,
              benchmark::Counter::kIsRate);
          state.counters["Gflop/s"] = benchmark::Counter(
              it * 2.0 * kKc * kNj / 1e9, benchmark::Counter::kIsRate);
        });

    // Blocked rank-1 (8 accumulator rows per streamed ĝ vector) — the
    // engine's payoff kernel; compare against 8× the single-row number.
    benchmark::RegisterBenchmark(
        ("BM_KernelAxpyRank1Multi" + suffix).c_str(),
        [hk](benchmark::State& state) {
          auto b = make_kernel_buffers(kKc, kNj, kRows);
          for (auto _ : state) {
            hk->axpy_rank1_multi(b.ds.data(), b.g.data(), b.ms.data(), kRows,
                                 kKc, kNj);
            benchmark::DoNotOptimize(b.m.data());
          }
          const double it = static_cast<double>(state.iterations());
          state.counters["GB/s"] = benchmark::Counter(
              it * (kRows * kKc + kKc * kNj + 2 * kRows * kNj) *
                  sizeof(float) / 1e9,
              benchmark::Counter::kIsRate);
          state.counters["Gflop/s"] = benchmark::Counter(
              it * 2.0 * kRows * kKc * kNj / 1e9,
              benchmark::Counter::kIsRate);
        });

    // Output transform: one A^T row (α=8 terms) over 64 output channels.
    benchmark::RegisterBenchmark(
        ("BM_KernelOutTransform" + suffix).c_str(),
        [hk](benchmark::State& state) {
          const WinogradPlan& plan = get_plan(6, 3);
          auto b = make_kernel_buffers(8, kNc, 8);
          for (auto _ : state) {
            hk->out_transform(plan.at_f.data(), 8, b.m.data(), kNc,
                              b.y.data(), kNc);
            benchmark::DoNotOptimize(b.y.data());
          }
          const double it = static_cast<double>(state.iterations());
          state.counters["GB/s"] = benchmark::Counter(
              it * (8 * kNc + 2 * kNc) * sizeof(float) / 1e9,
              benchmark::Counter::kIsRate);
          state.counters["Gflop/s"] = benchmark::Counter(
              it * 2.0 * 8 * kNc / 1e9, benchmark::Counter::kIsRate);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
