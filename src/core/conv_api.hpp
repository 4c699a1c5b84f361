// Public convolution API of the library.
//
// Three execution paths share one boundary plan (§5.5):
//   * conv2d / deconv2d        — host engine (training, accuracy studies)
//   * conv2d_sim / deconv2d_sim— functional SIMT execution (validation)
//   * profile_conv2d           — sampled counters + analytic time estimate
//                                 on a device profile (performance studies)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/gamma_config.hpp"
#include "core/gamma_kernel.hpp"
#include "core/gemm_kernel.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg::core {

class FilterTransformCache;

struct ConvOptions {
  bool use_winograd = true;  ///< false: pure implicit-GEMM convolution
  bool allow_ruse = true;    ///< §5.4 overlap-reuse variants where profitable
  bool allow_c64 = false;    ///< §5.6 Γ^c64 (channels must be ≥ 64-friendly)
  bool trace = true;  ///< false: suppress span emission even when IWG_TRACE on
  /// Cross-call reuse of transformed filters ĝ. Leave the cache null for
  /// convolutions against transient weights; `src/nn` points it at
  /// FilterTransformCache::global() with the parameter's bumped version so a
  /// transform is computed once per (weights version, Γ geometry).
  FilterTransformCache* filter_cache = nullptr;
  std::uint64_t weights_version = 0;  ///< key alongside the weights address
};

/// Boundary plan for a shape under the default priority lists.
std::vector<Segment> plan_for(const ConvShape& s, const ConvOptions& opts = {});

/// The GEMM-only plan: one implicit-GEMM segment over all `ow` columns.
std::vector<Segment> gemm_plan(std::int64_t ow);

/// Boundary plan that uses exactly `primary` for the divisible prefix and
/// GEMM for the remainder (benchmarking a specific kernel variant).
std::vector<Segment> plan_single(const ConvShape& s, const GammaConfig& primary);

/// Unit-stride 2-D convolution, NHWC, host engine.
TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const ConvOptions& opts = {});

/// Same, but executing an explicit boundary plan (e.g. a tuned plan from
/// the selector/plan-cache subsystem) instead of the default priorities.
/// `opts` contributes only the filter-cache/trace knobs (the plan already
/// fixes the kernel choices).
TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const std::vector<Segment>& plan, const ConvOptions& opts = {});

/// Stride-`stride` 2-D convolution, NHWC, host engine; the output is
/// strided_extent(s.oh(), stride) × strided_extent(s.ow(), stride). Stride
/// 1 is conv2d. Larger strides run the implicit GEMM (the paper keeps
/// non-unit-stride layers on GEMM, §6.3.2) whatever opts.use_winograd says;
/// `opts` contributes the filter-cache/trace knobs.
TensorF conv2d_strided(const TensorF& x, const TensorF& w, const ConvShape& s,
                       std::int64_t stride, const ConvOptions& opts = {});

/// Backward-data / transposed convolution, NHWC, host engine.
TensorF deconv2d(const TensorF& dy, const TensorF& w, const ConvShape& s,
                 const ConvOptions& opts = {});

/// NCHW entry point (§7: "our implementations can be ported to NCHW and
/// CHWN formats"): accepts/returns NCHW tensors; the Winograd engine itself
/// is layout-agnostic at this level, so the port is a view change.
TensorF conv2d_nchw(const TensorF& x_nchw, const TensorF& w,
                    const ConvShape& s, const ConvOptions& opts = {});

/// NCHW backward-data / transposed convolution — same view-change approach.
/// `dy_nchw` is N,OC,OH,OW; the result is N,IC,IH,IW.
TensorF deconv2d_nchw(const TensorF& dy_nchw, const TensorF& w,
                      const ConvShape& s, const ConvOptions& opts = {});

/// Functional execution on the SIMT model (Γ kernels + GEMM-tail kernel).
TensorF conv2d_sim(const TensorF& x, const TensorF& w, const ConvShape& s,
                   const std::vector<Segment>& plan);
TensorF deconv2d_sim(const TensorF& dy, const TensorF& w, const ConvShape& s,
                     const std::vector<Segment>& plan);

/// Performance report for one convolution on a device profile.
struct ConvPerfReport {
  double time_s = 0.0;       ///< kernel time (excl. filter transposition)
  double gflops = 0.0;       ///< the paper's metric (kernel time only, '*')
  double transpose_s = 0.0;  ///< filter transposition cost (§5.1)
  sim::LaunchStats stats;    ///< merged counters of all segments
  std::vector<sim::PerfEstimate> segments;

  double time_with_transpose() const { return time_s + transpose_s; }
  double gflops_with_transpose(double flops) const {
    const double t = time_with_transpose();
    return t > 0.0 ? flops / t / 1e9 : 0.0;
  }
};

/// Profile the Im2col-Winograd plan (address-only buffers, sampled blocks).
ConvPerfReport profile_conv2d(const ConvShape& s,
                              const sim::DeviceProfile& dev,
                              const std::vector<Segment>& plan,
                              int max_samples = 6);

/// Profile the implicit-GEMM baseline in the given layout.
ConvPerfReport profile_gemm_conv2d(const ConvShape& s,
                                   const sim::DeviceProfile& dev,
                                   GemmLayout layout, int max_samples = 6);

}  // namespace iwg::core
