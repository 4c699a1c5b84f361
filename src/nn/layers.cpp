#include "nn/layers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "core/host_kernels.hpp"
#include "core/indirect.hpp"
#include "core/plan_cache.hpp"
#include "reference/im2col_gemm.hpp"

namespace iwg::nn {

void kaiming_uniform(TensorF& w, std::int64_t fan_in, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  w.fill_uniform(rng, -bound, bound);
}

namespace {

core::ConvOptions options_for(ConvEngine engine) {
  core::ConvOptions opts;
  opts.use_winograd = engine == ConvEngine::kWinograd;
  return opts;
}

/// dX of a stride-s convolution (scatter form; used for s == 2 layers where
/// the paper also falls back to non-Winograd algorithms).
TensorF deconv_strided(const TensorF& dy, const TensorF& w, const ConvShape& s,
                       std::int64_t stride) {
  const std::int64_t oh = dy.dim(1);
  const std::int64_t ow = dy.dim(2);
  TensorF dx({s.n, s.ih, s.iw, s.ic});
  parallel_for(s.n, [&](std::int64_t ni) {
    for (std::int64_t ho = 0; ho < oh; ++ho) {
      for (std::int64_t wo = 0; wo < ow; ++wo) {
        for (std::int64_t fh = 0; fh < s.fh; ++fh) {
          const std::int64_t hi = ho * stride + fh - s.ph;
          if (hi < 0 || hi >= s.ih) continue;
          for (std::int64_t fw = 0; fw < s.fw; ++fw) {
            const std::int64_t wi = wo * stride + fw - s.pw;
            if (wi < 0 || wi >= s.iw) continue;
            for (std::int64_t oc = 0; oc < s.oc; ++oc) {
              const float g = dy.at(ni, ho, wo, oc);
              if (g == 0.0f) continue;
              const float* wp = &w.at(oc, fh, fw, 0);
              float* xp = &dx.at(ni, hi, wi, 0);
              for (std::int64_t ic = 0; ic < s.ic; ++ic) xp[ic] += g * wp[ic];
            }
          }
        }
      }
    }
  });
  return dx;
}

/// dW of a stride-s convolution.
TensorF filter_grad_strided(const TensorF& x, const TensorF& dy,
                            const ConvShape& s, std::int64_t stride) {
  const std::int64_t oh = dy.dim(1);
  const std::int64_t ow = dy.dim(2);
  TensorF dw({s.oc, s.fh, s.fw, s.ic});
  parallel_for(s.oc, [&](std::int64_t oc) {
    for (std::int64_t ni = 0; ni < s.n; ++ni) {
      for (std::int64_t ho = 0; ho < oh; ++ho) {
        for (std::int64_t wo = 0; wo < ow; ++wo) {
          const float g = dy.at(ni, ho, wo, oc);
          if (g == 0.0f) continue;
          for (std::int64_t fh = 0; fh < s.fh; ++fh) {
            const std::int64_t hi = ho * stride + fh - s.ph;
            if (hi < 0 || hi >= s.ih) continue;
            for (std::int64_t fw = 0; fw < s.fw; ++fw) {
              const std::int64_t wi = wo * stride + fw - s.pw;
              if (wi < 0 || wi >= s.iw) continue;
              const float* xp = &x.at(ni, hi, wi, 0);
              float* wp = &dw.at(oc, fh, fw, 0);
              for (std::int64_t ic = 0; ic < s.ic; ++ic) wp[ic] += g * xp[ic];
            }
          }
        }
      }
    }
  });
  return dw;
}

// ---------------------------------------------------------------------------
// Elementwise passes: conv bias, BatchNorm2D inference, the skip sum and
// LeakyReLU, alone or fused. Every path (fused or not, train or infer) runs
// the per-element helpers below, so the results agree bit for bit.

/// LeakyReLU for 0 < slope ≤ 1. Equal to v < 0 ? v·slope : v bit for bit,
/// and it vectorizes: under GCC's default -ftrapping-math the select form's
/// conditional multiply stays a branch ("control flow in loop").
inline float leaky(float v, float slope) { return std::max(v, v * slope); }

/// BatchNorm2D inference, in the layer's own operation order.
inline float bn_infer(float v, float gamma, float mean, float inv,
                      float beta) {
  return gamma * (v - mean) * inv + beta;
}

/// Splits `rows` rows of `cols` floats into chunks of at least
/// kChunkFloats and runs body(first_row, end_row) per chunk on the global
/// pool. A tensor of one chunk or less runs inline: a fork/join costs
/// microseconds, more than a small layer's whole pass.
template <class Body>
void for_row_chunks(std::int64_t rows, std::int64_t cols, const Body& body) {
  constexpr std::int64_t kChunkFloats = 8192;
  const std::int64_t per = std::max(parallel_grain(rows),
                                    (kChunkFloats + cols - 1) / cols);
  parallel_for((rows + per - 1) / per, [&](std::int64_t k) {
    body(k * per, std::min(rows, (k + 1) * per));
  });
}

/// a[i] += b[i] over equal-sized tensors, in row chunks across the pool.
void add_into(TensorF& a, const TensorF& b) {
  IWG_CHECK(a.size() == b.size());
  float* ad = a.data();
  const float* bd = b.data();
  for_row_chunks(a.size(), 1, [=](std::int64_t i0, std::int64_t i1) {
    float* __restrict as = ad;
    const float* __restrict bs = bd;
    for (std::int64_t i = i0; i < i1; ++i) as[i] += bs[i];
  });
}

/// Rows per block of the training passes' column sums (BatchNorm2D's
/// statistics and gradients, Conv2D's bias gradient). A constant: the
/// partition, and with it every FP64 partial and the order the partials
/// combine in, depends on the tensor's shape alone, not on the pool size.
constexpr std::int64_t kRowBlock = 256;

std::int64_t row_blocks(std::int64_t rows) {
  return (rows + kRowBlock - 1) / kRowBlock;
}

/// body(first_row, end_row) per fixed row block, across the pool.
template <class Body>
void for_row_blocks(std::int64_t rows, const Body& body) {
  parallel_for(row_blocks(rows), [&](std::int64_t b) {
    body(b * kRowBlock, std::min(rows, (b + 1) * kRowBlock));
  });
}

/// Per-column FP64 sums of `width` columns: add(row, acc) adds one row's
/// terms into acc[0, width). Each fixed row block sums into its own
/// partial; the partials are then added in block order.
template <class Add>
std::vector<double> column_sums(std::int64_t rows, std::int64_t width,
                                const Add& add) {
  const std::int64_t blocks = row_blocks(rows);
  std::vector<double> part(static_cast<std::size_t>(blocks * width));
  parallel_for(blocks, [&](std::int64_t b) {
    // A task-local accumulator: adjacent blocks' partials share cache lines.
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    auto* acc = static_cast<double*>(
        arena.alloc(static_cast<std::size_t>(width) * sizeof(double)));
    std::fill(acc, acc + width, 0.0);
    const std::int64_t end = std::min(rows, (b + 1) * kRowBlock);
    for (std::int64_t i = b * kRowBlock; i < end; ++i) add(i, acc);
    std::copy(acc, acc + width, part.begin() + b * width);
  });
  std::vector<double> sum(static_cast<std::size_t>(width), 0.0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    for (std::int64_t c = 0; c < width; ++c) {
      sum[static_cast<std::size_t>(c)] +=
          part[static_cast<std::size_t>(b * width + c)];
    }
  }
  return sum;
}

/// Operands of one epilogue pass over a row-major [rows × C] tensor.
struct EpilogueArgs {
  const float* bias = nullptr;   // [C]
  const float* gamma = nullptr;  // [C] each: BatchNorm2D::Affine
  const float* mean = nullptr;
  const float* inv = nullptr;
  const float* beta = nullptr;
  const float* skip = nullptr;   // [rows × C]
  float slope = 0.0f;            // LeakyReLU
};

enum : unsigned { kBias = 1, kBn = 2, kSkip = 4, kAct = 8 };

/// y ← act(bn(y + bias) + skip) in place on rows [r0, r1), each step
/// present when kOps has its bit. Pointers are __restrict locals so GCC
/// vectorizes the channel loop.
template <unsigned kOps>
void epilogue_rows(const EpilogueArgs& a, float* __restrict y,
                   std::int64_t r0, std::int64_t r1, std::int64_t c) {
  const float* __restrict bias = a.bias;
  const float* __restrict gamma = a.gamma;
  const float* __restrict mean = a.mean;
  const float* __restrict inv = a.inv;
  const float* __restrict beta = a.beta;
  const float* __restrict skip = a.skip;
  const float slope = a.slope;
  for (std::int64_t i = r0 * c; i < r1 * c; i += c) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float v = y[i + ch];
      if constexpr ((kOps & kBias) != 0) v += bias[ch];
      if constexpr ((kOps & kBn) != 0) {
        v = bn_infer(v, gamma[ch], mean[ch], inv[ch], beta[ch]);
      }
      if constexpr ((kOps & kSkip) != 0) v += skip[i + ch];
      if constexpr ((kOps & kAct) != 0) v = leaky(v, slope);
      y[i + ch] = v;
    }
  }
}

using EpilogueFn = void (*)(const EpilogueArgs&, float*, std::int64_t,
                            std::int64_t, std::int64_t);

template <std::size_t... kOps>
constexpr std::array<EpilogueFn, sizeof...(kOps)> epilogue_table(
    std::index_sequence<kOps...>) {
  return {&epilogue_rows<static_cast<unsigned>(kOps)>...};
}

/// y ← act(bn(y + bias) + skip) in place, per ConvEpilogue; `bias` may be
/// null. Rows are y's last axis (channels).
void run_epilogue(TensorF& y, const float* bias, const ConvEpilogue& ep) {
  static constexpr auto kTable = epilogue_table(std::make_index_sequence<16>{});
  const std::int64_t c = y.dim(y.rank() - 1);
  EpilogueArgs a;
  unsigned ops = 0;
  if (bias != nullptr) {
    a.bias = bias;
    ops |= kBias;
  }
  BatchNorm2D::Affine bn;
  if (ep.bn != nullptr) {
    IWG_CHECK(y.rank() == 4);
    bn = ep.bn->inference_affine();
    IWG_CHECK(static_cast<std::int64_t>(bn.inv.size()) == c);
    a.gamma = bn.gamma;
    a.mean = bn.mean;
    a.inv = bn.inv.data();
    a.beta = bn.beta;
    ops |= kBn;
  }
  if (ep.skip != nullptr) {
    IWG_CHECK(ep.skip->same_shape(y));
    a.skip = ep.skip->data();
    ops |= kSkip;
  }
  if (ep.act != nullptr) {
    a.slope = ep.act->slope();
    ops |= kAct;
  }
  if (ops == 0) return;
  const EpilogueFn fn = kTable[ops];
  float* data = y.data();
  for_row_chunks(y.size() / c, c, [&](std::int64_t r0, std::int64_t r1) {
    fn(a, data, r0, r1, c);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2D

Conv2D::Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t fsize,
               std::int64_t stride, std::int64_t pad, ConvEngine engine,
               Rng& rng, std::string label)
    : label_(std::move(label)),
      fsize_(fsize),
      stride_(stride),
      pad_(pad),
      engine_(engine) {
  IWG_CHECK(stride == 1 || stride == 2);
  w_.name = label_ + ".w";
  w_.value.reset({out_ch, fsize, fsize, in_ch});
  w_.grad.reset({out_ch, fsize, fsize, in_ch});
  kaiming_uniform(w_.value, in_ch * fsize * fsize, rng);
  b_.name = label_ + ".b";
  b_.value.reset({out_ch});
  b_.grad.reset({out_ch});
}

Conv2D::~Conv2D() {
  core::FilterTransformCache::global().invalidate(w_.value.data());
}

ConvShape Conv2D::shape_for(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  return ConvShape{.n = x.dim(0), .ih = x.dim(1), .iw = x.dim(2),
                   .ic = x.dim(3), .oc = w_.value.dim(0), .fh = fsize_,
                   .fw = fsize_, .ph = pad_, .pw = pad_};
}

TensorF Conv2D::convolve(const TensorF& x, const ConvShape& s) const {
  // Param storage is stable and `version` is bumped on every update, so
  // the forward, the backward, and every later call until the next
  // optimizer step share one filter transform per Γ geometry (and one
  // GEMM panel).
  core::ConvOptions opts = options_for(engine_);
  opts.filter_cache = &core::FilterTransformCache::global();
  opts.weights_version = w_.version;
  if (stride_ != 1) return core::conv2d_strided(x, w_.value, s, stride_, opts);
  if (tuned_ && s == tuned_shape_) {
    return core::conv2d(x, w_.value, s, tuned_->executable_plan(s), opts);
  }
  return core::conv2d(x, w_.value, s, opts);
}

TensorF Conv2D::forward(TensorF x, bool train) {
  shape_ = shape_for(x);
  TensorF y = convolve(x, shape_);
  run_epilogue(y, b_.value.data(), {});
  x_cache_ = train ? std::move(x) : TensorF();
  return y;
}

TensorF Conv2D::infer(const TensorF& x, const ConvEpilogue& ep) const {
  TensorF y = convolve(x, shape_for(x));
  run_epilogue(y, b_.value.data(), ep);
  return y;
}

std::vector<TensorF> Conv2D::infer_ragged(const std::vector<TensorF>& xs,
                                          const ConvEpilogue& ep) const {
  IWG_CHECK_MSG(ep.skip == nullptr, "infer_ragged takes no skip tensor");
  if (xs.empty()) return {};
  const std::int64_t oc = w_.value.dim(0);
  // Dispatch-wide geometry (channels/filter/padding); spatial extents are
  // per image. plan_for never sees N, and the indirect entry reuses the
  // dense task bodies, so each image's output matches batch-1 infer() bit
  // for bit — strided layers included.
  const ConvShape geom = shape_for(xs.front());
  std::vector<TensorF> ys(xs.size());
  std::vector<core::ImageView> views(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ConvShape si = shape_for(xs[i]);
    IWG_CHECK_MSG(si.n == 1, "infer_ragged expects one image per tensor");
    // The dispatch writes every output element (its plans cover OW).
    ys[i] = TensorF::uninitialized({1, core::strided_extent(si.oh(), stride_),
                                    core::strided_extent(si.ow(), stride_),
                                    oc});
    views[i] = core::ImageView{xs[i].data(), ys[i].data(), si.ih, si.iw};
  }
  core::IndirectOptions opts;
  opts.use_winograd = engine_ == ConvEngine::kWinograd;
  opts.fc.cache = &core::FilterTransformCache::global();
  opts.fc.version = w_.version;
  core::conv2d_gamma_host_indirect(views, w_.value, geom, opts, stride_);
  for (TensorF& y : ys) run_epilogue(y, b_.value.data(), ep);
  return ys;
}

Dims4 Conv2D::pretune(const Dims4& in, AutotuneContext& ctx) {
  ConvShape s;
  s.n = in.n;
  s.ih = in.h;
  s.iw = in.w;
  s.ic = in.c;
  s.oc = w_.value.dim(0);
  s.fh = fsize_;
  s.fw = fsize_;
  s.ph = pad_;
  s.pw = pad_;
  Dims4 out;
  out.n = in.n;
  out.h = core::strided_extent(s.oh(), stride_);
  out.w = core::strided_extent(s.ow(), stride_);
  out.c = s.oc;
  // Only unit-stride Winograd layers go through the tuned path; strided
  // layers always run the GEMM fallback, and the kGemm engine is the
  // baseline configuration the training experiments compare against.
  if (stride_ == 1 && engine_ == ConvEngine::kWinograd && ctx.dev != nullptr) {
    core::PlanCache& cache =
        ctx.cache != nullptr ? *ctx.cache : core::PlanCache::global();
    tuned_ = cache.get_or_tune(s, *ctx.dev, ctx.samples,
                               core::TuningBudget{ctx.max_candidates});
    tuned_shape_ = s;
    ++ctx.resolved;
  }
  return out;
}

TensorF Conv2D::backward(TensorF dy) {
  IWG_CHECK(!x_cache_.empty());
  // db: FP64 column sums over the fixed row blocks (DESIGN §8).
  const std::int64_t oc = dy.dim(3);
  const float* g = dy.data();
  const std::vector<double> db =
      column_sums(dy.size() / oc, oc, [&](std::int64_t i, double* acc) {
        const float* row = g + i * oc;
        for (std::int64_t c = 0; c < oc; ++c) acc[c] += row[c];
      });
  for (std::int64_t c = 0; c < oc; ++c) {
    b_.grad[c] += static_cast<float>(db[static_cast<std::size_t>(c)]);
  }
  // dw and dx
  if (stride_ == 1) {
    // The Winograd engine also accelerates the weight-gradient correlation
    // (library extension — see conv2d_filter_grad_winograd).
    const bool wino_dw =
        engine_ == ConvEngine::kWinograd && fsize_ >= 2 && fsize_ <= 9;
    add_into(w_.grad,
             wino_dw ? core::conv2d_filter_grad_winograd(x_cache_, dy, shape_)
                     : ref::conv2d_filter_grad_gemm(x_cache_, dy, shape_));
    if (engine_ == ConvEngine::kWinograd) {
      core::ConvOptions opts = options_for(engine_);
      opts.filter_cache = &core::FilterTransformCache::global();
      opts.weights_version = w_.version;
      return core::deconv2d(dy, w_.value, shape_, opts);
    }
    return ref::deconv2d_implicit_gemm(dy, w_.value, shape_);
  }
  add_into(w_.grad, filter_grad_strided(x_cache_, dy, shape_, stride_));
  return deconv_strided(dy, w_.value, shape_, stride_);
}

// ---------------------------------------------------------------------------
// BatchNorm2D

BatchNorm2D::BatchNorm2D(std::int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_.name = "bn.gamma";
  gamma_.value.reset({channels});
  gamma_.value.fill(1.0f);
  gamma_.grad.reset({channels});
  beta_.name = "bn.beta";
  beta_.value.reset({channels});
  beta_.grad.reset({channels});
  running_mean_.reset({channels});
  running_var_.reset({channels});
  running_var_.fill(1.0f);
  inv_std_.resize(static_cast<std::size_t>(channels));
}

// Training runs row-major passes over fixed row blocks split across the
// pool (DESIGN §8): per-channel FP64 sums, then FP64 squared deviations
// from the mean, then one normalize pass that writes x̂ and, over x in
// place, y.
TensorF BatchNorm2D::forward(TensorF x, bool train) {
  IWG_CHECK(x.rank() == 4 && x.dim(3) == channels_);
  if (!train) {
    run_epilogue(x, nullptr, {.bn = this});
    return x;
  }
  const std::int64_t c = channels_;
  const std::int64_t m = x.size() / c;
  // The normalize pass writes every x̂ element: no zero fill, and the
  // previous step's buffer is reused when the shape repeats.
  if (!xhat_.same_shape(x)) {
    xhat_ = TensorF::uninitialized({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
  }
  count_ = m;
  float* xd = x.data();
  std::vector<double> mean =
      column_sums(m, c, [&](std::int64_t i, double* acc) {
        const float* row = xd + i * c;
        for (std::int64_t k = 0; k < c; ++k) acc[k] += row[k];
      });
  for (double& v : mean) v /= static_cast<double>(m);
  std::vector<double> var =
      column_sums(m, c, [&](std::int64_t i, double* acc) {
        const float* row = xd + i * c;
        for (std::int64_t k = 0; k < c; ++k) {
          const double d = row[k] - mean[static_cast<std::size_t>(k)];
          acc[k] += d * d;
        }
      });
  std::vector<float> mean_f(static_cast<std::size_t>(c));
  for (std::int64_t k = 0; k < c; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    var[kk] /= static_cast<double>(m);
    mean_f[kk] = static_cast<float>(mean[kk]);
    inv_std_[kk] = 1.0f / std::sqrt(static_cast<float>(var[kk]) + eps_);
    running_mean_[k] =
        momentum_ * running_mean_[k] + (1.0f - momentum_) * mean_f[kk];
    running_var_[k] = momentum_ * running_var_[k] +
                      (1.0f - momentum_) * static_cast<float>(var[kk]);
  }
  const float* mu = mean_f.data();
  const float* inv = inv_std_.data();
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();
  float* xh = xhat_.data();
  for_row_blocks(m, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0 * c; i < r1 * c; i += c) {
      for (std::int64_t k = 0; k < c; ++k) {
        const float v = (xd[i + k] - mu[k]) * inv[k];
        xh[i + k] = v;
        xd[i + k] = gamma[k] * v + beta[k];
      }
    }
  });
  return x;
}

TensorF BatchNorm2D::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4 && x.dim(3) == channels_);
  TensorF y = x;
  run_epilogue(y, nullptr, {.bn = this});
  return y;
}

BatchNorm2D::Affine BatchNorm2D::inference_affine() const {
  Affine a;
  a.gamma = gamma_.value.data();
  a.mean = running_mean_.data();
  a.beta = beta_.value.data();
  a.inv.resize(static_cast<std::size_t>(channels_));
  for (std::int64_t c = 0; c < channels_; ++c) {
    a.inv[static_cast<std::size_t>(c)] =
        1.0f / std::sqrt(running_var_[c] + eps_);
  }
  return a;
}

TensorF BatchNorm2D::backward(TensorF dy) {
  IWG_CHECK(!xhat_.empty() && dy.same_shape(xhat_));
  const std::int64_t c = channels_;
  const std::int64_t m = count_;
  float* g = dy.data();
  const float* xh = xhat_.data();
  // Columns [0, C) sum dy, columns [C, 2C) sum dy·x̂.
  const std::vector<double> sums =
      column_sums(m, 2 * c, [&](std::int64_t i, double* acc) {
        const float* gr = g + i * c;
        const float* xr = xh + i * c;
        for (std::int64_t k = 0; k < c; ++k) {
          acc[k] += gr[k];
          acc[c + k] += gr[k] * xr[k];
        }
      });
  std::vector<float> scale(static_cast<std::size_t>(c));
  std::vector<float> k1(static_cast<std::size_t>(c));
  std::vector<float> k2(static_cast<std::size_t>(c));
  for (std::int64_t k = 0; k < c; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const double sum_dy = sums[kk];
    const double sum_dy_xhat = sums[kk + static_cast<std::size_t>(c)];
    gamma_.grad[k] += static_cast<float>(sum_dy_xhat);
    beta_.grad[k] += static_cast<float>(sum_dy);
    scale[kk] = gamma_.value[k] * inv_std_[kk];
    k1[kk] = static_cast<float>(sum_dy / static_cast<double>(m));
    k2[kk] = static_cast<float>(sum_dy_xhat / static_cast<double>(m));
  }
  // dx over dy in place.
  for_row_blocks(m, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0 * c; i < r1 * c; i += c) {
      for (std::int64_t k = 0; k < c; ++k) {
        g[i + k] = scale[static_cast<std::size_t>(k)] *
                   (g[i + k] - k1[static_cast<std::size_t>(k)] -
                    xh[i + k] * k2[static_cast<std::size_t>(k)]);
      }
    }
  });
  return dy;
}

// ---------------------------------------------------------------------------
// LeakyReLU

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  // max(v, v·slope) is the select v < 0 ? v·slope : v only in this range.
  IWG_CHECK_MSG(slope > 0.0f && slope <= 1.0f,
                "LeakyReLU slope must lie in (0, 1]");
}

// Training forward and backward work in place on the tensor they own.
TensorF LeakyReLU::forward(TensorF x, bool train) {
  if (!train) {
    run_epilogue(x, nullptr, {.act = this});
    return x;
  }
  mask_.resize(static_cast<std::size_t>(x.size()));
  float* xd = x.data();
  std::uint8_t* md = mask_.data();
  const float slope = slope_;
  for_row_chunks(x.size(), 1, [=](std::int64_t i0, std::int64_t i1) {
    float* __restrict xs = xd;
    std::uint8_t* __restrict ms = md;
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = xs[i];
      ms[i] = !(v < 0.0f);
      xs[i] = leaky(v, slope);
    }
  });
  return x;
}

TensorF LeakyReLU::infer(const TensorF& x) const {
  TensorF y = x;
  run_epilogue(y, nullptr, {.act = this});
  return y;
}

TensorF LeakyReLU::backward(TensorF dy) {
  IWG_CHECK(static_cast<std::int64_t>(mask_.size()) == dy.size());
  float* dd = dy.data();
  const std::uint8_t* md = mask_.data();
  const float slope = slope_;
  for_row_chunks(dy.size(), 1, [=](std::int64_t i0, std::int64_t i1) {
    float* __restrict d = dd;
    const std::uint8_t* __restrict ms = md;
    for (std::int64_t i = i0; i < i1; ++i) {
      // A bitwise select: the ?: form compiles to a branch (see leaky()).
      const std::uint32_t keep = 0u - ms[i];
      const auto g = std::bit_cast<std::uint32_t>(d[i]);
      const auto scaled = std::bit_cast<std::uint32_t>(d[i] * slope);
      d[i] = std::bit_cast<float>((g & keep) | (scaled & ~keep));
    }
  });
  return dy;
}

// ---------------------------------------------------------------------------
// MaxPool2x2

namespace {

/// Output rows [r0, r1) of a 2×2 stride-2 max pool over NHWC `x`, a row
/// being one (image, output row): output row r reads input rows 2r and
/// 2r + 1 of the N·IH rows. Per element the window is read in (0,0), (0,1),
/// (1,0), (1,1) order and a candidate replaces the best only if it is `>`:
/// the first maximum wins a tie and a NaN never replaces the current best.
/// With kArgmax the winner's index 0–3 goes to `arg`; it is tracked as a
/// float so every select has one type and compiles branch-free (uint8
/// selects on float compares become branches, which random data
/// mispredicts about once per window).
template <bool kArgmax>
void maxpool_rows(const float* x, float* y, std::uint8_t* arg, std::int64_t ow,
                  std::int64_t c, std::int64_t r0, std::int64_t r1) {
  const std::int64_t in_row = 2 * ow * c;
  const std::int64_t out_row = ow * c;
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* top = x + 2 * r * in_row;
    const float* bot = top + in_row;
    for (std::int64_t w = 0; w < ow; ++w) {
      const float* t = top + 2 * w * c;
      const float* b = bot + 2 * w * c;
      float* yo = y + r * out_row + w * c;
      std::uint8_t* ao = kArgmax ? arg + r * out_row + w * c : nullptr;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float cand[3] = {t[c + ch], b[ch], b[c + ch]};
        float best = t[ch];
        float idx = 0.0f;
        for (int k = 0; k < 3; ++k) {
          const bool take = cand[k] > best;
          best = take ? cand[k] : best;
          idx = take ? static_cast<float>(k + 1) : idx;
        }
        yo[ch] = best;
        if constexpr (kArgmax) ao[ch] = static_cast<std::uint8_t>(idx);
      }
    }
  }
}

/// dx for the windows of output rows [r0, r1): all four elements of each
/// window are written, the winner 0.0f + dy (bitwise the += into a zeroed
/// dx it replaces) and the others +0, so dx needs no zero fill.
void maxpool_backward_rows(const float* dy, const std::uint8_t* arg, float* dx,
                           std::int64_t ow, std::int64_t c, std::int64_t r0,
                           std::int64_t r1) {
  const std::int64_t in_row = 2 * ow * c;
  const std::int64_t out_row = ow * c;
  for (std::int64_t r = r0; r < r1; ++r) {
    for (std::int64_t w = 0; w < ow; ++w) {
      const float* g = dy + r * out_row + w * c;
      const std::uint8_t* a = arg + r * out_row + w * c;
      float* t = dx + 2 * r * in_row + 2 * w * c;
      float* b = t + in_row;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float v = 0.0f + g[ch];
        const std::uint8_t k = a[ch];
        t[ch] = k == 0 ? v : 0.0f;
        t[c + ch] = k == 1 ? v : 0.0f;
        b[ch] = k == 2 ? v : 0.0f;
        b[c + ch] = k == 3 ? v : 0.0f;
      }
    }
  }
}

/// The pool of `x`, split over (image, output row) by the for_row_chunks
/// rule; writes each winner's index to `arg` unless it is null.
TensorF maxpool(const TensorF& x, std::uint8_t* arg) {
  IWG_CHECK(x.rank() == 4 && x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0);
  const std::int64_t oh = x.dim(1) / 2;
  const std::int64_t ow = x.dim(2) / 2;
  const std::int64_t c = x.dim(3);
  TensorF y = TensorF::uninitialized({x.dim(0), oh, ow, c});
  const float* xd = x.data();
  float* yd = y.data();
  for_row_chunks(x.dim(0) * oh, ow * c, [&](std::int64_t r0, std::int64_t r1) {
    if (arg != nullptr) {
      maxpool_rows<true>(xd, yd, arg, ow, c, r0, r1);
    } else {
      maxpool_rows<false>(xd, yd, nullptr, ow, c, r0, r1);
    }
  });
  return y;
}

}  // namespace

TensorF MaxPool2x2::forward(TensorF x, bool train) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  ih_ = x.dim(1);
  iw_ = x.dim(2);
  c_ = x.dim(3);
  if (!train) return maxpool(x, nullptr);
  argmax_.resize(static_cast<std::size_t>(x.size() / 4));
  return maxpool(x, argmax_.data());
}

TensorF MaxPool2x2::infer(const TensorF& x) const { return maxpool(x, nullptr); }

TensorF MaxPool2x2::backward(TensorF dy) {
  const std::int64_t oh = ih_ / 2;
  const std::int64_t ow = iw_ / 2;
  IWG_CHECK(dy.rank() == 4 && dy.dim(0) == n_ && dy.dim(1) == oh &&
            dy.dim(2) == ow && dy.dim(3) == c_ &&
            static_cast<std::int64_t>(argmax_.size()) == dy.size());
  TensorF dx = TensorF::uninitialized({n_, ih_, iw_, c_});
  const float* g = dy.data();
  const std::uint8_t* arg = argmax_.data();
  float* d = dx.data();
  for_row_chunks(n_ * oh, ow * c_, [&](std::int64_t r0, std::int64_t r1) {
    maxpool_backward_rows(g, arg, d, ow, c_, r0, r1);
  });
  return dx;
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

TensorF GlobalAvgPool::forward(TensorF x, bool /*train*/) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  h_ = x.dim(1);
  w_ = x.dim(2);
  c_ = x.dim(3);
  TensorF y({n_, c_});
  const float inv = 1.0f / static_cast<float>(h_ * w_);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t hh = 0; hh < h_; ++hh) {
      for (std::int64_t ww = 0; ww < w_; ++ww) {
        for (std::int64_t c = 0; c < c_; ++c) {
          y.at(ni, c, 0, 0) += x.at(ni, hh, ww, c) * inv;
        }
      }
    }
  }
  return y;
}

TensorF GlobalAvgPool::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(1);
  const std::int64_t w = x.dim(2);
  const std::int64_t c = x.dim(3);
  TensorF y({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t hh = 0; hh < h; ++hh) {
      for (std::int64_t ww = 0; ww < w; ++ww) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          y.at(ni, ch, 0, 0) += x.at(ni, hh, ww, ch) * inv;
        }
      }
    }
  }
  return y;
}

TensorF GlobalAvgPool::backward(TensorF dy) {
  TensorF dx({n_, h_, w_, c_});
  const float inv = 1.0f / static_cast<float>(h_ * w_);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t hh = 0; hh < h_; ++hh) {
      for (std::int64_t ww = 0; ww < w_; ++ww) {
        for (std::int64_t c = 0; c < c_; ++c) {
          dx.at(ni, hh, ww, c) = dy.at(ni, c, 0, 0) * inv;
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// Flatten

TensorF Flatten::forward(TensorF x, bool /*train*/) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  h_ = x.dim(1);
  w_ = x.dim(2);
  c_ = x.dim(3);
  x.reshape({n_, h_ * w_ * c_});
  return x;
}

TensorF Flatten::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  TensorF y = x;
  y.reshape({x.dim(0), x.dim(1) * x.dim(2) * x.dim(3)});
  return y;
}

TensorF Flatten::backward(TensorF dy) {
  dy.reshape({n_, h_, w_, c_});
  return dy;
}

// ---------------------------------------------------------------------------
// Linear

Linear::Linear(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
               std::string label)
    : label_(std::move(label)) {
  w_.name = label_ + ".w";
  w_.value.reset({in_dim, out_dim});
  w_.grad.reset({in_dim, out_dim});
  kaiming_uniform(w_.value, in_dim, rng);
  b_.name = label_ + ".b";
  b_.value.reset({out_dim});
  b_.grad.reset({out_dim});
}

TensorF Linear::forward(TensorF x, bool train) {
  TensorF y = infer(x);
  x_cache_ = train ? std::move(x) : TensorF();
  return y;
}

TensorF Linear::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0));
  const std::int64_t n = x.dim(0);
  const std::int64_t d = x.dim(1);
  const std::int64_t m = w_.value.dim(1);
  TensorF y = TensorF::uninitialized({n, m});
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(b_.value.data(), m, y.data() + i * m);
  }
  // W is (D, M), the kernel's g[k·nj + j]: one blocked rank-1 accumulate
  // per 8 batch rows, inline — a fork costs more than the whole layer.
  const core::HostKernels& hk = core::host_kernels();
  constexpr std::int64_t kRows = 8;
  const float* xs[kRows];
  float* ys[kRows];
  for (std::int64_t i0 = 0; i0 < n; i0 += kRows) {
    const std::int64_t rows = std::min(kRows, n - i0);
    for (std::int64_t r = 0; r < rows; ++r) {
      xs[r] = x.data() + (i0 + r) * d;
      ys[r] = y.data() + (i0 + r) * m;
    }
    hk.axpy_rank1_multi(xs, w_.value.data(), ys, static_cast<int>(rows), d,
                        m);
  }
  return y;
}

// Backward runs on the forward's kernel, across the pool in chunks of
// features (W's rows), 8 rows per axpy_rank1_multi call: dW's rows take
// Σ_i xᵀ[k][i]·dy[i][:] (the chunk's columns of x staged transposed in its
// arena), and dX is computed transposed, dXᵀ[k][:] = Σ_j W[k][j]·dyᵀ[j][:],
// W's rows read in place, then written back as dx's columns.
TensorF Linear::backward(TensorF dy) {
  IWG_CHECK(!x_cache_.empty());
  const std::int64_t n = dy.dim(0);
  const std::int64_t d = w_.value.dim(0);
  const std::int64_t m = w_.value.dim(1);
  IWG_CHECK(dy.rank() == 2 && dy.dim(1) == m && x_cache_.dim(0) == n);
  const float* g = dy.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) b_.grad[j] += g[i * m + j];
  }
  TensorF dyt = TensorF::uninitialized({m, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) dyt[j * n + i] = g[i * m + j];
  }
  TensorF dx = TensorF::uninitialized({n, d});
  const core::HostKernels& hk = core::host_kernels();
  const float* x = x_cache_.data();
  const float* w = w_.value.data();
  float* wg = w_.grad.data();
  float* dxd = dx.data();
  constexpr std::int64_t kRows = 8;
  for_row_chunks(d, n + m, [&](std::int64_t k0, std::int64_t k1) {
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    float* xt = arena.alloc_floats(static_cast<std::size_t>(kRows * n));
    float* dxt = arena.alloc_floats(static_cast<std::size_t>(kRows * n));
    const float* ds[kRows];
    float* ms[kRows];
    for (std::int64_t kb = k0; kb < k1; kb += kRows) {
      const std::int64_t rows = std::min(kRows, k1 - kb);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t i = 0; i < n; ++i) xt[r * n + i] = x[i * d + kb + r];
        ds[r] = xt + r * n;
        ms[r] = wg + (kb + r) * m;
      }
      hk.axpy_rank1_multi(ds, g, ms, static_cast<int>(rows), n, m);
      std::fill(dxt, dxt + rows * n, 0.0f);
      for (std::int64_t r = 0; r < rows; ++r) {
        ds[r] = w + (kb + r) * m;
        ms[r] = dxt + r * n;
      }
      hk.axpy_rank1_multi(ds, dyt.data(), ms, static_cast<int>(rows), m, n);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t i = 0; i < n; ++i) dxd[i * d + kb + r] = dxt[r * n + i];
      }
    }
  });
  return dx;
}

}  // namespace iwg::nn
