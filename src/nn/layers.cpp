#include "nn/layers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "core/indirect.hpp"
#include "core/plan_cache.hpp"
#include "reference/direct_conv.hpp"
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
  if (stride_ != 1) {
    return ref::conv2d_implicit_gemm_strided(x, w_.value, s, stride_, stride_);
  }
  // Param storage is stable and `version` is bumped on every update, so
  // the forward, the backward, and every later call until the next
  // optimizer step share one filter transform per Γ geometry.
  core::ConvOptions opts = options_for(engine_);
  opts.filter_cache = &core::FilterTransformCache::global();
  opts.weights_version = w_.version;
  if (tuned_ && s == tuned_shape_) {
    return core::conv2d(x, w_.value, s, tuned_->executable_plan(s), opts);
  }
  return core::conv2d(x, w_.value, s, opts);
}

TensorF Conv2D::forward(const TensorF& x, bool train) {
  shape_ = shape_for(x);
  TensorF y = convolve(x, shape_);
  run_epilogue(y, b_.value.data(), {});
  if (train) {
    x_cache_ = x;
  } else {
    x_cache_ = TensorF();
  }
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
  // Strided layers have no indirect path — keep the per-image baseline.
  if (stride_ != 1 || xs.empty()) {
    std::vector<TensorF> ys;
    ys.reserve(xs.size());
    for (const TensorF& x : xs) ys.push_back(infer(x, ep));
    return ys;
  }
  const std::int64_t oc = w_.value.dim(0);
  // Dispatch-wide geometry (channels/filter/padding); spatial extents are
  // per image. plan_for never sees N, and the indirect entry reuses the
  // dense task bodies, so each image's output matches batch-1 infer() bit
  // for bit.
  const ConvShape geom = shape_for(xs.front());
  std::vector<TensorF> ys(xs.size());
  std::vector<core::ImageView> views(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ConvShape si = shape_for(xs[i]);
    IWG_CHECK_MSG(si.n == 1, "infer_ragged expects one image per tensor");
    ys[i].reset({1, si.oh(), si.ow(), oc});
    views[i] = core::ImageView{xs[i].data(), ys[i].data(), si.ih, si.iw};
  }
  core::IndirectOptions opts;
  opts.use_winograd = engine_ == ConvEngine::kWinograd;
  opts.fc.cache = &core::FilterTransformCache::global();
  opts.fc.version = w_.version;
  core::conv2d_gamma_host_indirect(views, w_.value, geom, opts);
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
  out.h = (in.h + 2 * pad_ - fsize_) / stride_ + 1;
  out.w = (in.w + 2 * pad_ - fsize_) / stride_ + 1;
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

TensorF Conv2D::backward(const TensorF& dy) {
  IWG_CHECK(!x_cache_.empty());
  // db
  const std::int64_t oc = dy.dim(3);
  const std::int64_t pixels = dy.size() / oc;
  for (std::int64_t m = 0; m < pixels; ++m) {
    const float* row = dy.data() + m * oc;
    for (std::int64_t c = 0; c < oc; ++c) b_.grad[c] += row[c];
  }
  // dw and dx
  if (stride_ == 1) {
    // The Winograd engine also accelerates the weight-gradient correlation
    // (library extension — see conv2d_filter_grad_winograd).
    const bool wino_dw =
        engine_ == ConvEngine::kWinograd && fsize_ >= 2 && fsize_ <= 9;
    const TensorF dw =
        wino_dw ? core::conv2d_filter_grad_winograd(x_cache_, dy, shape_)
                : ref::conv2d_filter_grad_gemm(x_cache_, dy, shape_);
    for (std::int64_t i = 0; i < dw.size(); ++i) w_.grad[i] += dw[i];
    if (engine_ == ConvEngine::kWinograd) {
      core::ConvOptions opts = options_for(engine_);
      opts.filter_cache = &core::FilterTransformCache::global();
      opts.weights_version = w_.version;
      return core::deconv2d(dy, w_.value, shape_, opts);
    }
    return ref::deconv2d_implicit_gemm(dy, w_.value, shape_);
  }
  const TensorF dw = filter_grad_strided(x_cache_, dy, shape_, stride_);
  for (std::int64_t i = 0; i < dw.size(); ++i) w_.grad[i] += dw[i];
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

TensorF BatchNorm2D::forward(const TensorF& x, bool train) {
  if (!train) return infer(x);
  IWG_CHECK(x.rank() == 4 && x.dim(3) == channels_);
  const std::int64_t m = x.size() / channels_;
  TensorF y(std::vector<std::int64_t>{x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
  xhat_.reset({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
  count_ = m;
  for (std::int64_t c = 0; c < channels_; ++c) {
    double mean = 0.0;
    for (std::int64_t i = 0; i < m; ++i) mean += x[i * channels_ + c];
    mean /= static_cast<double>(m);
    double var = 0.0;
    for (std::int64_t i = 0; i < m; ++i) {
      const double d = x[i * channels_ + c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(m);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[static_cast<std::size_t>(c)] = inv;
    running_mean_[c] = momentum_ * running_mean_[c] +
                       (1.0f - momentum_) * static_cast<float>(mean);
    running_var_[c] = momentum_ * running_var_[c] +
                      (1.0f - momentum_) * static_cast<float>(var);
    for (std::int64_t i = 0; i < m; ++i) {
      const float xh =
          (x[i * channels_ + c] - static_cast<float>(mean)) * inv;
      xhat_[i * channels_ + c] = xh;
      y[i * channels_ + c] = gamma_.value[c] * xh + beta_.value[c];
    }
  }
  return y;
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

TensorF BatchNorm2D::backward(const TensorF& dy) {
  IWG_CHECK(!xhat_.empty());
  const std::int64_t m = count_;
  TensorF dx(std::vector<std::int64_t>{dy.dim(0), dy.dim(1), dy.dim(2),
                                       dy.dim(3)});
  for (std::int64_t c = 0; c < channels_; ++c) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (std::int64_t i = 0; i < m; ++i) {
      const float g = dy[i * channels_ + c];
      sum_dy += g;
      sum_dy_xhat += g * xhat_[i * channels_ + c];
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);
    const float inv = inv_std_[static_cast<std::size_t>(c)];
    const float k1 = static_cast<float>(sum_dy / static_cast<double>(m));
    const float k2 = static_cast<float>(sum_dy_xhat / static_cast<double>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      const float g = dy[i * channels_ + c];
      dx[i * channels_ + c] = gamma_.value[c] * inv *
                              (g - k1 - xhat_[i * channels_ + c] * k2);
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// LeakyReLU

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  // max(v, v·slope) is the select v < 0 ? v·slope : v only in this range.
  IWG_CHECK_MSG(slope > 0.0f && slope <= 1.0f,
                "LeakyReLU slope must lie in (0, 1]");
}

TensorF LeakyReLU::forward(const TensorF& x, bool train) {
  if (!train) return infer(x);
  TensorF y = x;
  mask_.resize(static_cast<std::size_t>(x.size()));
  const float* xd = x.data();
  float* yd = y.data();
  std::uint8_t* md = mask_.data();
  const float slope = slope_;
  for_row_chunks(x.size(), 1, [=](std::int64_t i0, std::int64_t i1) {
    const float* __restrict xs = xd;
    float* __restrict ys = yd;
    std::uint8_t* __restrict ms = md;
    for (std::int64_t i = i0; i < i1; ++i) {
      ys[i] = leaky(xs[i], slope);
      ms[i] = !(xs[i] < 0.0f);
    }
  });
  return y;
}

TensorF LeakyReLU::infer(const TensorF& x) const {
  TensorF y = x;
  run_epilogue(y, nullptr, {.act = this});
  return y;
}

TensorF LeakyReLU::backward(const TensorF& dy) {
  IWG_CHECK(static_cast<std::int64_t>(mask_.size()) == dy.size());
  TensorF dx = dy;
  float* dd = dx.data();
  const std::uint8_t* md = mask_.data();
  const float slope = slope_;
  for_row_chunks(dx.size(), 1, [=](std::int64_t i0, std::int64_t i1) {
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
  return dx;
}

// ---------------------------------------------------------------------------
// MaxPool2x2

TensorF MaxPool2x2::forward(const TensorF& x, bool train) {
  IWG_CHECK(x.rank() == 4 && x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0);
  n_ = x.dim(0);
  ih_ = x.dim(1);
  iw_ = x.dim(2);
  c_ = x.dim(3);
  const std::int64_t oh = ih_ / 2;
  const std::int64_t ow = iw_ / 2;
  TensorF y({n_, oh, ow, c_});
  if (train) argmax_.assign(static_cast<std::size_t>(y.size()), 0);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t c = 0; c < c_; ++c) {
          float best = x.at(ni, 2 * h, 2 * w, c);
          std::uint8_t idx = 0;
          const float cands[3] = {x.at(ni, 2 * h, 2 * w + 1, c),
                                  x.at(ni, 2 * h + 1, 2 * w, c),
                                  x.at(ni, 2 * h + 1, 2 * w + 1, c)};
          for (int k = 0; k < 3; ++k) {
            if (cands[k] > best) {
              best = cands[k];
              idx = static_cast<std::uint8_t>(k + 1);
            }
          }
          y.at(ni, h, w, c) = best;
          if (train)
            argmax_[static_cast<std::size_t>(y.offset(ni, h, w, c))] = idx;
        }
      }
    }
  }
  return y;
}

TensorF MaxPool2x2::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4 && x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = x.dim(1) / 2;
  const std::int64_t ow = x.dim(2) / 2;
  const std::int64_t c = x.dim(3);
  TensorF y({n, oh, ow, c});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          float best = x.at(ni, 2 * h, 2 * w, ch);
          best = std::max(best, x.at(ni, 2 * h, 2 * w + 1, ch));
          best = std::max(best, x.at(ni, 2 * h + 1, 2 * w, ch));
          best = std::max(best, x.at(ni, 2 * h + 1, 2 * w + 1, ch));
          y.at(ni, h, w, ch) = best;
        }
      }
    }
  }
  return y;
}

TensorF MaxPool2x2::backward(const TensorF& dy) {
  TensorF dx({n_, ih_, iw_, c_});
  const std::int64_t oh = ih_ / 2;
  const std::int64_t ow = iw_ / 2;
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t c = 0; c < c_; ++c) {
          const std::uint8_t idx =
              argmax_[static_cast<std::size_t>(dy.offset(ni, h, w, c))];
          const std::int64_t hh = 2 * h + (idx >= 2 ? 1 : 0);
          const std::int64_t ww = 2 * w + (idx % 2);
          dx.at(ni, hh, ww, c) += dy.at(ni, h, w, c);
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

TensorF GlobalAvgPool::forward(const TensorF& x, bool /*train*/) {
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

TensorF GlobalAvgPool::backward(const TensorF& dy) {
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

TensorF Flatten::forward(const TensorF& x, bool /*train*/) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  h_ = x.dim(1);
  w_ = x.dim(2);
  c_ = x.dim(3);
  TensorF y({n_, h_ * w_ * c_});
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = x[i];
  return y;
}

TensorF Flatten::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  TensorF y({x.dim(0), x.dim(1) * x.dim(2) * x.dim(3)});
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = x[i];
  return y;
}

TensorF Flatten::backward(const TensorF& dy) {
  TensorF dx({n_, h_, w_, c_});
  for (std::int64_t i = 0; i < dy.size(); ++i) dx[i] = dy[i];
  return dx;
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

TensorF Linear::forward(const TensorF& x, bool train) {
  IWG_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0));
  const std::int64_t n = x.dim(0);
  const std::int64_t d = x.dim(1);
  const std::int64_t m = w_.value.dim(1);
  TensorF y({n, m});
  parallel_for(n, [&](std::int64_t i) {
    float* yr = y.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) yr[j] = b_.value[j];
    const float* xr = x.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      const float* wr = w_.value.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) yr[j] += xv * wr[j];
    }
  });
  if (train) {
    x_cache_ = x;
  } else {
    x_cache_ = TensorF();
  }
  return y;
}

TensorF Linear::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0));
  const std::int64_t n = x.dim(0);
  const std::int64_t d = x.dim(1);
  const std::int64_t m = w_.value.dim(1);
  TensorF y({n, m});
  parallel_for(n, [&](std::int64_t i) {
    float* yr = y.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) yr[j] = b_.value[j];
    const float* xr = x.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      const float* wr = w_.value.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) yr[j] += xv * wr[j];
    }
  });
  return y;
}

TensorF Linear::backward(const TensorF& dy) {
  IWG_CHECK(!x_cache_.empty());
  const std::int64_t n = dy.dim(0);
  const std::int64_t d = w_.value.dim(0);
  const std::int64_t m = w_.value.dim(1);
  // db, dw
  for (std::int64_t i = 0; i < n; ++i) {
    const float* gr = dy.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) b_.grad[j] += gr[j];
    const float* xr = x_cache_.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      float* wg = w_.grad.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) wg[j] += xv * gr[j];
    }
  }
  // dx = dy · W^T
  TensorF dx({n, d});
  parallel_for(n, [&](std::int64_t i) {
    const float* gr = dy.data() + i * m;
    float* xr = dx.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float* wr = w_.value.data() + k * m;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < m; ++j) acc += gr[j] * wr[j];
      xr[k] = acc;
    }
  });
  return dx;
}

}  // namespace iwg::nn
