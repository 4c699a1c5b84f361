#include "nn/model.hpp"

#include "common/trace.hpp"
#include "nn/layers.hpp"

namespace iwg::nn {

namespace {

/// One inference step: a Conv2D fused with the BatchNorm2D and then the
/// LeakyReLU that directly follow it (each optional), or any other layer
/// on its own. Found from layer types on every call, so there is no plan
/// to keep in sync with the layer list.
struct Step {
  const Layer* layer = nullptr;
  const Conv2D* conv = nullptr;  // set for a fused conv step
  ConvEpilogue ep;
  std::size_t layers = 1;        // layers the step covers
};

Step step_at(const std::vector<LayerPtr>& layers, std::size_t i) {
  Step s;
  s.layer = layers[i].get();
  s.conv = dynamic_cast<const Conv2D*>(s.layer);
  if (s.conv == nullptr) return s;
  const auto next = [&]() -> const Layer* {
    return i + s.layers < layers.size() ? layers[i + s.layers].get() : nullptr;
  };
  if ((s.ep.bn = dynamic_cast<const BatchNorm2D*>(next())) != nullptr) {
    ++s.layers;
  }
  if ((s.ep.act = dynamic_cast<const LeakyReLU*>(next())) != nullptr) {
    ++s.layers;
  }
  return s;
}

}  // namespace

TensorF Model::forward(const TensorF& x, bool train) {
  TensorF h = x;
  for (auto& l : layers_) {
    IWG_TRACE_SPAN(span, l->name(), "nn.fwd");
    h = l->forward(h, train);
  }
  return h;
}

TensorF Model::infer(const TensorF& x) const {
  if (layers_.empty()) return x;
  TensorF h;
  const TensorF* in = &x;  // the first step reads the caller's input
  for (std::size_t i = 0; i < layers_.size();) {
    const Step s = step_at(layers_, i);
    IWG_TRACE_SPAN(span, s.layer->name(), "nn.infer");
    h = s.conv != nullptr ? s.conv->infer(*in, s.ep) : s.layer->infer(*in);
    in = &h;
    i += s.layers;
  }
  return h;
}

std::vector<TensorF> Model::infer_ragged(
    const std::vector<TensorF>& xs) const {
  if (layers_.empty()) return xs;
  std::vector<TensorF> hs;
  const std::vector<TensorF>* in = &xs;
  for (std::size_t i = 0; i < layers_.size();) {
    const Step s = step_at(layers_, i);
    IWG_TRACE_SPAN(span, s.layer->name(), "nn.infer");
    hs = s.conv != nullptr ? s.conv->infer_ragged(*in, s.ep)
                           : s.layer->infer_ragged(*in);
    in = &hs;
    i += s.layers;
  }
  return hs;
}

TensorF Model::backward(const TensorF& dloss) {
  TensorF g = dloss;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    IWG_TRACE_SPAN(span, (*it)->name(), "nn.bwd");
    g = (*it)->backward(g);
  }
  return g;
}

int Model::pretune(std::int64_t batch, std::int64_t image_size,
                   std::int64_t channels, AutotuneContext& ctx) {
  IWG_CHECK_MSG(ctx.dev != nullptr, "pretune needs a device profile");
  Dims4 d{batch, image_size, image_size, channels};
  for (auto& l : layers_) d = l->pretune(d, ctx);
  return ctx.resolved;
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::int64_t Model::param_count() {
  std::int64_t total = 0;
  for (Param* p : params()) total += p->value.size();
  return total;
}

std::int64_t Model::activation_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->activation_bytes();
  return total;
}

std::string Model::summary() {
  std::string s;
  for (auto& l : layers_) {
    s += l->name();
    s += "\n";
  }
  s += "params: " + std::to_string(param_count()) + "\n";
  return s;
}

// ---------------------------------------------------------------------------
// ResidualBlock

ResidualBlock::ResidualBlock(std::int64_t in_ch, std::int64_t out_ch,
                             std::int64_t stride, ConvEngine engine,
                             Rng& rng) {
  main_.push_back(std::make_unique<Conv2D>(in_ch, out_ch, 3, stride, 1, engine,
                                           rng, "res.conv1"));
  main_.push_back(std::make_unique<BatchNorm2D>(out_ch));
  main_.push_back(std::make_unique<LeakyReLU>());
  main_.push_back(std::make_unique<Conv2D>(out_ch, out_ch, 3, 1, 1, engine,
                                           rng, "res.conv2"));
  main_.push_back(std::make_unique<BatchNorm2D>(out_ch));
  if (stride != 1 || in_ch != out_ch) {
    proj_.push_back(std::make_unique<Conv2D>(in_ch, out_ch, 1, stride, 0,
                                             engine, rng, "res.proj"));
    proj_.push_back(std::make_unique<BatchNorm2D>(out_ch));
  }
  relu_out_ = std::make_unique<LeakyReLU>();
}

TensorF ResidualBlock::forward(const TensorF& x, bool train) {
  TensorF h = x;
  for (auto& l : main_) h = l->forward(h, train);
  TensorF skip = x;
  for (auto& l : proj_) skip = l->forward(skip, train);
  IWG_CHECK(h.same_shape(skip));
  for (std::int64_t i = 0; i < h.size(); ++i) h[i] += skip[i];
  if (train) skip_cache_ = skip;  // only shape matters for backward
  return relu_out_->forward(h, train);
}

TensorF ResidualBlock::infer(const TensorF& x) const {
  // Three fused steps: proj_ = conv bn (if any), then main_ = conv bn relu
  // | conv bn, whose epilogue also takes the skip and relu_out_. The
  // identity shortcut reads x in place.
  TensorF proj;
  if (!proj_.empty()) {
    const Step p = step_at(proj_, 0);
    proj = p.conv->infer(x, p.ep);
  }
  const Step s1 = step_at(main_, 0);
  Step s2 = step_at(main_, s1.layers);
  s2.ep.skip = proj_.empty() ? &x : &proj;
  s2.ep.act = static_cast<const LeakyReLU*>(relu_out_.get());
  return s2.conv->infer(s1.conv->infer(x, s1.ep), s2.ep);
}

TensorF ResidualBlock::backward(const TensorF& dy) {
  TensorF g = relu_out_->backward(dy);
  // The addition forks the gradient into both branches.
  TensorF gmain = g;
  for (auto it = main_.rbegin(); it != main_.rend(); ++it) {
    gmain = (*it)->backward(gmain);
  }
  TensorF gskip = g;
  for (auto it = proj_.rbegin(); it != proj_.rend(); ++it) {
    gskip = (*it)->backward(gskip);
  }
  IWG_CHECK(gmain.same_shape(gskip));
  for (std::int64_t i = 0; i < gmain.size(); ++i) gmain[i] += gskip[i];
  return gmain;
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> out;
  for (auto& l : main_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  for (auto& l : proj_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

Dims4 ResidualBlock::pretune(const Dims4& in, AutotuneContext& ctx) {
  Dims4 d = in;
  for (auto& l : main_) d = l->pretune(d, ctx);
  Dims4 p = in;
  for (auto& l : proj_) p = l->pretune(p, ctx);
  return d;
}

std::int64_t ResidualBlock::activation_bytes() const {
  std::int64_t total = relu_out_->activation_bytes() + skip_cache_.size() * 4;
  for (const auto& l : main_) total += l->activation_bytes();
  for (const auto& l : proj_) total += l->activation_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Model zoo

Model make_vgg(int depth, const ModelConfig& cfg, int filter_size,
               int first4_filter) {
  IWG_CHECK(depth == 16 || depth == 19);
  Rng rng(cfg.seed);
  Model m;
  // Convs per stage; stage widths are base·{1,2,4,8,8} like VGG's
  // 64·{1,2,4,8,8}. VGG19 deepens the last three stages.
  const std::vector<int> convs = depth == 16 ? std::vector<int>{2, 2, 3, 3, 3}
                                             : std::vector<int>{2, 2, 4, 4, 4};
  std::int64_t ch = 3;
  std::int64_t spatial = cfg.image_size;
  int conv_index = 0;
  for (std::size_t stage = 0; stage < convs.size(); ++stage) {
    const std::int64_t width =
        cfg.base_channels << std::min<std::size_t>(stage, 3);
    for (int i = 0; i < convs[stage]; ++i) {
      int f = filter_size;
      if (first4_filter > 0 && conv_index < 4) f = first4_filter;
      m.add(std::make_unique<Conv2D>(ch, width, f, 1, f / 2, cfg.engine, rng,
                                     "conv" + std::to_string(conv_index)));
      // §6.3.1: BatchNorm layers were added into VGG to expedite convergence.
      if (i == 0) m.add(std::make_unique<BatchNorm2D>(width));
      m.add(std::make_unique<LeakyReLU>());
      ch = width;
      ++conv_index;
    }
    if (spatial >= 8) {  // keep at least a 4×4 map so the heavy deep
      m.add(std::make_unique<MaxPool2x2>());  // layers stay Winograd-covered
      spatial /= 2;
    }
  }
  m.add(std::make_unique<Flatten>());
  const std::int64_t feat = spatial * spatial * ch;
  m.add(std::make_unique<Linear>(feat, 4 * cfg.base_channels, rng, "fc1"));
  m.add(std::make_unique<LeakyReLU>());
  m.add(std::make_unique<Linear>(4 * cfg.base_channels, cfg.num_classes, rng,
                                 "fc2"));
  return m;
}

Model make_resnet(int depth, const ModelConfig& cfg) {
  IWG_CHECK(depth == 18 || depth == 34);
  Rng rng(cfg.seed);
  Model m;
  const std::vector<int> blocks = depth == 18 ? std::vector<int>{2, 2, 2, 2}
                                              : std::vector<int>{3, 4, 6, 3};
  const std::int64_t c0 = cfg.base_channels;
  m.add(std::make_unique<Conv2D>(3, c0, 3, 1, 1, cfg.engine, rng, "stem"));
  m.add(std::make_unique<BatchNorm2D>(c0));
  m.add(std::make_unique<LeakyReLU>());
  std::int64_t ch = c0;
  std::int64_t spatial = cfg.image_size;
  for (std::size_t stage = 0; stage < blocks.size(); ++stage) {
    const std::int64_t width = c0 << stage;
    for (int b = 0; b < blocks[stage]; ++b) {
      // Non-unit-stride down-sampling at stage entry (§6.3.2), kept only
      // while the map stays at least 4×4.
      const std::int64_t stride =
          (b == 0 && stage > 0 && spatial >= 8) ? 2 : 1;
      m.add(std::make_unique<ResidualBlock>(ch, width, stride, cfg.engine,
                                            rng));
      if (stride == 2) spatial /= 2;
      ch = width;
    }
  }
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(ch, cfg.num_classes, rng, "fc"));
  return m;
}

}  // namespace iwg::nn
