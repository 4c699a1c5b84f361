#include "models.hpp"

#include <memory>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace perf {

using iwg::nn::ConvEngine;

const char* net_name(Net n) {
  switch (n) {
    case Net::kVgg16: return "vgg16";
    case Net::kVgg16x5: return "vgg16x5";
    case Net::kResnet18: return "resnet18";
  }
  return "?";
}

iwg::nn::Model make_net(Net n, std::int64_t base_channels,
                        std::int64_t image_size, ConvEngine engine,
                        unsigned seed) {
  iwg::nn::ModelConfig cfg;
  cfg.engine = engine;
  cfg.image_size = image_size;
  cfg.base_channels = base_channels;
  cfg.seed = seed;
  switch (n) {
    case Net::kVgg16: return iwg::nn::make_vgg(16, cfg, 3);
    case Net::kVgg16x5: return iwg::nn::make_vgg(16, cfg, 5);
    case Net::kResnet18: return iwg::nn::make_resnet(18, cfg);
  }
  return {};
}

iwg::nn::Model make_light_model(unsigned seed) {
  iwg::Rng rng(seed);
  iwg::nn::Model m;
  m.add(std::make_unique<iwg::nn::Conv2D>(3, 8, 3, 1, 1, ConvEngine::kWinograd,
                                          rng, "conv1"));
  m.add(std::make_unique<iwg::nn::LeakyReLU>());
  m.add(std::make_unique<iwg::nn::Conv2D>(8, 8, 3, 1, 1, ConvEngine::kWinograd,
                                          rng, "conv2"));
  m.add(std::make_unique<iwg::nn::LeakyReLU>());
  m.add(std::make_unique<iwg::nn::MaxPool2x2>());
  m.add(std::make_unique<iwg::nn::Conv2D>(8, 16, 3, 1, 1,
                                          ConvEngine::kWinograd, rng, "conv3"));
  m.add(std::make_unique<iwg::nn::LeakyReLU>());
  m.add(std::make_unique<iwg::nn::GlobalAvgPool>());
  m.add(std::make_unique<iwg::nn::Linear>(16, 10, rng, "fc"));
  return m;
}

}  // namespace perf
