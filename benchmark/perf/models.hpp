// The models the workloads run, built deterministically from a seed.
#pragma once

#include <cstdint>
#include <string>

#include "nn/model.hpp"

namespace perf {

/// Model-zoo members used by zoo_infer, fleet_mixed and train_step.
enum class Net { kVgg16, kVgg16x5, kResnet18 };

const char* net_name(Net n);

iwg::nn::Model make_net(Net n, std::int64_t base_channels,
                        std::int64_t image_size, iwg::nn::ConvEngine engine,
                        unsigned seed);

/// serve_light's model: three Winograd convs plus a head on 8x8x3 inputs —
/// a copy of bench/serving_throughput's served model, so model compute is
/// tens of microseconds and request time goes to the serving layer.
iwg::nn::Model make_light_model(unsigned seed);

}  // namespace perf
