// Layer probes measured in every traced run, on the same machine and in the
// same process as the workload: the per-ISA kernel rates that bound the Γ
// engine (host_kernels), the zoo's conv shapes replayed through core::conv2d
// (core), and the fork/join cost of the thread pool (common).
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace perf {

void run_layer_probes(Result& r, std::uint64_t seed, bool smoke);

/// The host filter-transform counters (`host.filter_transform.hits` /
/// `.misses`), snapshotted so a phase can report its own hit ratio.
struct CacheTally {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  static CacheTally now();
};
/// core.filter_cache_hit_ratio over the interval since `before`.
void emit_cache_ratio(const CacheTally& before, Result& r);

}  // namespace perf
