// Per-layer self-time ledger from the library's own trace spans.
//
// A traced run wraps each operation it times in a "root" span: the
// benchmark's own `bench.*` span around a Model call, or the serving
// layer's `serve.batch` span on the worker. Every span nested under a root
// on the same thread is attributed to a ledger key by its category and
// name (nn layer kind, host conv stage, serve per-request work). A span's
// self time is its duration minus the part its direct children cover; the
// root's own self time is "unaccounted" — time in the operation that no
// layer span covers. The keys therefore sum exactly to the root wall time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "harness.hpp"

namespace perf {

struct Ledger {
  std::map<std::string, double> self_us;  ///< ledger key → summed self µs
  double root_us = 0.0;                   ///< summed root durations
  std::int64_t roots = 0;
  double forward_us = 0.0;   ///< summed `bench.forward` durations (train)
  double backward_us = 0.0;  ///< summed `bench.backward` durations (train)
};

/// Root spans are `bench.op` and `serve.batch`.
Ledger build_ledger(const std::vector<iwg::trace::Event>& events);

/// Emit the per-layer shares BENCHMARK.json names (`*.self_share*`,
/// `nn.unaccounted_share`, `nn.backward_share`) and, for the record, each
/// key's self time per operation (`ledger_ms.<key>`).
void emit_ledger(const Ledger& l, Result& r);

/// Turn the global tracer on with an explicit ring capacity.
void start_tracing(std::int64_t capacity);
/// Stop, check nothing was dropped, optionally write Chrome JSON, and
/// return the recorded spans.
std::vector<iwg::trace::Event> stop_tracing(Result& r,
                                            const std::string& chrome_path);

}  // namespace perf
