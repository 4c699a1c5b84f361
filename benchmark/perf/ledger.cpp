#include "ledger.hpp"

#include <algorithm>
#include <string_view>

namespace perf {

namespace {

using iwg::trace::Event;

constexpr const char* kUnaccounted = "unaccounted";

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

bool is_root(const Event& e) {
  return e.name == "bench.op" || e.name == "serve.batch";
}

/// Ledger key of a span nested under a root.
std::string key_of(const Event& e) {
  const std::string& n = e.name;
  if (e.cat == "nn.infer" || e.cat == "nn.fwd" || e.cat == "nn.bwd") {
    // Layer labels: conv<i>/stem (Conv2D), batchnorm, leaky_relu,
    // maxpool2x2/global_avg_pool, flatten/fc*/linear, residual (a whole
    // ResidualBlock — its inner layers run without nn spans).
    if (starts_with(n, "conv") || n == "stem") return "nn.conv";
    if (n == "batchnorm" || n == "leaky_relu" || n == "residual") {
      return "nn." + n;
    }
    if (n == "maxpool2x2" || n == "global_avg_pool") return "nn.pool";
    if (n == "flatten" || starts_with(n, "fc") || n == "linear") {
      return "nn.linear";
    }
    return kUnaccounted;
  }
  if (e.cat == "host") {
    if (n == "conv2d_host") return "core.conv_host";
    if (n == "gamma_host") return "core.gamma";
    if (n == "gemm_host") return "core.gemm_tail";
    if (n == "filter_transform") return "core.filter_transform";
    if (n == "conv2d_host_indirect") return "core.indirect";
    if (n == "deconv2d_host") return "core.deconv";
    if (n == "filter_grad_host") return "core.filter_grad";
    return kUnaccounted;
  }
  if (e.cat == "serve") return "serve.request";
  if (n == "bench.loss") return "nn.loss";
  if (n == "bench.optim") return "nn.optim";
  // bench.forward / bench.backward: Model::forward/backward's own loop.
  return kUnaccounted;
}

struct Frame {
  const Event* e;
  double end_us;
  double child_us = 0.0;
  bool under_root;
};

}  // namespace

Ledger build_ledger(const std::vector<Event>& events) {
  Ledger l;
  std::map<std::uint32_t, std::vector<const Event*>> by_tid;
  for (const Event& e : events) by_tid[e.tid].push_back(&e);

  for (auto& [tid, evs] : by_tid) {
    // Parents start no later and last no shorter than their children.
    std::sort(evs.begin(), evs.end(), [](const Event* a, const Event* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<Frame> stack;
    auto close = [&](const Frame& f) {
      if (!f.under_root) return;
      const double self = std::max(0.0, f.e->dur_us - f.child_us);
      l.self_us[is_root(*f.e) ? kUnaccounted : key_of(*f.e)] += self;
    };
    // Spans on one thread are RAII scopes, so a span that starts before the
    // innermost open one ends is nested in it.
    constexpr double kEps = 1e-3;  // µs; start/duration rounding
    for (const Event* e : evs) {
      while (!stack.empty() && stack.back().end_us <= e->ts_us + kEps) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += e->dur_us;
      const bool root = is_root(*e);  // roots never nest in one another
      const bool under = root || (!stack.empty() && stack.back().under_root);
      if (root) {
        l.root_us += e->dur_us;
        ++l.roots;
      }
      if (under && e->name == "bench.forward") l.forward_us += e->dur_us;
      if (under && e->name == "bench.backward") l.backward_us += e->dur_us;
      stack.push_back(Frame{e, e->ts_us + e->dur_us, 0.0, under});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return l;
}

void emit_ledger(const Ledger& l, Result& r) {
  static const char* const kShares[][2] = {
      {"nn.conv", "nn.self_share.conv"},
      {"nn.batchnorm", "nn.self_share.batchnorm"},
      {"nn.leaky_relu", "nn.self_share.leaky_relu"},
      {"nn.pool", "nn.self_share.pool"},
      {"nn.linear", "nn.self_share.linear"},
      {"nn.residual", "nn.self_share.residual"},
      {"nn.loss", "nn.self_share.loss"},
      {"nn.optim", "nn.self_share.optim"},
      {"core.conv_host", "core.self_share.conv_host"},
      {"core.gamma", "core.self_share.gamma"},
      {"core.gemm_tail", "core.self_share.gemm_tail"},
      {"core.filter_transform", "core.self_share.filter_transform"},
      {"core.indirect", "core.self_share.indirect"},
      {"core.deconv", "core.self_share.deconv"},
      {"core.filter_grad", "core.self_share.filter_grad"},
      {"serve.request", "serve.self_share"},
      {kUnaccounted, "nn.unaccounted_share"},
  };
  const double root = l.root_us > 0.0 ? l.root_us : 1.0;
  const double ops = l.roots > 0 ? static_cast<double>(l.roots) : 1.0;
  for (const auto& [key, name] : kShares) {
    const auto it = l.self_us.find(key);
    const double us = it == l.self_us.end() ? 0.0 : it->second;
    r.metric(name, us / root, "share");
    r.metric(std::string("ledger_ms.") + key, us / ops / 1e3, "ms");
  }
  r.metric("nn.backward_share", l.backward_us / root, "share");
  r.metric("ledger_ms.forward", l.forward_us / ops / 1e3, "ms");
  r.metric("ledger_ms.backward", l.backward_us / ops / 1e3, "ms");
  r.metric("ledger_ms.op", l.root_us / ops / 1e3, "ms");
  r.metric("trace.ops", static_cast<double>(l.roots), "count");
}

void start_tracing(std::int64_t capacity) {
  // The ring is a vector that otherwise grows while the workload runs, and
  // each reallocation copies every resident span under the tracer lock —
  // a multi-millisecond stall that overflows serving queues. Fill it to
  // capacity once; enable() clears it and the vector keeps its storage.
  iwg::trace::Tracer& t = iwg::trace::Tracer::global();
  t.enable(capacity);
  for (std::int64_t i = 0; i < capacity; ++i) t.record(Event{});
  t.enable(capacity);
}

std::vector<Event> stop_tracing(Result& r, const std::string& chrome_path) {
  iwg::trace::Tracer& t = iwg::trace::Tracer::global();
  t.disable();
  const std::int64_t dropped = t.dropped();
  r.metric("trace.dropped", static_cast<double>(dropped), "count");
  r.metric("trace.spans", static_cast<double>(t.recorded()), "count");
  if (dropped != 0) {
    r.fail("tracer dropped " + std::to_string(dropped) +
           " spans; raise the ring capacity");
  }
  if (!chrome_path.empty()) t.write_chrome_trace(chrome_path, false);
  return t.events();
}

}  // namespace perf
