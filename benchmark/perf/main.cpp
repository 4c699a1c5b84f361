// iwg_perf: one workload of the repository benchmark in one process.
//
//   iwg_perf --workload NAME --seed N --seconds S --trace 0|1
//            [--scratch DIR] [--trace-out FILE] [--corrupt]
//
// Prints one JSON object (the run record: machine facts the binary knows,
// check tallies, every metric with its unit). benchmark/run.py builds this
// binary, runs it and selects the metrics BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perf {

void emit_end_to_end(const EndToEnd& e, Result& r) {
  r.metric("setup_s", e.setup_s, "s");
  r.metric("throughput_ips", e.throughput_ips, "images/s");
  r.metric("p50_ms", e.p50_ms, "ms");
  r.metric("p99_ms", e.p99_ms, "ms");
  r.metric("slo_met_share", e.slo_met_share, "share");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

EndToEnd ClosedLoop::end_to_end(double setup_s, double images_per_op) const {
  std::vector<Stamped> images;
  for (const Stamped& op : ops) images.push_back({op.t_s, images_per_op});
  EndToEnd e;
  e.setup_s = setup_s;
  e.throughput_ips = windowed_rate(images, wall_s);
  e.p50_ms = windowed_quantile(ops, wall_s, 0.5);
  e.p99_ms = windowed_quantile(ops, wall_s, 0.99);
  e.slo_met_share = ops.empty() ? 0.0
                                : static_cast<double>(slo_met) /
                                      static_cast<double>(ops.size());
  return e;
}

}  // namespace perf

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: iwg_perf --workload zoo_infer|serve_light|fleet_mixed|"
               "train_step --seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--trace-out FILE] [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options opt;
  opt.scratch = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt") {
      opt.corrupt = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--scratch" && has_value) {
      opt.scratch = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  perf::Result r;
  try {
    if (opt.workload == "zoo_infer") {
      perf::run_zoo_infer(opt, r);
    } else if (opt.workload == "serve_light") {
      perf::run_serve_light(opt, r);
    } else if (opt.workload == "fleet_mixed") {
      perf::run_fleet_mixed(opt, r);
    } else if (opt.workload == "train_step") {
      perf::run_train_step(opt, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iwg_perf: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", r.json(opt).c_str());
  return 0;
}
