// serve_light: one tenant serving the 3-conv 8x8 model with FleetConfig
// defaults and a 50 ms deadline, in three phases:
//
//   low   Poisson open loop, 2 000 requests/s — batches ship on the
//         max_wait hold, which dominates request latency; the end-to-end
//         p50/p99;
//   main  Poisson open loop, 20 000 requests/s — throughput_ips (served OK
//         per second) and the request ledger (per-layer);
//   sat   a 256-request window from one thread — the capacity, recorded as
//         phase.sat.ok_per_s (it swings ±15 % run to run with host speed,
//         too much to gate on).
//
// Model compute is tens of microseconds, so request time goes to the
// serving layer, common's fork/join and delivery; core changes predict no
// change here.
#include <memory>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "ledger.hpp"
#include "models.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

using iwg::TensorF;
using namespace std::chrono_literals;

constexpr std::int64_t kImage = 8;
constexpr int kPool = 256;
constexpr int kSetups = 25;  ///< set-up takes well under a millisecond
constexpr auto kDeadline = 50ms;
constexpr auto kSatDeadline = 10s;
constexpr double kLowRate = 2000.0;
constexpr double kMainRate = 20000.0;
/// Deep enough that both fleet workers always find a full batch: with 64
/// outstanding, capacity swung ±20 % run to run with client scheduling.
constexpr int kWindow = 256;
/// Holds 200 ms of main-phase arrivals, so the burst a generator stall
/// releases is queued rather than rejected.
constexpr std::size_t kQueueCapacity = 4096;
/// Shares of the run's seconds per phase.
constexpr double kLowShare = 0.35;
constexpr double kMainShare = 0.35;
constexpr double kSatShare = 0.30;

iwg::serve::TenantConfig tenant_config() {
  iwg::serve::TenantConfig tc;
  tc.id = "light";
  tc.image_h = kImage;
  tc.image_w = kImage;
  tc.channels = 3;
  tc.default_deadline = kDeadline;
  tc.queue_capacity = kQueueCapacity;
  return tc;
}

struct Phases {
  std::vector<Outcome> low, main;
  WindowRun sat;
  double low_s = 0.0, main_s = 0.0;  ///< scheduled arrival spans
  double main_wall_s = 0.0, main_cpu_s = 0.0;
};

Phases run_phases(iwg::serve::FleetScheduler& fleet, const Traffic& traffic,
                  double seconds, std::uint64_t seed, CheckState& checks,
                  bool main_only) {
  Phases p;
  p.low_s = seconds * kLowShare;
  p.main_s = seconds * kMainShare;
  if (!main_only) {
    p.low = run_open_loop(
        fleet, traffic,
        poisson_arrivals(kLowRate, p.low_s, kDeadline, kPool, seed + 1),
        checks);
  }
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  p.main = run_open_loop(
      fleet, traffic,
      poisson_arrivals(kMainRate, p.main_s, kDeadline, kPool, seed + 2),
      checks);
  p.main_wall_s = seconds_since(t0);
  p.main_cpu_s = cpu_seconds() - cpu0;
  if (!main_only) {
    // Every pool image in turn, with no effective deadline: a host stall
    // must not shed the capacity probe's queue.
    std::vector<Arrival> pattern(kPool);
    for (int i = 0; i < kPool; ++i) {
      pattern[static_cast<std::size_t>(i)].image = i;
      pattern[static_cast<std::size_t>(i)].deadline = kSatDeadline;
      pattern[static_cast<std::size_t>(i)].own_deadline = true;
    }
    p.sat = run_window(fleet, traffic, pattern, kWindow, seconds * kSatShare,
                       checks);
  }
  return p;
}

}  // namespace

void run_serve_light(const Options& opt, Result& r) {
  const auto seed = static_cast<unsigned>(opt.seed);
  Traffic traffic;
  traffic.ids = {"light"};
  traffic.pools.resize(1);
  for (int i = 0; i < kPool; ++i) {
    traffic.pools[0].push_back(
        random_tensor({kImage, kImage, 3}, opt.seed * 1000 + i));
  }
  std::vector<TensorF> refs;
  {
    const iwg::nn::Model offline = make_light_model(seed);
    for (const TensorF& img : traffic.pools[0]) {
      refs.push_back(offline.infer(as_batch(img)));
    }
  }
  CheckState checks;
  checks.corrupt = opt.corrupt;
  checks.check = [&refs](const Arrival& a, const TensorF& y) {
    return bitwise_equal(y, refs[static_cast<std::size_t>(a.image)]);
  };

  // Set-up: start a fleet and register (warm) the tenant.
  double setup_s = 0.0;
  std::vector<double> register_s;
  const std::unique_ptr<iwg::serve::FleetScheduler> fleet =
      median_setup(kSetups, setup_s, [&] {
        auto f = std::make_unique<iwg::serve::FleetScheduler>(
            iwg::serve::FleetConfig{});
        const Clock::time_point t0 = Clock::now();
        f->add_tenant(make_light_model(seed), tenant_config());
        register_s.push_back(seconds_since(t0));
        return f;
      });

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const CacheTally cache0 = CacheTally::now();
  const Phases run =
      run_phases(*fleet, traffic, untraced_s, opt.seed, checks, false);
  tally(run.low, r);
  tally(run.main, r);
  tally(run.sat, r);

  const RequestSummary low = summarize(run.low, run.low_s);
  const RequestSummary main = summarize(run.main, run.main_s);
  std::vector<Outcome> open = run.low;
  open.insert(open.end(), run.main.begin(), run.main.end());
  EndToEnd e;
  e.setup_s = setup_s;
  e.throughput_ips = main.ok_per_s;
  e.p50_ms = low.p50_ms;
  e.p99_ms = low.p99_ms;
  e.slo_met_share = summarize(open, run.low_s + run.main_s).slo_met_share;
  emit_end_to_end(e, r);
  emit_phase("low", run.low, run.low_s, r);
  emit_phase("main", run.main, run.main_s, r);
  emit_phase("sat", run.sat, r);
  if (!opt.trace) return;

  std::vector<double> model_ms;
  for (const Outcome& o : run.main) {
    model_ms.push_back((o.latency_us - o.queue_us) / 1e3);
  }
  r.metric("nn.model_ms", mean(model_ms), "ms");
  emit_cpu_util(r, run.main_cpu_s, run.main_wall_s);
  emit_cache_ratio(cache0, r);
  emit_request_ledger(run.main, r);
  emit_fleet_counters(*fleet, r);
  r.metric("serve.register_share", quantile(register_s, 0.5) / setup_s,
           "share");
  // No weight swaps or scrapes in this workload.
  r.metric("serve.swap_busy_share", 0.0, "share");
  r.metric("obs.scrape_busy_share", 0.0, "share");
  r.metric("obs.scrape_kb", 0.0, "KiB");

  start_tracing(kTraceCapacity);
  const Phases traced = run_phases(
      *fleet, traffic,
      std::min(opt.seconds / 2, kTracedSecondsServing / kMainShare), opt.seed,
      checks, true);
  fleet->stop();
  const std::vector<iwg::trace::Event> events =
      stop_tracing(r, opt.trace_out);
  tally(traced.main, r);
  emit_phase("traced_main", traced.main, traced.main_s, r);
  emit_ledger(build_ledger(events), r);
  r.metric("trace.overhead",
           summarize(traced.main, traced.main_s).p50_ms / main.p50_ms,
           "ratio");
  run_layer_probes(r, opt.seed, opt.seconds < 4.0);
}

}  // namespace perf
