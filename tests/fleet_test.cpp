// Serving tests, all through FleetScheduler: token-bucket admission,
// ModelRegistry lifecycle, single-model serving on a one-tenant fleet
// (queue admission, the batch rule — max_wait hold, full batches shipping
// at once, expiry shedding, dense vs ragged dispatch — and stop with and
// without drain), hot weight swap under live traffic (zero drops,
// monotone versions, no stale filter transforms),
// weighted-fair dequeue shares, EDF-vs-FIFO intra-tenant ordering,
// deregistration mid-traffic (every-future-resolves extended to
// remove_tenant), and batched-vs-single-request bit parity through the
// fleet dispatch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "obs/slo_monitor.hpp"
#include "serve/serve.hpp"

namespace iwg::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Helpers

/// Tiny conv net with a classifier head; same seed → identical weights.
/// Fixed 8×8×3 input (Flatten + Linear head).
nn::Model make_tiny_classifier(unsigned seed = 7) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c1"));
  m.add(std::make_unique<nn::BatchNorm2D>(8));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::Conv2D>(8, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c2"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::MaxPool2x2>());
  m.add(std::make_unique<nn::Flatten>());
  m.add(std::make_unique<nn::Linear>(4 * 4 * 8, 10, rng, "fc"));
  return m;
}

/// Conv-only net (no flatten/linear), so it accepts any H×W.
nn::Model make_tiny_fcn(unsigned seed = 11) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 4, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c1"));
  m.add(std::make_unique<nn::LeakyReLU>());
  return m;
}

TensorF random_image(Rng& rng, std::int64_t h = 8, std::int64_t w = 8,
                     std::int64_t c = 3) {
  TensorF x({h, w, c});
  x.fill_uniform(rng, -1.0f, 1.0f);
  return x;
}

/// Reference: run one image through the model as a batch of 1.
TensorF infer_single(const nn::Model& m, const TensorF& img) {
  TensorF x({1, img.dim(0), img.dim(1), img.dim(2)});
  std::memcpy(x.data(), img.data(),
              static_cast<std::size_t>(img.size()) * sizeof(float));
  return m.infer(x);
}

bool bits_equal(const TensorF& a, const TensorF& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

TenantConfig tenant_cfg(const std::string& id, double weight = 1.0) {
  TenantConfig cfg;
  cfg.id = id;
  cfg.weight = weight;
  cfg.image_h = 8;
  cfg.image_w = 8;
  cfg.channels = 3;
  return cfg;
}

FleetConfig fleet_cfg() {
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_wait = 2ms;
  cfg.idle_wait = 5ms;
  return cfg;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// TokenBucket

TEST(TokenBucket, UnlimitedWhenRateZero) {
  TokenBucket b(TokenBucketConfig{0.0, 1.0});
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.try_acquire());
}

TEST(TokenBucket, BurstThenRefillAtRate) {
  // Synthetic clock: the bucket only looks at the time points we pass in.
  const Clock::time_point t0 = Clock::now() + 1h;  // after construction time
  TokenBucket b(TokenBucketConfig{/*rate_per_sec=*/2.0, /*burst=*/3.0});
  EXPECT_TRUE(b.try_acquire(t0));
  EXPECT_TRUE(b.try_acquire(t0));
  EXPECT_TRUE(b.try_acquire(t0));    // burst capacity spent
  EXPECT_FALSE(b.try_acquire(t0));   // empty at t0
  EXPECT_FALSE(b.try_acquire(t0 + 100ms));  // 0.2 tokens accrued — not enough
  EXPECT_TRUE(b.try_acquire(t0 + 600ms));   // 1.2 tokens accrued
  EXPECT_FALSE(b.try_acquire(t0 + 600ms));  // 0.2 left
}

TEST(TokenBucket, RefillCapsAtBurst) {
  const Clock::time_point t0 = Clock::now() + 1h;
  TokenBucket b(TokenBucketConfig{/*rate_per_sec=*/1000.0, /*burst=*/2.0});
  EXPECT_TRUE(b.try_acquire(t0));
  EXPECT_TRUE(b.try_acquire(t0));
  // A long idle accrues at most `burst` tokens, not rate × elapsed.
  const Clock::time_point later = t0 + 10s;
  EXPECT_TRUE(b.try_acquire(later));
  EXPECT_TRUE(b.try_acquire(later));
  EXPECT_FALSE(b.try_acquire(later));
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistry, RegisterFindDeregister) {
  ModelRegistry reg;
  auto t = reg.register_model(make_tiny_fcn(), tenant_cfg("alpha"));
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find("alpha"), t);
  EXPECT_EQ(reg.find("missing"), nullptr);
  // Duplicate, empty, and dotted ids are rejected at the API boundary.
  EXPECT_THROW(reg.register_model(make_tiny_fcn(), tenant_cfg("alpha")),
               Error);
  EXPECT_THROW(reg.register_model(make_tiny_fcn(), tenant_cfg("")), Error);
  EXPECT_THROW(reg.register_model(make_tiny_fcn(), tenant_cfg("a.b")), Error);
  TenantConfig bad = tenant_cfg("beta");
  bad.weight = 0.0;
  EXPECT_THROW(reg.register_model(make_tiny_fcn(), bad), Error);
  EXPECT_TRUE(reg.deregister("alpha"));
  EXPECT_FALSE(reg.deregister("alpha"));
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ModelRegistry, SwapWeightsBumpsVersionAndChangesOutputs) {
  const std::string path_b = temp_path("iwg_fleet_swap_b.iwgw");
  nn::Model donor = make_tiny_classifier(/*seed=*/21);
  nn::save_weights(donor, path_b);

  ModelRegistry reg;
  auto t = reg.register_model(make_tiny_classifier(/*seed=*/7),
                              tenant_cfg("alpha"));
  Rng rng(5);
  const TensorF img = random_image(rng);
  const TensorF before = infer_single(t->model, img);
  const std::uint64_t v0 = t->min_param_version();
  EXPECT_EQ(t->weight_epoch.load(), 0u);

  const std::uint64_t v1 = reg.swap_weights("alpha", path_b);
  EXPECT_GT(v1, v0);
  EXPECT_EQ(t->weight_epoch.load(), 1u);

  // Post-swap inference must match a fresh model with the same weights bit
  // for bit — a stale FilterTransformCache entry (old ĝ, old version key)
  // would produce different conv outputs.
  const TensorF after = infer_single(t->model, img);
  EXPECT_FALSE(bits_equal(before, after));
  EXPECT_TRUE(bits_equal(after, infer_single(donor, img)));

  EXPECT_THROW(reg.swap_weights("missing", path_b), Error);
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// FleetScheduler: basic serving + parity

TEST(FleetScheduler, ServesTenantsWithBitExactParityAndTenantMetrics) {
  FleetScheduler fleet(fleet_cfg());
  fleet.add_tenant(make_tiny_classifier(/*seed=*/7), tenant_cfg("alpha"));
  fleet.add_tenant(make_tiny_fcn(/*seed=*/11), tenant_cfg("beta"));
  const nn::Model ref_a = make_tiny_classifier(7);
  const nn::Model ref_b = make_tiny_fcn(11);

  Rng rng(3);
  std::vector<TensorF> imgs_a, imgs_b;
  std::vector<std::future<Response>> futs_a, futs_b;
  for (int i = 0; i < 12; ++i) {
    imgs_a.push_back(random_image(rng, 8, 8));
    // Mixed shapes for the conv-only tenant — exercises ragged dispatch.
    const std::int64_t hw = (i % 3 == 0) ? 6 : 8;
    imgs_b.push_back(random_image(rng, hw, hw));
    TensorF a = imgs_a.back();
    TensorF b = imgs_b.back();
    futs_a.push_back(fleet.submit("alpha", std::move(a)));
    futs_b.push_back(fleet.submit("beta", std::move(b)));
  }
  for (int i = 0; i < 12; ++i) {
    const Response ra = futs_a[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(ra.status, Status::kOk) << ra.reason;
    EXPECT_TRUE(bits_equal(ra.output,
                           infer_single(ref_a, imgs_a[static_cast<std::size_t>(i)])));
    const Response rb = futs_b[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(rb.status, Status::kOk) << rb.reason;
    EXPECT_TRUE(bits_equal(rb.output,
                           infer_single(ref_b, imgs_b[static_cast<std::size_t>(i)])));
  }
  fleet.stop(/*drain=*/true);
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_TRUE(s.all_resolved());
  EXPECT_EQ(s.tenants.at("alpha").completed, 12);
  EXPECT_EQ(s.tenants.at("beta").completed, 12);
  // Per-tenant metrics exported with the tenant id as a Prometheus label.
  const std::string page = fleet.stats_report();
  EXPECT_NE(page.find("serve_tenant_completed{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(page.find("serve_tenant_completed{tenant=\"beta\"}"),
            std::string::npos);
  EXPECT_NE(page.find("serve_tenant_latency_us_bucket{tenant=\"alpha\",le="),
            std::string::npos);
}

TEST(FleetScheduler, UnknownTenantResolvesRejected) {
  FleetScheduler fleet(fleet_cfg());
  Rng rng(1);
  auto f = fleet.submit("nobody", random_image(rng));
  const Response r = f.get();
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reason, "unknown tenant");
  fleet.stop();
}

TEST(FleetScheduler, AddTenantAfterStopThrows) {
  FleetScheduler fleet(fleet_cfg());
  fleet.stop();
  EXPECT_THROW(fleet.add_tenant(make_tiny_fcn(), tenant_cfg("late")), Error);
}

// ---------------------------------------------------------------------------
// Admission: rate limit + queue capacity

TEST(FleetScheduler, RateLimitedSubmitsResolveRejected) {
  FleetConfig fc = fleet_cfg();
  FleetScheduler fleet(fc);
  TenantConfig cfg = tenant_cfg("limited");
  cfg.rate = TokenBucketConfig{/*rate_per_sec=*/1e-6, /*burst=*/2.0};
  fleet.add_tenant(make_tiny_fcn(), cfg);
  Rng rng(2);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(fleet.submit("limited", random_image(rng)));
  int ok_or_queued = 0, rate_limited = 0;
  fleet.stop(/*drain=*/true);
  for (auto& f : futs) {
    const Response r = f.get();
    if (r.status == Status::kOk) {
      ++ok_or_queued;
    } else {
      EXPECT_EQ(r.status, Status::kRejected);
      EXPECT_EQ(r.reason, "rate limited");
      ++rate_limited;
    }
  }
  EXPECT_EQ(ok_or_queued, 2);  // the burst capacity
  EXPECT_EQ(rate_limited, 4);
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_EQ(s.tenants.at("limited").rejected, 4);
  EXPECT_TRUE(s.all_resolved());
}

TEST(FleetScheduler, ChannelMismatchRejectedAtAdmission) {
  // The model would throw on a worker; admission turns it away instead.
  FleetScheduler fleet(fleet_cfg());
  fleet.add_tenant(make_tiny_classifier(), tenant_cfg("rgb"));
  Rng rng(3);
  auto bad = fleet.submit("rgb", random_image(rng, 8, 8, /*c=*/4));
  const Response r = bad.get();  // resolved synchronously at admission
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.reason, "channel mismatch");
  auto good = fleet.submit("rgb", random_image(rng));
  fleet.stop(/*drain=*/true);
  EXPECT_EQ(good.get().status, Status::kOk);
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_EQ(s.tenants.at("rgb").rejected, 1);
  EXPECT_EQ(s.tenants.at("rgb").completed, 1);
  EXPECT_TRUE(s.all_resolved());
}

TEST(FleetScheduler, FullTenantQueueRejectsWithReason) {
  FleetConfig fc = fleet_cfg();
  fc.workers = 1;
  fc.max_wait = 500ms;  // a lone request parks; capacity fills behind it
  FleetScheduler fleet(fc);
  TenantConfig cfg = tenant_cfg("narrow");
  cfg.queue_capacity = 1;
  fleet.add_tenant(make_tiny_fcn(), cfg);
  Rng rng(4);
  auto f1 = fleet.submit("narrow", random_image(rng));
  auto f2 = fleet.submit("narrow", random_image(rng));
  const Response r2 = f2.get();  // rejected synchronously at admission
  EXPECT_EQ(r2.status, Status::kRejected);
  EXPECT_EQ(r2.reason, "queue full");
  fleet.stop(/*drain=*/true);
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_TRUE(fleet.stats().all_resolved());
}

// ---------------------------------------------------------------------------
// Intra-tenant ordering: EDF vs FIFO

/// Submit a heavy no-deadline filler to occupy the single worker, then a
/// loose-deadline request followed by a tight-deadline one. Returns
/// (queue_us of loose, queue_us of tight) — dispatch order decides them.
std::pair<double, double> ordering_probe(TenantOrder order) {
  FleetConfig fc;
  fc.workers = 1;
  fc.max_wait = 0us;  // every queued request is immediately dispatchable
  fc.idle_wait = 5ms;
  fc.order = order;
  FleetScheduler fleet(fc);
  TenantConfig cfg = tenant_cfg("t");
  cfg.max_batch = 1;  // one request per batch → dispatch order observable
  fleet.add_tenant(make_tiny_fcn(), cfg);
  Rng rng(6);
  // Heavy filler: large image through the conv net keeps the worker busy
  // while the ordered pair is enqueued.
  auto filler = fleet.submit("t", random_image(rng, 128, 128));
  // Wait until the worker has claimed the filler, so the pair below is
  // queued behind a busy worker rather than racing it.
  while (fleet.queue_depth("t") != 0) std::this_thread::yield();
  // The pair uses mid-size images so per-request service time dominates the
  // sub-millisecond submission gap between them.
  auto loose = fleet.submit("t", random_image(rng, 64, 64), Deadline::after(10s));
  auto tight = fleet.submit("t", random_image(rng, 64, 64), Deadline::after(2s));
  const Response rl = loose.get();
  const Response rt = tight.get();
  EXPECT_EQ(filler.get().status, Status::kOk);
  EXPECT_EQ(rl.status, Status::kOk);
  EXPECT_EQ(rt.status, Status::kOk);
  fleet.stop(/*drain=*/true);
  return {rl.queue_us, rt.queue_us};
}

TEST(FleetScheduler, EdfServesTightDeadlineFirst) {
  const auto [loose_queue_us, tight_queue_us] = ordering_probe(TenantOrder::kEdf);
  // EDF reorders: the tight request (submitted second) dispatches first.
  EXPECT_LT(tight_queue_us, loose_queue_us);
}

TEST(FleetScheduler, FifoPreservesArrivalOrder) {
  const auto [loose_queue_us, tight_queue_us] = ordering_probe(TenantOrder::kFifo);
  EXPECT_LT(loose_queue_us, tight_queue_us);
}

TEST(FleetScheduler, ExpiredQueuedRequestsAreShedBeforeDispatch) {
  FleetConfig fc = fleet_cfg();
  fc.workers = 1;
  FleetScheduler fleet(fc);
  fleet.add_tenant(make_tiny_fcn(), tenant_cfg("t"));
  Rng rng(8);
  // A hopeless deadline among healthy traffic: it must resolve kExpired,
  // not consume model time, and the healthy requests still serve.
  auto doomed = fleet.submit("t", random_image(rng), Deadline::after(1us));
  std::vector<std::future<Response>> healthy;
  for (int i = 0; i < 4; ++i) {
    healthy.push_back(fleet.submit("t", random_image(rng), Deadline::after(10s)));
  }
  const Response rd = doomed.get();
  EXPECT_EQ(rd.status, Status::kExpired);
  EXPECT_EQ(rd.reason, "deadline expired before dispatch");
  for (auto& f : healthy) EXPECT_EQ(f.get().status, Status::kOk);
  fleet.stop(/*drain=*/true);
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_EQ(s.tenants.at("t").expired, 1);
  EXPECT_TRUE(s.all_resolved());
}

/// Identity layer that logs the tag (element 0) of every image it runs and
/// parks an image tagged kHold until release(): a busy worker on demand.
class GateLayer final : public nn::Layer {
 public:
  static constexpr float kHold = -1.0f;

  std::string name() const override { return "gate"; }
  TensorF forward(TensorF x, bool) override { return infer(x); }
  TensorF infer(const TensorF& x) const override {
    std::unique_lock lock(mu_);
    const std::int64_t per = x.size() / x.dim(0);
    for (std::int64_t i = 0; i < x.dim(0); ++i) seen_.push_back(x[i * per]);
    if (x[0] == kHold) {
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return x;
  }
  TensorF backward(TensorF dy) override { return dy; }

  void wait_held() const {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }
  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<float> seen() const {
    std::lock_guard lock(mu_);
    return seen_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool held_ = false;
  bool released_ = false;
  mutable std::vector<float> seen_;
};

TensorF tagged_image(float tag) {
  TensorF x({2, 2, 3});
  x.fill(tag);
  return x;
}

struct QueueOrder {
  std::vector<float> dispatched;  ///< tags, in dispatch order
  std::vector<float> shed;        ///< tags, in kExpired resolution order
};

/// Holds the single worker on a gate, queues equal, earlier, later and
/// missing deadlines behind it (two of them expire while it waits), then
/// releases it. Tags are 1..9 in submit order; request ids are minted
/// 1, 2, … per fleet, so tag t is request t + 1 (the holder is 1). The shed
/// order comes from the flight recorder's serve.reject spans.
QueueOrder queue_order_probe(TenantOrder order) {
  FleetConfig fc;
  fc.workers = 1;
  fc.max_wait = 0us;
  fc.idle_wait = 5ms;
  fc.order = order;
  FleetScheduler fleet(fc);
  auto gate_owner = std::make_unique<GateLayer>();
  const GateLayer* gate = gate_owner.get();
  nn::Model m;
  m.add(std::move(gate_owner));
  TenantConfig cfg = tenant_cfg("t");
  cfg.max_batch = 1;  // one request per batch: dispatch order is exact
  fleet.add_tenant(std::move(m), cfg);

  trace::Tracer::global().enable();
  auto holder = fleet.submit("t", tagged_image(GateLayer::kHold));
  gate->wait_held();
  const Deadline early = Deadline::after(1ms);
  const Deadline mid = Deadline::after(2ms);
  const Deadline late = Deadline::after(60s);
  const Deadline later = Deadline::after(120s);
  const Deadline none = Deadline::never();
  const Deadline deadlines[9] = {later, none, mid,  late, mid,
                                 early, later, none, late};
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 9; ++i) {
    futs.push_back(fleet.submit("t", tagged_image(static_cast<float>(i + 1)),
                                deadlines[i]));
  }
  while (!mid.expired()) std::this_thread::sleep_for(1ms);
  const_cast<GateLayer*>(gate)->release();
  EXPECT_EQ(holder.get().status, Status::kOk);
  for (int i = 0; i < 9; ++i) {
    const Status want = deadlines[i].has_deadline() &&
                                deadlines[i].at() <= mid.at()
                            ? Status::kExpired
                            : Status::kOk;
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().status, want)
        << "tag " << i + 1;
  }
  fleet.stop(/*drain=*/true);
  trace::Tracer::global().disable();

  QueueOrder out;
  const std::vector<float> seen = gate->seen();
  // seen[0] is the registration prewarm (one zero image), seen[1] the
  // holder.
  EXPECT_GE(seen.size(), 2u);
  EXPECT_EQ(seen.front(), 0.0f);
  out.dispatched.assign(seen.begin() + std::min<std::size_t>(2, seen.size()),
                        seen.end());
  for (const trace::Event& e : trace::Tracer::global().events()) {
    if (e.name != "serve.reject") continue;
    for (const trace::Arg& a : e.args) {
      if (a.key == "status" && a.str == "expired") {
        out.shed.push_back(static_cast<float>(e.ctx.request_id - 1));
      }
    }
  }
  trace::Tracer::global().clear();
  EXPECT_TRUE(fleet.stats().all_resolved());
  return out;
}

TEST(FleetScheduler, EdfQueueDispatchAndShedOrderAreExact) {
#ifdef IWG_TRACE_DISABLE
  GTEST_SKIP() << "the shed order is read from the flight recorder";
#endif
  const QueueOrder q = queue_order_probe(TenantOrder::kEdf);
  // Deadline order, FIFO among equal deadlines, deadline-less last; the
  // expired prefix (earliest first) is shed before anything dispatches.
  EXPECT_EQ(q.shed, (std::vector<float>{6, 3, 5}));
  EXPECT_EQ(q.dispatched, (std::vector<float>{4, 9, 1, 7, 2, 8}));
}

TEST(FleetScheduler, FifoQueueShedsEveryExpiredRequestInArrivalOrder) {
#ifdef IWG_TRACE_DISABLE
  GTEST_SKIP() << "the shed order is read from the flight recorder";
#endif
  const QueueOrder q = queue_order_probe(TenantOrder::kFifo);
  EXPECT_EQ(q.shed, (std::vector<float>{3, 5, 6}));
  EXPECT_EQ(q.dispatched, (std::vector<float>{1, 2, 4, 7, 8, 9}));
}

// ---------------------------------------------------------------------------
// Single-model serving: one tenant on one worker, the way a one-model
// deployment runs. RequestQueue covers admission into the tenant's queue,
// Batcher the batch rule (max_wait hold, full batches, expiry shedding,
// closing), and ServingSession the request path end to end (bit parity,
// dense vs ragged dispatch, deadlines, stop with and without drain).

FleetConfig single_model_fleet(std::chrono::microseconds max_wait) {
  FleetConfig fc;
  fc.workers = 1;
  fc.max_wait = max_wait;
  fc.idle_wait = 5ms;
  return fc;
}

TenantConfig single_model(std::size_t max_batch,
                          std::size_t queue_capacity = 64) {
  TenantConfig cfg = tenant_cfg("m");
  cfg.max_batch = max_batch;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// A model that is only a GateLayer; *gate is left pointing at it.
nn::Model gate_model(GateLayer** gate) {
  auto owner = std::make_unique<GateLayer>();
  *gate = owner.get();
  nn::Model m;
  m.add(std::move(owner));
  return m;
}

TEST(RequestQueue, RejectsWhenFullWithReason) {
  // max_batch 8 never fills and the 10 s hold never lapses, so both
  // admitted requests are still queued when stop sheds them.
  FleetScheduler fleet(single_model_fleet(10s));
  fleet.add_tenant(make_tiny_fcn(),
                   single_model(/*max_batch=*/8, /*queue_capacity=*/2));
  Rng rng(20);
  auto f1 = fleet.submit("m", random_image(rng));
  auto f2 = fleet.submit("m", random_image(rng));
  auto f3 = fleet.submit("m", random_image(rng));
  // The rejected promise resolves at admission, with a reason.
  ASSERT_EQ(f3.wait_for(0s), std::future_status::ready);
  const Response r3 = f3.get();
  EXPECT_EQ(r3.status, Status::kRejected);
  EXPECT_EQ(r3.reason, "queue full");
  EXPECT_EQ(fleet.queue_depth("m"), 2u);
  fleet.stop(/*drain=*/false);
  EXPECT_EQ(f1.get().status, Status::kShutdown);
  EXPECT_EQ(f2.get().status, Status::kShutdown);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.accepted, 2);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.shed, 2);
  EXPECT_TRUE(s.all_resolved());
}

TEST(RequestQueue, ClosedQueueResolvesShutdown) {
  // A draining stop closes the queue while a held batch keeps its backlog
  // in place: a submit then resolves kShutdown at admission, and the
  // request queued before the close is still served.
  FleetScheduler fleet(single_model_fleet(0us));
  GateLayer* gate = nullptr;
  fleet.add_tenant(gate_model(&gate), single_model(/*max_batch=*/1));
  auto holder = fleet.submit("m", tagged_image(GateLayer::kHold));
  gate->wait_held();
  auto queued = fleet.submit("m", tagged_image(1.0f));
  std::thread stopper([&] { fleet.stop(/*drain=*/true); });
  while (fleet.ready()) std::this_thread::yield();  // the queue is closed
  auto late = fleet.submit("m", tagged_image(2.0f));
  // Resolved at admission, while the backlog is still queued.
  EXPECT_EQ(late.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(fleet.queue_depth("m"), 1u);
  gate->release();
  stopper.join();
  const Response r = late.get();
  EXPECT_EQ(r.status, Status::kShutdown);
  EXPECT_EQ(r.reason, "tenant closed");
  EXPECT_EQ(holder.get().status, Status::kOk);
  EXPECT_EQ(queued.get().status, Status::kOk);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.accepted, 2);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_TRUE(s.all_resolved());
}

TEST(Batcher, SingleRequestShipsAfterMaxWait) {
  FleetConfig fc = single_model_fleet(20ms);
  fc.idle_wait = 2s;  // a hang here would mean max_wait never fired
  FleetScheduler fleet(fc);
  fleet.add_tenant(make_tiny_fcn(), single_model(/*max_batch=*/4));
  Rng rng(16);
  const auto t0 = Clock::now();
  const Response r = fleet.submit("m", random_image(rng)).get();
  const auto elapsed = Clock::now() - t0;
  ASSERT_EQ(r.status, Status::kOk) << r.reason;
  EXPECT_EQ(r.batch_size, 1);
  // Not before max_wait: the hold is measured from the enqueue stamp.
  EXPECT_GE(r.queue_us, 20000.0);
  EXPECT_LT(elapsed, 1s);  // not via the idle timeout either
  fleet.stop();
}

TEST(Batcher, FillsToMaxBatchWithoutWaitingFullWindow) {
  FleetScheduler fleet(single_model_fleet(5s));  // a full wait times out
  fleet.add_tenant(make_tiny_fcn(), single_model(/*max_batch=*/3));
  Rng rng(17);
  const auto t0 = Clock::now();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(fleet.submit("m", random_image(rng)));
  for (auto& f : futs) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk) << r.reason;
    EXPECT_EQ(r.batch_size, 3);
  }
  EXPECT_LT(Clock::now() - t0, 2s);  // shipped well before max_wait
  fleet.stop();
  EXPECT_EQ(fleet.stats().total.batches, 1);
}

TEST(Batcher, ShedsExpiredDeadlinesBeforeDispatch) {
  // A deadline that lapses while queued behind a held batch resolves
  // kExpired and takes no slot in the next batch.
  FleetScheduler fleet(single_model_fleet(0us));
  GateLayer* gate = nullptr;
  fleet.add_tenant(gate_model(&gate), single_model(/*max_batch=*/2));
  auto holder = fleet.submit("m", tagged_image(GateLayer::kHold));
  gate->wait_held();
  const Deadline soon = Deadline::after(1ms);
  auto dead = fleet.submit("m", tagged_image(1.0f), soon);
  auto live = fleet.submit("m", tagged_image(2.0f));
  while (!soon.expired()) std::this_thread::sleep_for(1ms);
  gate->release();
  EXPECT_EQ(holder.get().status, Status::kOk);
  const Response dr = dead.get();
  EXPECT_EQ(dr.status, Status::kExpired);
  EXPECT_GT(dr.latency_us, 0.0);
  const Response lr = live.get();
  ASSERT_EQ(lr.status, Status::kOk) << lr.reason;
  EXPECT_EQ(lr.batch_size, 1);
  fleet.stop();
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.batches, 2);  // the holder's and the live request's
  EXPECT_TRUE(s.all_resolved());
}

TEST(Batcher, ClosedEmptyQueueReportsClosed) {
  // Closing an empty queue lets the parked worker leave at once: stop
  // returns without sitting out idle_wait, and no batch ever ran.
  FleetConfig fc = single_model_fleet(2ms);
  fc.idle_wait = 5s;  // a worker that missed the close would park this long
  FleetScheduler fleet(fc);
  fleet.add_tenant(make_tiny_fcn(), single_model(/*max_batch=*/4));
  const auto t0 = Clock::now();
  fleet.stop();
  EXPECT_LT(Clock::now() - t0, 2s);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.accepted, 0);
  EXPECT_EQ(s.batches, 0);
}

TEST(ServingSession, BatchedOutputsBitIdenticalToPerRequestForward) {
  const nn::Model reference = make_tiny_classifier(7);
  FleetScheduler fleet(single_model_fleet(2ms));
  fleet.add_tenant(make_tiny_classifier(7), single_model(/*max_batch=*/4));

  Rng rng(123);
  std::vector<TensorF> images;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 20; ++i) images.push_back(random_image(rng));
  for (const TensorF& img : images) futs.push_back(fleet.submit("m", img));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.reason;
    EXPECT_GT(r.batch_size, 0);
    EXPECT_GT(r.latency_us, 0.0);
    EXPECT_TRUE(bits_equal(r.output, infer_single(reference, images[i])))
        << "request " << i;
  }
  fleet.stop();
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.completed, 20);
  EXPECT_TRUE(s.all_resolved());
}

struct BatchRuleRun {
  FleetScheduler::Stats stats;
  int mismatches = 0;  ///< outputs that differ from batch-1 infer
};

/// Holds the single worker on a GateLayer, queues one image per entry of
/// `sizes` (hw × hw × 3) behind it, then releases it, so the backlog ships
/// in max_batch (4) chunks. The tenant model is the gate followed by
/// make_tiny_fcn()'s conv, so every output is compared with batch-1 infer
/// on make_tiny_fcn().
BatchRuleRun batch_rule_probe(const std::vector<std::int64_t>& sizes) {
  FleetScheduler fleet(single_model_fleet(0us));  // the holder ships at once
  GateLayer* gate = nullptr;
  nn::Model m = gate_model(&gate);
  {
    Rng rng(11);  // make_tiny_fcn(11)'s conv weights
    m.add(std::make_unique<nn::Conv2D>(3, 4, 3, 1, 1,
                                       nn::ConvEngine::kWinograd, rng, "c1"));
    m.add(std::make_unique<nn::LeakyReLU>());
  }
  fleet.add_tenant(std::move(m), single_model(/*max_batch=*/4));
  const nn::Model reference = make_tiny_fcn(11);

  TensorF hold({8, 8, 3});
  hold.fill(GateLayer::kHold);
  auto holder = fleet.submit("m", std::move(hold));
  gate->wait_held();
  Rng rng(18);
  std::vector<TensorF> images;
  std::vector<std::future<Response>> futs;
  for (const std::int64_t hw : sizes) {
    TensorF x({hw, hw, 3});
    x.fill_uniform(rng, -0.5f, 0.5f);  // never the kHold tag
    images.push_back(x);
    futs.push_back(fleet.submit("m", std::move(x)));
  }
  gate->release();
  EXPECT_EQ(holder.get().status, Status::kOk);
  BatchRuleRun run;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    EXPECT_EQ(r.status, Status::kOk) << r.reason;
    if (!bits_equal(r.output, infer_single(reference, images[i]))) {
      ++run.mismatches;
    }
  }
  fleet.stop();
  run.stats = fleet.stats();
  return run;
}

TEST(ServingSession, MixedShapesCoalesceIntoIndirectBatches) {
  // A/B/A/B traffic ships as ceil(n / max_batch) mixed-shape dispatches —
  // not a batch-1 ping-pong — each bitwise equal to batch-1 infer.
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < 12; ++i) sizes.push_back(i % 2 == 0 ? 8 : 6);
  const BatchRuleRun run = batch_rule_probe(sizes);
  EXPECT_EQ(run.mismatches, 0);
  EXPECT_TRUE(run.stats.all_resolved());
  EXPECT_EQ(run.stats.total.completed, 13);  // the holder + 12
  EXPECT_LE(run.stats.total.batches, 1 + 3);  // the holder's + ceil(12 / 4)
  EXPECT_GE(run.stats.total.indirect_batches, 1);
}

TEST(ServingSession, ShapeIdenticalRunStillShipsDenseUnderIndirectPolicy) {
  const BatchRuleRun run = batch_rule_probe(std::vector<std::int64_t>(12, 8));
  EXPECT_EQ(run.mismatches, 0);
  EXPECT_TRUE(run.stats.all_resolved());
  EXPECT_EQ(run.stats.total.completed, 13);
  EXPECT_LE(run.stats.total.batches, 1 + 3);
  EXPECT_EQ(run.stats.total.indirect_batches, 0);  // one shape → dense only
}

TEST(ServingSession, StopWithoutDrainUnderMixedTrafficResolvesEveryFuture) {
  // A 200 ms hold keeps some of the mixed-shape backlog queued at stop:
  // it is shed, never leaked.
  FleetScheduler fleet(single_model_fleet(200ms));
  fleet.add_tenant(make_tiny_fcn(), single_model(/*max_batch=*/4));
  Rng rng(14);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 24; ++i) {
    const std::int64_t s = (i % 3 == 0) ? 6 : ((i % 3 == 1) ? 8 : 10);
    futs.push_back(fleet.submit("m", random_image(rng, s, s)));
  }
  fleet.stop(/*drain=*/false);
  int ok = 0, shut = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "unresolved future";
    const Response r = f.get();
    ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown);
    (r.status == Status::kOk ? ok : shut)++;
  }
  EXPECT_EQ(ok + shut, 24);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.shed, shut);
  EXPECT_TRUE(s.all_resolved());
}

TEST(ServingSession, DrainServesParkedMixedTraffic) {
  // A draining stop serves mixed-shape requests still held open under a
  // 500 ms max_wait.
  FleetScheduler fleet(single_model_fleet(500ms));
  fleet.add_tenant(make_tiny_fcn(), single_model(/*max_batch=*/8));
  Rng rng(15);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t s = (i % 2 == 0) ? 8 : 6;
    futs.push_back(fleet.submit("m", random_image(rng, s, s)));
  }
  fleet.stop(/*drain=*/true);
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.completed, 5);
  EXPECT_TRUE(s.all_resolved());
}

TEST(ServingSession, FullQueueRejectsAtAdmission) {
  // The worker holds the batch open (500 ms, max_batch 8), so a burst of
  // 12 overflows a 4-deep queue.
  FleetScheduler fleet(single_model_fleet(500ms));
  fleet.add_tenant(make_tiny_classifier(),
                   single_model(/*max_batch=*/8, /*queue_capacity=*/4));
  Rng rng(9);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(fleet.submit("m", random_image(rng)));
  int ok = 0, rejected = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kRejected) {
      ++rejected;
      EXPECT_EQ(r.reason, "queue full");
    }
  }
  EXPECT_EQ(ok + rejected, 12);
  EXPECT_GE(rejected, 1);
  fleet.stop();
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_TRUE(s.all_resolved());
}

TEST(ServingSession, DeadlineExpiredWhileBatchHeldOpenIsShed) {
  // max_batch 8 never fills, so the batch is held 50 ms; the 5 ms
  // deadline lapses first.
  FleetScheduler fleet(single_model_fleet(50ms));
  fleet.add_tenant(make_tiny_classifier(), single_model(/*max_batch=*/8));
  Rng rng(10);
  const Response r =
      fleet.submit("m", random_image(rng), Deadline::after(5ms)).get();
  EXPECT_EQ(r.status, Status::kExpired);
  fleet.stop();
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.expired, 1);
  EXPECT_TRUE(s.all_resolved());
}

TEST(ServingSession, StopWithDrainServesEverythingQueued) {
  FleetScheduler fleet(single_model_fleet(20ms));
  fleet.add_tenant(make_tiny_classifier(), single_model(/*max_batch=*/4));
  Rng rng(11);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(fleet.submit("m", random_image(rng)));
  fleet.stop(/*drain=*/true);
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.completed, 16);
  EXPECT_TRUE(s.all_resolved());
}

TEST(ServingSession, StopWithoutDrainResolvesEveryFuture) {
  FleetScheduler fleet(single_model_fleet(1ms));
  fleet.add_tenant(make_tiny_classifier(), single_model(/*max_batch=*/2));
  Rng rng(12);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(fleet.submit("m", random_image(rng)));
  fleet.stop(/*drain=*/false);  // in-flight batches finish; the queue is shed
  int ok = 0, shut = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "unresolved future";
    const Response r = f.get();
    ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown);
    (r.status == Status::kOk ? ok : shut)++;
  }
  EXPECT_EQ(ok + shut, 32);
  const FleetScheduler::TenantStats s = fleet.stats().total;
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.shed, shut);
  EXPECT_TRUE(s.all_resolved());
  // Idempotent: stopping again (and the destructor after that) is a no-op.
  fleet.stop();
}

TEST(ServingSession, SubmitAfterStopResolvesShutdown) {
  FleetScheduler fleet(single_model_fleet(2ms));
  fleet.add_tenant(make_tiny_classifier(), single_model(/*max_batch=*/4));
  fleet.stop();
  Rng rng(13);
  const Response r = fleet.submit("m", random_image(rng)).get();
  EXPECT_EQ(r.status, Status::kShutdown);
}

// ---------------------------------------------------------------------------
// A request the model throws on fails alone

TEST(FleetScheduler, ThrowingRequestResolvesErrorAndBatchMatesServe) {
  FleetConfig fc = fleet_cfg();
  fc.workers = 1;
  fc.max_wait = 10s;  // the batch ships when all four are queued
  FleetScheduler fleet(fc);
  TenantConfig cfg = tenant_cfg("cls");
  cfg.max_batch = 4;
  fleet.add_tenant(make_tiny_classifier(/*seed=*/41), cfg);
  const nn::Model offline = make_tiny_classifier(/*seed=*/41);
  Rng rng(42);
  // A channel-valid 12×12 image passes admission, but the classifier's
  // Flatten → Linear head fixes the input at 8×8: its shape check throws
  // inside the mixed (ragged) batch on the worker.
  std::vector<TensorF> imgs = {random_image(rng), random_image(rng),
                               random_image(rng, 12, 12), random_image(rng)};
  std::vector<std::future<Response>> futs;
  for (const TensorF& img : imgs) futs.push_back(fleet.submit("cls", img));
  for (std::size_t i = 0; i < imgs.size(); ++i) {
    const Response r = futs[i].get();
    if (i == 2) {
      EXPECT_EQ(r.status, Status::kError);
      EXPECT_FALSE(r.reason.empty());
      EXPECT_TRUE(r.output.empty());
      continue;
    }
    ASSERT_EQ(r.status, Status::kOk) << "request " << i << ": " << r.reason;
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_TRUE(bits_equal(r.output, infer_single(offline, imgs[i])))
        << "request " << i;
  }
  // The worker survived and keeps serving (the draining stop ships the
  // lone request without waiting out max_wait).
  const TensorF after = random_image(rng);
  auto fa = fleet.submit("cls", after);
  fleet.stop(/*drain=*/true);
  const Response ra = fa.get();
  ASSERT_EQ(ra.status, Status::kOk);
  EXPECT_TRUE(bits_equal(ra.output, infer_single(offline, after)));
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_EQ(s.tenants.at("cls").errors, 1);
  EXPECT_EQ(s.tenants.at("cls").completed, 4);
  EXPECT_EQ(s.total.errors, 1);
  EXPECT_TRUE(s.all_resolved());
}

// ---------------------------------------------------------------------------
// Weighted-fair dequeue

TEST(FleetScheduler, WeightedFairSharesTrackWeightsUnderBacklog) {
  FleetConfig fc;
  fc.workers = 2;
  fc.max_wait = 0us;  // dispatch as fast as batches assemble
  fc.idle_wait = 5ms;
  FleetScheduler fleet(fc);
  const double weights[3] = {4.0, 2.0, 1.0};
  const char* ids[3] = {"gold", "silver", "bronze"};
  for (int t = 0; t < 3; ++t) {
    TenantConfig cfg = tenant_cfg(ids[t], weights[t]);
    cfg.max_batch = 4;
    cfg.queue_capacity = 1024;
    fleet.add_tenant(make_tiny_fcn(static_cast<unsigned>(20 + t)), cfg);
  }
  // Saturate every tenant queue, then measure shares over a window that
  // starts only after the backlog exists (excludes the ramp during which
  // only the first tenant had traffic).
  Rng rng(9);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 900; ++i) {
    for (int t = 0; t < 3; ++t) {
      futs.push_back(fleet.submit(ids[t], random_image(rng)));
    }
  }
  std::int64_t base[3];
  std::int64_t base_total = 0;
  {
    const FleetScheduler::Stats s0 = fleet.stats();
    for (int t = 0; t < 3; ++t) {
      base[t] = s0.tenants.count(ids[t]) ? s0.tenants.at(ids[t]).completed : 0;
      base_total += base[t];
    }
  }
  for (;;) {
    const FleetScheduler::Stats s = fleet.stats();
    std::int64_t total = 0;
    for (int t = 0; t < 3; ++t) total += s.tenants.at(ids[t]).completed;
    if (total - base_total >= 420) break;
    std::this_thread::sleep_for(1ms);
  }
  fleet.stop(/*drain=*/false);  // freeze the window; remainder sheds
  const FleetScheduler::Stats s = fleet.stats();
  std::int64_t window[3];
  std::int64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    window[t] = s.tenants.at(ids[t]).completed - base[t];
    total += window[t];
  }
  ASSERT_GT(total, 0);
  for (int t = 0; t < 3; ++t) {
    const double share = static_cast<double>(window[t]) / static_cast<double>(total);
    const double expect = weights[t] / 7.0;
    // The bench gates 15%; the unit test allows 25% relative deviation to
    // stay robust on loaded CI machines.
    EXPECT_NEAR(share, expect, 0.25 * expect)
        << ids[t] << " share " << share << " vs weight share " << expect;
  }
  EXPECT_TRUE(s.all_resolved());
}

// ---------------------------------------------------------------------------
// Hot weight swap under live traffic

TEST(FleetScheduler, HotSwapUnderTrafficZeroDropsMonotoneVersions) {
  const std::string path_a = temp_path("iwg_fleet_hot_a.iwgw");
  const std::string path_b = temp_path("iwg_fleet_hot_b.iwgw");
  nn::Model model_a = make_tiny_classifier(/*seed=*/31);
  nn::Model model_b = make_tiny_classifier(/*seed=*/32);
  nn::save_weights(model_a, path_a);
  nn::save_weights(model_b, path_b);

  // One fixed input: every kOk response must bit-match the reference output
  // of weights A or weights B — a torn weight state or a stale transform
  // cache hit would produce a third bit pattern.
  Rng rng(10);
  const TensorF img = random_image(rng);
  const TensorF ref_a = infer_single(model_a, img);
  const TensorF ref_b = infer_single(model_b, img);
  ASSERT_FALSE(bits_equal(ref_a, ref_b));

  FleetConfig fc = fleet_cfg();
  fc.workers = 2;
  FleetScheduler fleet(fc);
  TenantConfig hot_cfg = tenant_cfg("hot");
  hot_cfg.queue_capacity = 4096;  // zero-drop assertion needs zero rejects
  fleet.add_tenant(make_tiny_classifier(/*seed=*/31), hot_cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 60;
  std::vector<std::vector<std::future<Response>>> futs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = futs[static_cast<std::size_t>(c)];
      mine.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        TensorF copy = img;
        mine.push_back(fleet.submit("hot", std::move(copy)));
        if (i % 16 == 15) std::this_thread::sleep_for(500us);
      }
    });
  }
  // Concurrent swaps while the clients hammer the tenant.
  constexpr int kSwaps = 8;
  std::uint64_t versions[kSwaps];
  for (int sw = 0; sw < kSwaps; ++sw) {
    versions[sw] =
        fleet.swap_weights("hot", (sw % 2 == 0) ? path_b : path_a);
    std::this_thread::sleep_for(1ms);
  }
  for (auto& t : clients) t.join();

  std::int64_t ok = 0;
  for (auto& per_client : futs) {
    for (auto& f : per_client) {
      const Response r = f.get();
      ASSERT_EQ(r.status, Status::kOk) << r.reason;  // zero drops/failures
      EXPECT_TRUE(bits_equal(r.output, ref_a) || bits_equal(r.output, ref_b));
      ++ok;
    }
  }
  EXPECT_EQ(ok, kClients * kPerClient);
  for (int sw = 1; sw < kSwaps; ++sw) {
    EXPECT_GT(versions[sw], versions[sw - 1]);  // monotone Param::version
  }
  EXPECT_EQ(fleet.registry().find("hot")->weight_epoch.load(),
            static_cast<std::uint64_t>(kSwaps));

  // After the final swap (sw = 7, odd → weights A), a fresh request must
  // match weights A exactly — no stale ĝ survives the version bump.
  TensorF last = img;
  const Response r = fleet.submit("hot", std::move(last)).get();
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_TRUE(bits_equal(r.output, ref_a));

  fleet.stop(/*drain=*/true);
  EXPECT_TRUE(fleet.stats().all_resolved());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// Deregistration mid-traffic: every future still resolves

TEST(FleetScheduler, RemoveTenantWithDrainServesBacklog) {
  FleetConfig fc = fleet_cfg();
  FleetScheduler fleet(fc);
  fleet.add_tenant(make_tiny_fcn(1), tenant_cfg("keep"));
  fleet.add_tenant(make_tiny_fcn(2), tenant_cfg("gone"));
  Rng rng(12);
  std::vector<std::future<Response>> gone_futs, keep_futs;
  for (int i = 0; i < 24; ++i) {
    gone_futs.push_back(fleet.submit("gone", random_image(rng)));
    keep_futs.push_back(fleet.submit("keep", random_image(rng)));
  }
  ASSERT_TRUE(fleet.remove_tenant("gone", /*drain=*/true));
  EXPECT_EQ(fleet.tenant_count(), 1u);
  for (auto& f : gone_futs) EXPECT_EQ(f.get().status, Status::kOk);
  // Submits after deregistration resolve immediately (unknown tenant).
  const Response late = fleet.submit("gone", random_image(rng)).get();
  EXPECT_EQ(late.status, Status::kRejected);
  EXPECT_EQ(late.reason, "unknown tenant");
  // The surviving tenant is unaffected.
  for (auto& f : keep_futs) EXPECT_EQ(f.get().status, Status::kOk);
  fleet.stop(/*drain=*/true);
  const FleetScheduler::Stats s = fleet.stats();
  EXPECT_TRUE(s.all_resolved());
  EXPECT_EQ(s.tenants.at("gone").completed, 24);
}

TEST(FleetScheduler, RemoveTenantWithoutDrainResolvesQueuedShutdown) {
  FleetConfig fc = fleet_cfg();
  fc.workers = 1;
  fc.max_wait = 500ms;  // short batches park; the backlog persists
  FleetScheduler fleet(fc);
  TenantConfig cfg = tenant_cfg("gone");
  cfg.max_batch = 64;  // never fills → nothing dispatches before max_wait
  fleet.add_tenant(make_tiny_fcn(), cfg);
  Rng rng(13);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(fleet.submit("gone", random_image(rng)));
  ASSERT_TRUE(fleet.remove_tenant("gone", /*drain=*/false));
  EXPECT_FALSE(fleet.remove_tenant("gone", /*drain=*/false));
  int ok = 0, shutdown = 0;
  for (auto& f : futs) {
    const Response r = f.get();  // every future resolves promptly
    if (r.status == Status::kOk) {
      ++ok;  // a worker may have claimed a batch before the removal
    } else {
      ASSERT_EQ(r.status, Status::kShutdown);
      EXPECT_EQ(r.reason, "tenant deregistered");
      ++shutdown;
    }
  }
  EXPECT_EQ(ok + shutdown, 8);
  EXPECT_GT(shutdown, 0);
  fleet.stop();
  EXPECT_TRUE(fleet.stats().all_resolved());
}

TEST(FleetScheduler, StopWithoutDrainResolvesEveryFuture) {
  FleetConfig fc = fleet_cfg();
  fc.workers = 1;
  fc.max_wait = 200ms;
  FleetScheduler fleet(fc);
  fleet.add_tenant(make_tiny_fcn(1), tenant_cfg("a"));
  fleet.add_tenant(make_tiny_fcn(2), tenant_cfg("b"));
  Rng rng(14);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(fleet.submit(i % 2 == 0 ? "a" : "b", random_image(rng)));
  }
  fleet.stop(/*drain=*/false);
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready);
    const Response r = f.get();
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown);
  }
  EXPECT_TRUE(fleet.stats().all_resolved());
  // Submits after stop resolve synchronously.
  const Response late = fleet.submit("a", random_image(rng)).get();
  EXPECT_EQ(late.status, Status::kShutdown);
}

// ---------------------------------------------------------------------------
// Deterministic SLO burn-rate replay: a scripted traffic trace is written
// into the per-tenant serve metrics (the exact families a FleetScheduler
// maintains) and the SloMonitor is ticked through the registry-read path.
// One tenant's injected deadline misses must trip warn then page, in that
// order, on deterministic ticks; the clean tenants must never leave ok.
TEST(FleetScheduler, BurnRateReplayTripsWarnThenPageForOneTenant) {
  trace::ResetGuard metrics_guard;
  auto& reg = trace::MetricsRegistry::global();

  obs::SloConfig cfg;
  cfg.miss_budget = 0.05;  // 5% error budget
  cfg.fast_intervals = 3;
  cfg.slow_intervals = 6;
  cfg.warn_burn = 1.0;
  cfg.page_burn = 2.0;
  cfg.escalate_after = 2;
  cfg.clear_after = 2;
  obs::SloMonitor mon(cfg);

  const std::vector<std::string> tenants = {"replay.gold", "replay.silver",
                                            "replay.bronze"};
  // One replay interval: `completed` outcomes at `lat_us` each, `missed` of
  // them past deadline — written exactly as FleetScheduler::run_model_batch
  // accounts them.
  const auto emit = [&reg](const std::string& id, int completed, int missed,
                           double lat_us) {
    const std::string p = "serve.tenant." + id + ".";
    reg.counter(p + "completed").add(completed);
    reg.counter(p + "deadline_missed").add(missed);
    auto& lat = reg.histogram(p + "latency_us");
    for (int i = 0; i < completed; ++i) lat.record(lat_us);
  };

  mon.poll_registry(tenants);  // baseline tick at zero

  // Scripted trace, 8 intervals of 100 requests per tenant. Bronze misses
  // 20% in intervals 4–5 and 100% from interval 6 on; gold/silver stay
  // clean. Expected bronze states (fast window = 3 intervals):
  //   t4: fast 20/300 → burn 1.33 → warn level, streak 1      → still ok
  //   t5: fast 40/300 → burn 2.67 ≥ page, slow confirms, but the streak
  //       carries the lowest sustained level                   → WARN
  //   t6: fast 140/300 → burn 9.3, page level, streak 1        → still warn
  //   t7: fast 220/300 → burn 14.7, page sustained             → PAGE
  const std::vector<int> bronze_misses = {0, 0, 0, 20, 20, 100, 100, 100};
  const std::vector<obs::AlertState> expect_bronze = {
      obs::AlertState::kOk,   obs::AlertState::kOk,
      obs::AlertState::kOk,   obs::AlertState::kOk,
      obs::AlertState::kWarn, obs::AlertState::kWarn,
      obs::AlertState::kPage, obs::AlertState::kPage};
  for (std::size_t t = 0; t < bronze_misses.size(); ++t) {
    emit("replay.gold", 100, 0, 800.0);
    emit("replay.silver", 100, 0, 900.0);
    emit("replay.bronze", 100, bronze_misses[t], 2500.0);
    EXPECT_EQ(mon.observe_from_registry("replay.gold"), obs::AlertState::kOk)
        << "tick " << t;
    EXPECT_EQ(mon.observe_from_registry("replay.silver"), obs::AlertState::kOk)
        << "tick " << t;
    EXPECT_EQ(mon.observe_from_registry("replay.bronze"), expect_bronze[t])
        << "tick " << t;
  }

  // The transitions were counted once each, exported as counters, and the
  // clean tenants never transitioned at all.
  const obs::SloMonitor::TenantStatus bronze = mon.status("replay.bronze");
  EXPECT_EQ(bronze.state, obs::AlertState::kPage);
  EXPECT_EQ(bronze.warn_transitions, 1);
  EXPECT_EQ(bronze.page_transitions, 1);
  EXPECT_EQ(bronze.clear_transitions, 0);
  EXPECT_GT(bronze.fast.p99_us, 2000.0);  // windowed quantiles track bronze
  for (const char* clean : {"replay.gold", "replay.silver"}) {
    const obs::SloMonitor::TenantStatus s = mon.status(clean);
    EXPECT_EQ(s.state, obs::AlertState::kOk) << clean;
    EXPECT_EQ(s.warn_transitions + s.page_transitions, 0) << clean;
  }
  EXPECT_EQ(reg.counter("obs.slo.transitions.warn").value(), 1);
  EXPECT_EQ(reg.counter("obs.slo.transitions.page").value(), 1);

  // The alert surface agrees with the replay outcome.
  const std::string json = mon.alertz_json();
  EXPECT_NE(json.find("\"replay.bronze\":{\"state\":\"page\""),
            std::string::npos);
  EXPECT_NE(json.find("\"replay.gold\":{\"state\":\"ok\""), std::string::npos);
}

}  // namespace
}  // namespace iwg::serve
