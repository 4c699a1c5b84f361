// Observability: a low-overhead scoped-span tracer and a process-wide
// metrics registry.
//
// The tracer records completed spans (Chrome trace-event "X" phases) into a
// bounded, mutex-protected ring buffer and exports them as Chrome
// trace-event JSON loadable in chrome://tracing or Perfetto. Spans nest
// naturally (nesting is reconstructed from time containment per thread) and
// carry typed key/value args, which is how the conv paths attach kernel
// variant, α, segment extents, and the analytic t_compute/t_dram/t_l2/t_smem
// resource split to every segment they execute.
//
// Cost discipline: when tracing is disabled (the default), a span is one
// relaxed atomic load plus a thread-local read — bench/observability_overhead
// proves this costs < 1% on a conv2d loop. Defining IWG_TRACE_DISABLE
// compiles the IWG_TRACE_SCOPE/IWG_TRACE_SPAN macro sites away entirely.
//
// The metrics registry holds named monotonic counters (lock-free atomic
// adds, safe under parallel_for) and exact lock-free log2-bucket value
// histograms. Objects returned by counter()/histogram() have stable
// addresses for the life of the process, so hot paths cache references.
// reset() zeroes values but never invalidates those references.
//
// The tracer also acts as a request-scoped flight recorder: a thread-local
// trace::Context (trace_id/request_id) is inherited by every span opened
// while a ContextScope is alive, and chrome_json() emits Perfetto flow
// events ("s"/"t"/"f") chaining a request's spans across threads — the
// serving path carries the Context in the Request from the client thread
// through the fleet's tenant queue to the worker explicitly, so one
// request's enqueue → dispatch → complete renders as arrows in the trace
// viewer.
//
// The registry has both a human text report and a Prometheus text
// exposition.
//
// Environment wiring (read once, at first use or via init_from_env()):
//   IWG_TRACE=trace.json       enable tracing; write Chrome JSON at exit
//   IWG_METRICS=-              print the metrics text report to stderr at exit
//   IWG_METRICS=path.txt       … or write it to a file
//   IWG_METRICS_PROM=path.prom write the Prometheus exposition to a file
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace iwg::trace {

/// One span argument, rendered under "args" in the trace viewer.
struct Arg {
  enum class Kind : std::uint8_t { kString, kDouble, kInt };
  std::string key;
  Kind kind = Kind::kString;
  std::string str;
  double num = 0.0;
  std::int64_t inum = 0;
};

// ---------------------------------------------------------------------------
// Request-scoped context (the Dapper-style propagation unit).

/// Identity a span inherits from the request being served. A nonzero
/// trace_id groups every span that worked on one request, across threads;
/// chrome_json() turns each group into a Perfetto flow ("s"/"t"/"f" events)
/// so the enqueue → batch → complete path renders as arrows.
struct Context {
  std::uint64_t trace_id = 0;  ///< 0 = no context (plain span)
  std::uint64_t request_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// The context spans on this thread currently inherit (invalid by default).
Context current_context();

/// Process-unique nonzero flow id for a new request.
std::uint64_t new_trace_id();

/// RAII: install `ctx` as this thread's current context. The serving layer
/// hands a request's Context across the queue/batcher/worker boundary
/// explicitly (it rides in serve::Request) and re-installs it with this
/// scope wherever work happens on the request's behalf; every span opened
/// underneath — nn layers, conv segments, sim launches — inherits it.
class ContextScope {
 public:
  explicit ContextScope(Context ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context prev_;
};

/// One completed span.
struct Event {
  std::string name;
  std::string cat;
  double ts_us = 0.0;  ///< start, microseconds since the tracer epoch
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  Context ctx;  ///< inherited request context (may be invalid)
  std::vector<Arg> args;
};

/// Thread-safe ring buffer of spans with Chrome trace-event JSON export.
class Tracer {
 public:
  /// Process-wide tracer. The first call also reads IWG_TRACE/IWG_METRICS
  /// and registers the at-exit writers when either is set.
  static Tracer& global();

  /// Start recording. `capacity` bounds resident events; the ring keeps the
  /// most recent ones and counts the rest as dropped. Clears prior events.
  void enable(std::int64_t capacity = kDefaultCapacity);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// enabled() and not suppressed on this thread — the span-emission gate.
  bool active() const;

  void clear();
  void record(Event&& e);
  /// Resident events in chronological (record) order.
  std::vector<Event> events() const;
  std::int64_t recorded() const;  ///< total since enable()/clear()
  std::int64_t dropped() const;   ///< recorded() minus resident

  /// Chrome trace-event JSON ("traceEvents" array of "X" spans, plus the
  /// metrics registry's counters as "C" counter events when requested).
  std::string chrome_json(bool include_metrics = true) const;
  void write_chrome_trace(const std::string& path,
                          bool include_metrics = true) const;

  double now_us() const;
  /// Small dense id per OS thread (Chrome "tid").
  static std::uint32_t thread_id();

  static constexpr std::int64_t kDefaultCapacity = 1 << 16;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::int64_t capacity_ = kDefaultCapacity;
  std::int64_t total_ = 0;  ///< recorded since enable()/clear()
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: records one Event over its lifetime when the tracer is
/// active at construction. All methods are no-ops otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "iwg");
  explicit ScopedSpan(const std::string& name, const char* cat = "iwg");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }

  ScopedSpan& arg(const char* key, const char* value);
  ScopedSpan& arg(const char* key, const std::string& value);
  ScopedSpan& arg(const char* key, double value);
  ScopedSpan& arg(const char* key, std::int64_t value);
  ScopedSpan& arg(const char* key, int value) {
    return arg(key, static_cast<std::int64_t>(value));
  }

 private:
  bool active_ = false;
  double start_us_ = 0.0;
  Event ev_;
};

/// Compile-time-disabled stand-in for ScopedSpan (IWG_TRACE_DISABLE).
struct NullSpan {
  constexpr bool active() const { return false; }
  template <typename K, typename V>
  NullSpan& arg(K&&, V&&) {
    return *this;
  }
};

/// Suppress span recording on this thread while alive (nestable). This is
/// what ConvOptions::trace = false / TrainConfig::trace = false use: the
/// tracer stays globally enabled but the guarded call emits nothing.
class Suppress {
 public:
  Suppress();
  ~Suppress();
  Suppress(const Suppress&) = delete;
  Suppress& operator=(const Suppress&) = delete;
};

// ---------------------------------------------------------------------------
// Metrics registry.

/// Monotonic counter; add() is a relaxed atomic — race-free and cheap
/// enough to leave always-on in hot paths.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Lock-free fixed-log2-bucket value histogram.
///
/// Bucket i counts values v with 2^(i+kMinExp) <= v < 2^(i+1+kMinExp)
/// (bucket 0 additionally absorbs everything below its lower edge,
/// including zero and negatives; the last bucket is open above). Counts
/// stay *exact* for the life of the process — a long-running server never
/// silently degrades its percentiles — and two snapshots merge by
/// bucket-wise addition, so per-shard histograms aggregate losslessly. Quantiles come from linear interpolation inside
/// the covering bucket, clamped to the observed [min, max].
///
/// record() is a handful of relaxed atomics (no mutex, no allocation):
/// cheap enough for per-request serving paths and safe under parallel_for.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -16;  ///< bucket 0 lower edge = 2^-16

  void record(double v);

  /// Lower/upper edge of bucket i (lo(0) = 0 for reporting purposes).
  static double bucket_lo(int i);
  static double bucket_hi(int i);
  static int bucket_index(double v);

  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::int64_t, kBuckets> buckets{};

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Interpolated value at quantile q in [0, 1].
    double quantile(double q) const;
    /// Bucket-wise merge (counts add; min/max/sum combine).
    void merge(const Snapshot& o);
    /// Bucket-wise difference: the values recorded between `prev` (an
    /// earlier snapshot of the SAME histogram) and this one. This is the
    /// windowed-metrics primitive — a monitor that snapshots on an
    /// interval gets an exact per-interval histogram by delta, and merges
    /// consecutive deltas back into rolling windows. The window's true
    /// min/max are not recoverable from cumulative extremes, so delta()
    /// reports the tightest provable bounds: the occupied delta buckets'
    /// edges, clamped to the cumulative [min, max].
    Snapshot delta(const Snapshot& prev) const;
  };
  Snapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};  ///< CAS-accumulated
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

/// Process-wide named metrics. counter()/histogram() create on first use and
/// return references that stay valid for the life of the process.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Snapshot snapshot() const;  ///< sorted by name

  /// Human-readable report of every counter and histogram.
  std::string text_report() const;

  /// Prometheus text exposition (version 0.0.4): counters as `counter`,
  /// histograms as `histogram` with cumulative `_bucket{le="..."}` lines
  /// plus `_sum`/`_count`. Metric names are sanitized to [a-zA-Z0-9_:]
  /// (dots become underscores).
  /// Registry names following the `serve.tenant.<id>.<rest>` convention
  /// are exported as ONE family per <rest> with the tenant id as a proper
  /// label — `serve_tenant_<rest>{tenant="<id>"} value` — grouped under a
  /// single `# TYPE` line, so PromQL can sum/rate across tenants. Every
  /// family gets a `# HELP` line (set_help text when registered, a generic
  /// one otherwise), and the page leads with two synthesized gauges:
  /// `iwg_build_info{isa="...",trace="on|off"} 1` (labels from
  /// set_build_label plus the compile-time tracing mode) and
  /// `iwg_process_uptime_seconds`. A scraper pointed at the
  /// IWG_METRICS_PROM file — or at obs::AdminServer's /metrics endpoint —
  /// gets standard scrape-able telemetry.
  std::string prometheus_text() const;

  /// Attach `# HELP` text to the metric family `name` maps into (the raw
  /// registry name and its per-tenant variants map to one family). Families
  /// without registered help get a generic line.
  void set_help(const std::string& name, const std::string& help);

  /// Publish one label on the iwg_build_info gauge (e.g. the host-kernel
  /// dispatcher publishes isa="avx2" when it resolves the table).
  void set_build_label(const std::string& key, const std::string& value);

  /// Zero every metric. Registered objects survive (references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;         ///< family base → text
  std::map<std::string, std::string> build_info_;  ///< label key → value
};

/// Scoped exact-value isolation for tests: zeroes every registry metric on
/// construction AND on destruction, so a test case that asserts exact
/// counter values neither inherits counts from earlier cases in the same
/// binary nor leaks its own into later ones. Registered objects (and cached
/// references) survive — only values are cleared.
class ResetGuard {
 public:
  ResetGuard() { MetricsRegistry::global().reset(); }
  ~ResetGuard() { MetricsRegistry::global().reset(); }
  ResetGuard(const ResetGuard&) = delete;
  ResetGuard& operator=(const ResetGuard&) = delete;
};

/// Maps a metric name onto the Prometheus charset [a-zA-Z0-9_:] (anything
/// else becomes '_'; a leading digit gets a '_' prefix).
std::string sanitize_metric_name(const std::string& name);

/// Read IWG_TRACE / IWG_METRICS once and register the at-exit writers.
/// Implicit in Tracer::global(); call early in a driver to be explicit.
void init_from_env();

/// Set/override the report output paths programmatically (same semantics as
/// IWG_TRACE / IWG_METRICS / IWG_METRICS_PROM; empty string disables that
/// output; metrics path "-" writes to stderr). Enables the tracer when a
/// trace path is given and registers the at-exit writers, so a long-running
/// server can configure reporting without touching the environment.
void set_report_paths(const std::string& trace_path,
                      const std::string& metrics_path,
                      const std::string& prometheus_path = "");

/// Write the trace JSON and metrics report to their configured outputs
/// *now*, atomically replacing the previous flush (write-to-temp + rename).
/// The at-exit writer only helps processes that exit; a serving process that
/// runs for days — or dies on a signal — needs periodic explicit flushes,
/// which is what the serving loop's flush hook calls. Thread-safe;
/// concurrent flushes serialize. Returns false if nothing is configured.
bool flush_report();

}  // namespace iwg::trace

// ---------------------------------------------------------------------------
// Span macros. IWG_TRACE_SCOPE drops an anonymous span; IWG_TRACE_SPAN names
// the span variable so call sites can attach args. With IWG_TRACE_DISABLE
// both compile to nothing (NullSpan is an empty object the optimizer
// removes).

#define IWG_TRACE_CONCAT_INNER(a, b) a##b
#define IWG_TRACE_CONCAT(a, b) IWG_TRACE_CONCAT_INNER(a, b)

#ifdef IWG_TRACE_DISABLE
#define IWG_TRACE_SCOPE(...) \
  [[maybe_unused]] ::iwg::trace::NullSpan IWG_TRACE_CONCAT(iwg_span_, __LINE__)
#define IWG_TRACE_SPAN(var, ...) [[maybe_unused]] ::iwg::trace::NullSpan var
#else
#define IWG_TRACE_SCOPE(...)                 \
  [[maybe_unused]] ::iwg::trace::ScopedSpan \
      IWG_TRACE_CONCAT(iwg_span_, __LINE__)(__VA_ARGS__)
#define IWG_TRACE_SPAN(var, ...) ::iwg::trace::ScopedSpan var(__VA_ARGS__)
#endif
