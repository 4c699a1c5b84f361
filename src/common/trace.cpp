#include "common/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <locale>
#include <sstream>
#include <string_view>

#include "common/check.hpp"

namespace iwg::trace {

namespace {

thread_local int g_suppress_depth = 0;
thread_local Context g_context;  // inherited by spans opened on this thread

// Report output targets, set by init_from_env or set_report_paths (atexit
// handlers must be capture-less, so these live at namespace scope). The
// mutex serializes path mutation and report writing: a periodic flusher
// thread, a caller of flush_report(), and the at-exit writer may all race.
std::mutex g_report_mu;
std::string g_trace_path;
std::string g_metrics_path;
std::string g_prom_path;
bool g_exit_writer_registered = false;

/// Writes `body` to `path` via temp+rename ("-" -> stderr). Returns success.
bool write_text_report(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::fputs(body.c_str(), stderr);
    return true;
  }
  // Temp + rename so a reader (or a crash mid-write) never sees a
  // truncated report — flush_report may run every few seconds for the
  // life of a serving process.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (out.good()) out << body;
  out.close();
  return out.good() && std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Writes the configured reports. Caller holds g_report_mu.
bool write_reports_locked(bool quiet) {
  bool wrote = false;
  if (!g_trace_path.empty()) {
    try {
      Tracer::global().write_chrome_trace(g_trace_path);
      if (!quiet) {
        std::fprintf(stderr, "iwg: wrote trace to %s\n", g_trace_path.c_str());
      }
      wrote = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "iwg: trace write failed: %s\n", e.what());
    }
  }
  if (!g_metrics_path.empty()) {
    const std::string report = MetricsRegistry::global().text_report();
    wrote = write_text_report(g_metrics_path, report) || wrote;
  }
  if (!g_prom_path.empty()) {
    const std::string page = MetricsRegistry::global().prometheus_text();
    wrote = write_text_report(g_prom_path, page) || wrote;
  }
  return wrote;
}

void write_exit_reports() {
  std::lock_guard lock(g_report_mu);
  write_reports_locked(/*quiet=*/false);
}

void register_exit_writer_locked() {
  if (!g_exit_writer_registered) {
    g_exit_writer_registered = true;
    std::atexit(write_exit_reports);
  }
}

void init_from_env_once(Tracer* tracer) {
  static std::once_flag once;
  std::call_once(once, [tracer] {
    std::lock_guard lock(g_report_mu);
    const char* tp = std::getenv("IWG_TRACE");
    if (tp != nullptr && tp[0] != '\0') {
      g_trace_path = tp;
      tracer->enable();
    }
    const char* mp = std::getenv("IWG_METRICS");
    if (mp != nullptr && mp[0] != '\0') g_metrics_path = mp;
    const char* pp = std::getenv("IWG_METRICS_PROM");
    if (pp != nullptr && pp[0] != '\0') g_prom_path = pp;
    if (!g_trace_path.empty() || !g_metrics_path.empty() ||
        !g_prom_path.empty()) {
      register_exit_writer_locked();
    }
  });
}

void json_escape_into(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void args_into(std::ostream& os, const std::vector<Arg>& args,
               const Context& ctx = {}) {
  os << '{';
  bool first = true;
  if (ctx.valid()) {
    // The request context a span inherited renders as ordinary args, so a
    // span selected in the viewer names the request it served.
    os << "\"trace_id\":" << ctx.trace_id
       << ",\"request_id\":" << ctx.request_id;
    first = false;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape_into(os, args[i].key);
    os << "\":";
    switch (args[i].kind) {
      case Arg::Kind::kString:
        os << '"';
        json_escape_into(os, args[i].str);
        os << '"';
        break;
      case Arg::Kind::kDouble:
        os << std::setprecision(9) << args[i].num;
        break;
      case Arg::Kind::kInt:
        os << args[i].inum;
        break;
    }
  }
  os << '}';
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  // Intentionally leaked: the at-exit report writers (and spans recorded
  // during other objects' static destruction) must never see a destroyed
  // tracer, whatever the construction order was.
  static Tracer* tracer = new Tracer();
  init_from_env_once(tracer);
  return *tracer;
}

void Tracer::enable(std::int64_t capacity) {
  IWG_CHECK(capacity > 0);
  {
    std::lock_guard lock(mu_);
    capacity_ = capacity;
    ring_.clear();
    total_ = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

bool Tracer::active() const { return enabled() && g_suppress_depth == 0; }

void Tracer::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  total_ = 0;
}

void Tracer::record(Event&& e) {
  std::lock_guard lock(mu_);
  if (static_cast<std::int64_t>(ring_.size()) < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    // Overwrite the oldest resident event (the ring was filled in record
    // order, so the slot of event #total_ is total_ mod capacity).
    ring_[static_cast<std::size_t>(total_ % capacity_)] = std::move(e);
  }
  ++total_;
}

std::vector<Event> Tracer::events() const {
  std::lock_guard lock(mu_);
  if (total_ <= capacity_) return ring_;
  std::vector<Event> out;
  out.reserve(ring_.size());
  const std::size_t start = static_cast<std::size_t>(total_ % capacity_);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::int64_t Tracer::recorded() const {
  std::lock_guard lock(mu_);
  return total_;
}

std::int64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  return std::max<std::int64_t>(
      0, total_ - static_cast<std::int64_t>(ring_.size()));
}

std::string Tracer::chrome_json(bool include_metrics) const {
  std::vector<Event> evs = events();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });

  // Flow chains: events sharing a nonzero trace_id, in timeline order. The
  // first span of a chain gets a flow-start ("s"), intermediate ones a step
  // ("t"), the last a finish ("f") — Perfetto then draws arrows linking one
  // request's spans across threads (enqueue → dispatch → complete).
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> chains;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (!evs[i].ctx.valid()) continue;
    auto [it, fresh] = chains.try_emplace(evs[i].ctx.trace_id, i, i);
    if (!fresh) it->second.second = i;
  }

  std::ostringstream os;
  os.imbue(std::locale::classic());  // '.' decimals whatever the app locale
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"iwg\"}}";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Event& e = evs[i];
    os << ",{\"name\":\"";
    json_escape_into(os, e.name);
    os << "\",\"cat\":\"";
    json_escape_into(os, e.cat);
    os << "\",\"ph\":\"X\",\"ts\":" << std::fixed << std::setprecision(3)
       << e.ts_us << ",\"dur\":" << e.dur_us << std::defaultfloat
       << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":";
    args_into(os, e.args, e.ctx);
    os << '}';
    if (e.ctx.valid()) {
      const auto& [first_i, last_i] = chains.at(e.ctx.trace_id);
      const char* ph = i == first_i ? "s" : (i == last_i ? "f" : "t");
      if (first_i != last_i) {
        // The flow event's timestamp sits inside the span so the viewer
        // binds it to this slice (Chrome binds flows positionally).
        const double fts = e.ts_us + e.dur_us * 0.5;
        os << ",{\"name\":\"request\",\"cat\":\"flow\",\"ph\":\"" << ph
           << "\",\"id\":" << e.ctx.trace_id << ",\"ts\":" << std::fixed
           << std::setprecision(3) << fts << std::defaultfloat
           << ",\"pid\":1,\"tid\":" << e.tid;
        if (*ph == 'f') os << ",\"bp\":\"e\"";
        os << '}';
      }
    }
  }
  if (include_metrics) {
    // Counters ride along as Chrome counter ("C") events stamped at the end
    // of the timeline, so hit rates etc. are visible next to the spans.
    const auto snap = MetricsRegistry::global().snapshot();
    const double ts = now_us();
    for (const auto& [name, value] : snap.counters) {
      os << ",{\"name\":\"";
      json_escape_into(os, name);
      os << "\",\"ph\":\"C\",\"ts\":" << std::fixed << std::setprecision(3)
         << ts << std::defaultfloat << ",\"pid\":1,\"args\":{\"value\":"
         << value << "}}";
    }
  }
  os << "]}";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path,
                                bool include_metrics) const {
  std::ofstream out(path);
  IWG_CHECK_MSG(out.good(), "cannot open trace output: " + path);
  out << chrome_json(include_metrics);
  IWG_CHECK_MSG(out.good(), "trace write failed: " + path);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

// ---------------------------------------------------------------------------
// ScopedSpan / Suppress

ScopedSpan::ScopedSpan(const char* name, const char* cat) {
  Tracer& t = Tracer::global();
  if (!t.active()) return;
  active_ = true;
  ev_.name = name;
  ev_.cat = cat;
  ev_.tid = Tracer::thread_id();
  ev_.ctx = g_context;
  start_us_ = t.now_us();
}

ScopedSpan::ScopedSpan(const std::string& name, const char* cat) {
  Tracer& t = Tracer::global();
  if (!t.active()) return;
  active_ = true;
  ev_.name = name;
  ev_.cat = cat;
  ev_.tid = Tracer::thread_id();
  ev_.ctx = g_context;
  start_us_ = t.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& t = Tracer::global();
  ev_.ts_us = start_us_;
  ev_.dur_us = t.now_us() - start_us_;
  t.record(std::move(ev_));
}

ScopedSpan& ScopedSpan::arg(const char* key, const char* value) {
  if (active_) {
    ev_.args.push_back(Arg{key, Arg::Kind::kString, value, 0.0, 0});
  }
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, const std::string& value) {
  if (active_) {
    ev_.args.push_back(Arg{key, Arg::Kind::kString, value, 0.0, 0});
  }
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, double value) {
  if (active_) {
    ev_.args.push_back(Arg{key, Arg::Kind::kDouble, {}, value, 0});
  }
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, std::int64_t value) {
  if (active_) {
    ev_.args.push_back(Arg{key, Arg::Kind::kInt, {}, 0.0, value});
  }
  return *this;
}

Suppress::Suppress() { ++g_suppress_depth; }
Suppress::~Suppress() { --g_suppress_depth; }

// ---------------------------------------------------------------------------
// Context propagation

Context current_context() { return g_context; }

std::uint64_t new_trace_id() {
  // Monotonic and process-unique; starts at 1 so 0 stays "no context".
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ContextScope::ContextScope(Context ctx) : prev_(g_context) { g_context = ctx; }
ContextScope::~ContextScope() { g_context = prev_; }

// ---------------------------------------------------------------------------
// Metrics

// ---------------------------------------------------------------------------
// Histogram

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negatives, NaN → bottom bucket
  const int e = std::ilogb(v);
  const int idx = e - kMinExp;
  return std::clamp(idx, 0, kBuckets - 1);
}

double Histogram::bucket_lo(int i) {
  return i <= 0 ? 0.0 : std::ldexp(1.0, i + kMinExp);
}

double Histogram::bucket_hi(int i) { return std::ldexp(1.0, i + 1 + kMinExp); }

namespace {

/// Relaxed CAS-accumulate / CAS-min / CAS-max on atomic doubles (record()
/// must stay lock-free; exactness of the *sum* under contention is all CAS
/// gives us, and bucket counts are plain atomic adds).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

template <typename Better>
void atomic_extreme(std::atomic<double>& a, double v, Better better) {
  double cur = a.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::record(double v) {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  // First recorder initializes min/max from 0: seed both with v when the
  // count was zero. A racing second recorder still converges via the CAS
  // extremes below.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_add(sum_, v);
  atomic_extreme(min_, v, [](double a, double b) { return a < b; });
  atomic_extreme(max_, v, [](double a, double b) { return a > b; });
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    s.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile among `count` recorded values.
  const double rank = q * static_cast<double>(count - 1);
  std::int64_t before = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::int64_t n = buckets[static_cast<std::size_t>(i)];
    if (n > 0 && rank < static_cast<double>(before + n)) {
      // Linear interpolation inside the covering bucket, clamped to the
      // observed extremes (the open-ended edge buckets would otherwise
      // report their nominal power-of-two edges).
      const double frac =
          (rank - static_cast<double>(before)) / static_cast<double>(n);
      const double lo = bucket_lo(i);
      const double hi = bucket_hi(i);
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
    before += n;
  }
  return max;
}

Histogram::Snapshot Histogram::Snapshot::delta(const Snapshot& prev) const {
  Snapshot d;
  d.count = count - prev.count;
  d.sum = sum - prev.sum;
  if (d.count <= 0) return Snapshot{};  // quiesced (or torn) window: empty
  int first = -1;
  int last = -1;
  for (int i = 0; i < kBuckets; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    d.buckets[idx] = buckets[idx] - prev.buckets[idx];
    if (d.buckets[idx] < 0) d.buckets[idx] = 0;  // torn concurrent snapshot
    if (d.buckets[idx] > 0) {
      if (first < 0) first = i;
      last = i;
    }
  }
  if (d.sum < 0.0) d.sum = 0.0;  // torn count/sum pair
  if (first < 0) {
    // Torn snapshot: the count advanced but no bucket increment is visible
    // yet. Keep the count (interval accounting must tile the stream
    // exactly — a windowed monitor sums deltas) and fall back to the
    // cumulative extremes as the only available bounds.
    d.min = min;
    d.max = max;
    return d;
  }
  // Tightest provable bounds on the window extremes: the occupied delta
  // buckets' edges, clamped into the cumulative [min, max] (a superset of
  // the window, so its extremes bound the window's from outside).
  d.min = std::max(bucket_lo(first), min);
  d.max = std::min(bucket_hi(last), max);
  if (d.min > d.max) d.min = d.max;
  return d;
}

void Histogram::Snapshot::merge(const Snapshot& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  for (int i = 0; i < kBuckets; ++i) {
    buckets[static_cast<std::size_t>(i)] +=
        o.buckets[static_cast<std::size_t>(i)];
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked for the same reason as Tracer::global(): the registry may be
  // first used (and its static therefore constructed) after the at-exit
  // writers were registered, which would destroy it before they run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

std::string MetricsRegistry::text_report() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "== iwg metrics ==\n";
  for (const auto& [name, value] : snap.counters) {
    os << "counter  " << std::left << std::setw(36) << name << ' '
       << std::right << std::setw(12) << value << '\n';
  }
  os << std::setprecision(6);
  for (const auto& [name, h] : snap.histograms) {
    os << "hist     " << std::left << std::setw(36) << name << std::right
       << " count=" << h.count << " sum=" << h.sum << " mean=" << h.mean()
       << " min=" << h.min << " p50=" << h.quantile(0.50) << " p99="
       << h.quantile(0.99) << " max=" << h.max << '\n';
  }
  return os.str();
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

namespace {

/// A registry name mapped onto the Prometheus data model: a sanitized
/// family base plus an optional label set. The `serve.tenant.<id>.<rest>`
/// convention becomes ONE family per <rest> with the tenant id as a proper
/// label — serve_tenant_latency_us{tenant="gold"} — instead of a separate
/// per-tenant metric name, so PromQL can aggregate and group across
/// tenants. Tenant ids must not contain '.' (the first dot after the
/// prefix ends the id; ModelRegistry enforces this at registration).
struct PromName {
  std::string base;    ///< sanitized family name
  std::string labels;  ///< e.g. tenant="gold"; empty → no label set
};

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

PromName exposition_name(const std::string& raw) {
  static constexpr std::string_view kTenantPrefix = "serve.tenant.";
  PromName n;
  if (raw.compare(0, kTenantPrefix.size(), kTenantPrefix) == 0) {
    const std::size_t id_begin = kTenantPrefix.size();
    const std::size_t id_end = raw.find('.', id_begin);
    if (id_end != std::string::npos && id_end + 1 < raw.size() &&
        id_end > id_begin) {
      n.base = sanitize_metric_name("serve.tenant." + raw.substr(id_end + 1));
      n.labels =
          "tenant=\"" + escape_label_value(raw.substr(id_begin, id_end - id_begin)) +
          "\"";
      return n;
    }
  }
  n.base = sanitize_metric_name(raw);
  return n;
}

/// Group one metric kind's snapshot rows into label-series per family base.
/// The snapshot is sorted by raw name, which scatters one family's tenants
/// (serve.tenant.bronze.completed / serve.tenant.gold.completed are not
/// adjacent) — but Prometheus wants a single `# TYPE` line per family with
/// every series under it, hence the regrouping map.
template <typename V>
std::map<std::string, std::vector<std::pair<std::string, V>>> prom_families(
    const std::vector<std::pair<std::string, V>>& rows) {
  std::map<std::string, std::vector<std::pair<std::string, V>>> fams;
  for (const auto& [name, value] : rows) {
    const PromName n = exposition_name(name);
    fams[n.base].emplace_back(n.labels, value);
  }
  return fams;
}

}  // namespace

void MetricsRegistry::set_help(const std::string& name,
                               const std::string& help) {
  std::lock_guard lock(mu_);
  help_[exposition_name(name).base] = help;
}

void MetricsRegistry::set_build_label(const std::string& key,
                                      const std::string& value) {
  std::lock_guard lock(mu_);
  build_info_[key] = value;
}

namespace {

/// Process-start anchor for iwg_process_uptime_seconds (static init of this
/// TU — early enough that "uptime" means what an operator expects).
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  const Snapshot snap = snapshot();
  std::map<std::string, std::string> help;
  std::map<std::string, std::string> build_info;
  {
    std::lock_guard lock(mu_);
    help = help_;
    build_info = build_info_;
  }
  const auto help_line = [&](std::ostream& out, const std::string& base) {
    const auto it = help.find(base);
    out << "# HELP " << base << ' '
        << (it != help.end() ? it->second : "iwg metric " + base) << '\n';
  };
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(9);
  // Synthesized identity gauges, first on the page: which build produced
  // these numbers, and for how long the process has been alive. Labels
  // published via set_build_label (e.g. isa) join the compile-time tracing
  // mode.
  os << "# HELP iwg_build_info Build/runtime identity of this process "
        "(constant 1).\n# TYPE iwg_build_info gauge\niwg_build_info{";
  if (build_info.find("isa") == build_info.end()) {
    os << "isa=\"unresolved\",";  // host-kernel table not yet dispatched
  }
  for (const auto& [k, v] : build_info) {
    os << sanitize_metric_name(k) << "=\"" << escape_label_value(v) << "\",";
  }
#ifdef IWG_TRACE_DISABLE
  os << "trace=\"off\"";
#else
  os << "trace=\"on\"";
#endif
  os << "} 1\n";
  os << "# HELP iwg_process_uptime_seconds Seconds since process start "
        "(steady clock).\n# TYPE iwg_process_uptime_seconds gauge\n"
        "iwg_process_uptime_seconds "
     << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      g_process_start)
            .count()
     << '\n';
  for (const auto& [base, series] : prom_families(snap.counters)) {
    help_line(os, base);
    os << "# TYPE " << base << " counter\n";
    for (const auto& [labels, value] : series) {
      os << base;
      if (!labels.empty()) os << '{' << labels << '}';
      os << ' ' << value << '\n';
    }
  }
  for (const auto& [base, series] : prom_families(snap.histograms)) {
    help_line(os, base);
    os << "# TYPE " << base << " histogram\n";
    for (const auto& [labels, h] : series) {
      const std::string comma = labels.empty() ? "" : labels + ",";
      const std::string plain = labels.empty() ? "" : "{" + labels + "}";
      // Cumulative buckets; emitting only the occupied range (plus +Inf) is
      // valid exposition and keeps the page compact for 64-bucket
      // histograms.
      std::int64_t cum = 0;
      int last_used = -1;
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (h.buckets[static_cast<std::size_t>(i)] > 0) last_used = i;
      }
      for (int i = 0; i <= last_used; ++i) {
        cum += h.buckets[static_cast<std::size_t>(i)];
        os << base << "_bucket{" << comma << "le=\""
           << Histogram::bucket_hi(i) << "\"} " << cum << '\n';
      }
      os << base << "_bucket{" << comma << "le=\"+Inf\"} " << h.count << '\n';
      os << base << "_sum" << plain << ' ' << h.sum << '\n';
      os << base << "_count" << plain << ' ' << h.count << '\n';
    }
  }
  return os.str();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void init_from_env() { Tracer::global(); }

void set_report_paths(const std::string& trace_path,
                      const std::string& metrics_path,
                      const std::string& prometheus_path) {
  Tracer& tracer = Tracer::global();  // runs init_from_env_once first
  {
    std::lock_guard lock(g_report_mu);
    g_trace_path = trace_path;
    g_metrics_path = metrics_path;
    g_prom_path = prometheus_path;
    if (!g_trace_path.empty() || !g_metrics_path.empty() ||
        !g_prom_path.empty()) {
      register_exit_writer_locked();
    }
  }
  if (!trace_path.empty() && !tracer.enabled()) tracer.enable();
}

bool flush_report() {
  Tracer::global();  // make sure env configuration has been read
  std::lock_guard lock(g_report_mu);
  return write_reports_locked(/*quiet=*/true);
}

}  // namespace iwg::trace
