#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "core/host_kernels.hpp"

namespace perf {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::fail(const std::string& why) {
  ++failures_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::string Result::json(const Options& opt) const {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(opt.workload)
     << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"seconds\":" << json_number(opt.seconds)
     << ",\"isa\":"
     << json_string(iwg::core::host_isa_name(iwg::core::host_isa()))
     << ",\"compiler\":" << json_string(IWG_PERF_COMPILER)
     << ",\"build_type\":" << json_string(IWG_PERF_BUILD_TYPE)
     << ",\"nproc\":" << hardware_threads()
     << ",\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"check_failures\":[";
  for (std::size_t i = 0; i < reasons_.size(); ++i) {
    os << (i ? "," : "") << json_string(reasons_[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

std::vector<std::vector<double>> split_windows(const std::vector<Stamped>& xs,
                                               double span_s, int windows) {
  std::vector<std::vector<double>> w(static_cast<std::size_t>(windows));
  if (!(span_s > 0.0)) return w;
  for (const Stamped& x : xs) {
    if (x.t_s < 0.0 || x.t_s >= span_s) continue;  // outside the phase
    const auto i = static_cast<std::size_t>(x.t_s / span_s * windows);
    w[std::min(i, w.size() - 1)].push_back(x.v);
  }
  return w;
}

}  // namespace

double windowed_quantile(const std::vector<Stamped>& xs, double span_s,
                         double q) {
  const auto windows = static_cast<int>(std::clamp<std::size_t>(
      xs.size() / kSamplesPerWindow, 1, kMaxWindows));
  std::vector<double> per_window;
  for (const std::vector<double>& w : split_windows(xs, span_s, windows)) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return quantile(per_window, 0.5);
}

double windowed_rate(const std::vector<Stamped>& xs, double span_s) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : split_windows(xs, span_s, kRateWindows)) {
    double sum = 0.0;
    for (double v : w) sum += v;
    per_window.push_back(sum / (span_s / kRateWindows));
  }
  return quantile(per_window, 0.5);
}

double median_seconds(int reps, const std::function<void()>& once) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    once();
    t.push_back(seconds_since(t0));
  }
  return quantile(t, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double rel_l2(const iwg::TensorF& a, const iwg::TensorF& b) {
  if (!a.same_shape(b)) return INFINITY;
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool bitwise_equal(const iwg::TensorF& a, const iwg::TensorF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

iwg::TensorF random_tensor(const std::vector<std::int64_t>& dims,
                           std::uint64_t seed) {
  iwg::TensorF t(dims);
  iwg::Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

iwg::TensorF as_batch(const iwg::TensorF& image) {
  iwg::TensorF x({1, image.dim(0), image.dim(1), image.dim(2)});
  std::memcpy(x.data(), image.data(),
              static_cast<std::size_t>(image.size()) * sizeof(float));
  return x;
}

unsigned hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

void emit_cpu_util(Result& r, double cpu_s, double wall_s) {
  r.metric("process.cpu_util",
           wall_s > 0.0 ? cpu_s / (wall_s * hardware_threads()) : 0.0,
           "share");
}

}  // namespace perf
