#include "serving.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>


namespace perf {

namespace {

using iwg::serve::Response;
using iwg::serve::Status;

/// Sleep precision: Linux pads every timed sleep by the thread's timer
/// slack (50 µs by default), which would blur a 50 µs arrival interval.
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::future<Response> submit(iwg::serve::FleetScheduler& fleet,
                             const Traffic& traffic, const Arrival& a) {
  const iwg::TensorF& img =
      traffic.pools[static_cast<std::size_t>(a.tenant)]
                   [static_cast<std::size_t>(a.image)];
  const std::string& id = traffic.ids[static_cast<std::size_t>(a.tenant)];
  if (a.own_deadline) {
    return fleet.submit(id, img, iwg::serve::Deadline::after(a.deadline));
  }
  return fleet.submit(id, img);
}

void record_response(Outcome& o, Response&& resp, const Arrival& a,
                     CheckState& checks) {
  o.status = resp.status;
  o.queue_us = resp.queue_us;
  o.latency_us = resp.latency_us;
  o.batch_size = resp.batch_size;
  if (resp.ok() && !checks.sample(a, resp.output)) o.wrong = true;
}

struct Pending {
  std::size_t idx;
  std::future<Response> fut;
};

void fail_wrong(std::int64_t wrong, Result& r) {
  if (wrong > 0) {
    r.fail(std::to_string(wrong) +
           " served outputs differ from offline Model::infer");
  }
}

/// Longest a completion that overtakes the oldest outstanding request
/// waits to be seen by the open-loop collector.
constexpr auto kPoll = std::chrono::microseconds(100);

}  // namespace

bool CheckState::sample(const Arrival& a, iwg::TensorF& y) {
  if (next++ % kCheckEvery != 0) return true;
  if (corrupt) {
    corrupt = false;
    y[0] += 1.0f;
  }
  return check(a, y);
}

std::vector<Outcome> run_open_loop(iwg::serve::FleetScheduler& fleet,
                                   const Traffic& traffic,
                                   const std::vector<Arrival>& arrivals,
                                   CheckState& checks) {
  std::vector<Outcome> outs(arrivals.size());
  std::vector<Clock::time_point> due(arrivals.size());
  std::mutex inbox_mu;
  std::condition_variable inbox_cv;
  std::vector<Pending> inbox;  // guarded by inbox_mu
  bool done = false;           // guarded by inbox_mu
  std::exception_ptr collector_error;

  auto collect = [&] {
    std::vector<Pending> pending;  // submission order: front is the oldest
    for (;;) {
      {
        std::unique_lock lock(inbox_mu);
        if (pending.empty()) {
          inbox_cv.wait(lock, [&] { return done || !inbox.empty(); });
          if (inbox.empty()) return;  // done, and every future resolved
        }
        for (Pending& p : inbox) pending.push_back(std::move(p));
        inbox.clear();
      }
      // Block in the oldest request's future: an in-order completion wakes
      // the collector at once, one that overtakes it is seen within kPoll.
      pending.front().fut.wait_for(kPoll);
      const Clock::time_point seen = Clock::now();
      std::erase_if(pending, [&](Pending& p) {
        if (p.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        Outcome& o = outs[p.idx];
        o.client_us = us_between(due[p.idx], seen);
        record_response(o, p.fut.get(), arrivals[p.idx], checks);
        return true;
      });
    }
  };
  std::thread collector([&] {
    tighten_timer_slack();
    try {
      collect();
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  auto finish = [&] {
    {
      std::lock_guard lock(inbox_mu);
      done = true;
    }
    inbox_cv.notify_one();
    collector.join();
  };

  try {
    tighten_timer_slack();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      due[i] = t0 + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(a.due_us * 1e3));
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= due[i]) break;
        const double ahead_us = us_between(now, due[i]);
        if (ahead_us > 60.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<std::int64_t>(ahead_us - 40.0)));
        } else {
          std::this_thread::yield();
        }
      }
      Outcome& o = outs[i];
      o.tenant = a.tenant;
      o.due_s = a.due_us / 1e6;
      o.deadline_us = static_cast<double>(a.deadline.count());
      const Clock::time_point s0 = Clock::now();
      std::future<Response> fut = submit(fleet, traffic, a);
      const Clock::time_point s1 = Clock::now();
      o.late_us = us_between(due[i], s0);
      o.submit_us = us_between(s0, s1);
      {
        std::lock_guard lock(inbox_mu);
        inbox.push_back(Pending{i, std::move(fut)});
      }
      inbox_cv.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  if (collector_error) std::rethrow_exception(collector_error);
  return outs;
}

WindowRun run_window(iwg::serve::FleetScheduler& fleet, const Traffic& traffic,
                     const std::vector<Arrival>& pattern, int window,
                     double seconds, CheckState& checks) {
  struct InFlight {
    const Arrival* arrival;
    Clock::time_point start;
    std::future<Response> fut;
  };
  WindowRun w;
  std::deque<InFlight> flight;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::size_t next = 0;
  auto reap = [&] {
    InFlight f = std::move(flight.front());
    flight.pop_front();
    Response resp = f.fut.get();
    const Clock::time_point seen = Clock::now();
    Outcome o;
    record_response(o, std::move(resp), *f.arrival, checks);
    if (o.ok()) {
      w.ok_ms.push_back(
          Stamped{us_between(t0, seen) / 1e6, us_between(f.start, seen) / 1e3});
    } else {
      ++w.failed;
      if (o.wrong) ++w.wrong;
    }
  };
  while (Clock::now() < stop) {
    while (flight.size() < static_cast<std::size_t>(window)) {
      const Arrival& a = pattern[next++ % pattern.size()];
      const Clock::time_point s0 = Clock::now();
      flight.push_back(InFlight{&a, s0, submit(fleet, traffic, a)});
      ++w.attempted;
    }
    reap();
  }
  w.wall_s = seconds_since(t0);
  while (!flight.empty()) reap();
  return w;
}

std::vector<double> poisson_times(double rate, double seconds, iwg::Rng& rng) {
  std::vector<double> out;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform_double(0.0, 1.0)) / rate;
    if (t >= seconds) return out;
    out.push_back(t);
  }
}

std::vector<Arrival> poisson_arrivals(double rate, double seconds,
                                      std::chrono::microseconds deadline,
                                      int pool_size, std::uint64_t seed) {
  iwg::Rng rng(seed);
  std::vector<Arrival> out;
  for (double t : poisson_times(rate, seconds, rng)) {
    Arrival a;
    a.due_us = t * 1e6;
    a.image =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(pool_size)));
    a.deadline = deadline;
    out.push_back(a);
  }
  return out;
}

void tally(const std::vector<Outcome>& outs, Result& r) {
  std::int64_t wrong = 0;
  for (const Outcome& o : outs) {
    ++r.attempted;
    if (!o.ok()) ++r.failed;
    if (o.wrong) ++wrong;
  }
  fail_wrong(wrong, r);
}

void tally(const WindowRun& w, Result& r) {
  r.attempted += w.attempted;
  r.failed += w.failed;
  fail_wrong(w.wrong, r);
}

RequestSummary summarize(const std::vector<Outcome>& outs, double span_s) {
  RequestSummary s;
  std::vector<Stamped> ms;
  std::int64_t met = 0;
  for (const Outcome& o : outs) {
    if (o.ok()) ms.push_back(Stamped{o.due_s, o.client_us / 1e3});
    if (o.slo_met()) ++met;
    if (!o.ok()) ++s.failed;
  }
  s.attempted = static_cast<std::int64_t>(outs.size());
  s.p50_ms = windowed_quantile(ms, span_s, 0.5);
  s.p90_ms = windowed_quantile(ms, span_s, 0.9);
  s.p99_ms = windowed_quantile(ms, span_s, 0.99);
  s.slo_met_share = s.attempted > 0 ? static_cast<double>(met) /
                                          static_cast<double>(s.attempted)
                                    : 0.0;
  s.ok_per_s = span_s > 0.0 ? static_cast<double>(ms.size()) / span_s : 0.0;
  return s;
}

void emit_request_ledger(const std::vector<Outcome>& outs, Result& r) {
  double late = 0.0, submit = 0.0, queue = 0.0, model = 0.0, client = 0.0;
  double inv_batch = 0.0;
  std::int64_t ok = 0, expired = 0, rejected = 0;
  for (const Outcome& o : outs) {
    if (o.status == Status::kExpired) ++expired;
    if (o.status == Status::kRejected) ++rejected;
    if (o.status != Status::kOk) continue;
    ++ok;
    late += o.late_us;
    submit += o.submit_us;
    queue += o.queue_us;
    model += o.latency_us - o.queue_us;
    client += o.client_us;
    inv_batch +=
        1.0 / static_cast<double>(std::max<std::int64_t>(1, o.batch_size));
  }
  const double c = client > 0.0 ? client : 1.0;
  const double n = outs.empty() ? 1.0 : static_cast<double>(outs.size());
  r.metric("load.late_share", late / c, "share");
  r.metric("serve.submit_share", submit / c, "share");
  r.metric("serve.queue_share", queue / c, "share");
  r.metric("serve.model_share", model / c, "share");
  r.metric("serve.delivery_share",
           (client - late - submit - queue - model) / c, "share");
  r.metric("serve.batch_size.mean",
           inv_batch > 0.0 ? static_cast<double>(ok) / inv_batch : 0.0,
           "images");
  r.metric("serve.expired_share", static_cast<double>(expired) / n, "share");
  r.metric("serve.rejected_share", static_cast<double>(rejected) / n, "share");
}

void emit_fleet_counters(const iwg::serve::FleetScheduler& fleet, Result& r) {
  const iwg::serve::FleetScheduler::Stats s = fleet.stats();
  r.metric("serve.indirect_share",
           s.total.batches > 0
               ? static_cast<double>(s.total.indirect_batches) /
                     static_cast<double>(s.total.batches)
               : 0.0,
           "share");
}

void emit_phase(const std::string& name, const std::vector<Outcome>& outs,
                double span_s, Result& r) {
  const RequestSummary s = summarize(outs, span_s);
  const std::string p = "phase." + name + ".";
  r.metric(p + "p50_ms", s.p50_ms, "ms");
  r.metric(p + "p90_ms", s.p90_ms, "ms");
  r.metric(p + "p99_ms", s.p99_ms, "ms");
  r.metric(p + "ok_per_s", s.ok_per_s, "1/s");
  r.metric(p + "slo_met_share", s.slo_met_share, "share");
  r.metric(p + "attempted", static_cast<double>(s.attempted), "count");
  r.metric(p + "failed", static_cast<double>(s.failed), "count");
  std::vector<double> late, submit, queue, model;
  for (const Outcome& o : outs) {
    late.push_back(o.late_us / 1e3);
    submit.push_back(o.submit_us);
    if (o.status != Status::kOk) continue;
    queue.push_back(o.queue_us / 1e3);
    model.push_back((o.latency_us - o.queue_us) / 1e3);
  }
  r.metric(p + "late_ms.p99", quantile(late, 0.99), "ms");
  r.metric(p + "late_ms.max", quantile(late, 1.0), "ms");
  r.metric(p + "submit_us.p50", quantile(submit, 0.5), "us");
  r.metric(p + "submit_us.p99", quantile(submit, 0.99), "us");
  r.metric(p + "queue_ms.p50", quantile(queue, 0.5), "ms");
  r.metric(p + "queue_ms.p99", quantile(queue, 0.99), "ms");
  r.metric(p + "model_ms.p50", quantile(model, 0.5), "ms");
}

void emit_phase(const std::string& name, const WindowRun& w, Result& r) {
  const std::string p = "phase." + name + ".";
  std::vector<Stamped> one_each;
  for (const Stamped& s : w.ok_ms) one_each.push_back(Stamped{s.t_s, 1.0});
  r.metric(p + "ok_per_s", windowed_rate(one_each, w.wall_s), "1/s");
  r.metric(p + "p50_ms", windowed_quantile(w.ok_ms, w.wall_s, 0.5), "ms");
  r.metric(p + "p99_ms", windowed_quantile(w.ok_ms, w.wall_s, 0.99), "ms");
  r.metric(p + "attempted", static_cast<double>(w.attempted), "count");
  r.metric(p + "failed", static_cast<double>(w.failed), "count");
}

void emit_no_serving(Result& r, double images_per_call) {
  for (const char* name :
       {"load.late_share", "serve.submit_share", "serve.queue_share",
        "serve.model_share", "serve.delivery_share", "serve.expired_share",
        "serve.rejected_share", "serve.indirect_share",
        "serve.swap_busy_share", "serve.register_share",
        "obs.scrape_busy_share"}) {
    r.metric(name, 0.0, "share");
  }
  r.metric("obs.scrape_kb", 0.0, "KiB");
  r.metric("serve.batch_size.mean", images_per_call, "images");
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  try {
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("connect failed");
    }
    const std::string req = "GET " + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    if (send(fd, req.data(), req.size(), 0) !=
        static_cast<ssize_t>(req.size())) {
      throw std::runtime_error("send failed");
    }
    std::string raw;
    char buf[16384];
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n < 0) throw std::runtime_error("recv failed");
      if (n == 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    if (raw.compare(0, 12, "HTTP/1.1 200") != 0) {
      throw std::runtime_error("GET " + path + ": " + raw.substr(0, 40));
    }
    const std::size_t hdr = raw.find("\r\n\r\n");
    if (hdr == std::string::npos) throw std::runtime_error("no header end");
    body = raw.substr(hdr + 4);
  } catch (...) {
    close(fd);
    throw;
  }
  close(fd);
  return body;
}

}  // namespace perf
