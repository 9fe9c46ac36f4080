#include "harness/loadgen.h"

#include <strings.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"
#include "service/client.h"

namespace qfix {
namespace harness {

namespace {

/// A send later than this after its scheduled slot counts as the
/// harness falling behind its own timetable.
constexpr double kBehindScheduleSeconds = 0.010;

/// Per-worker, per-tenant accumulator. Workers never share state while
/// running; the driver merges after join.
struct TenantAcc {
  uint64_t attempted = 0;
  ErrorClassCounts classes;
  obs::Histogram latency;
};

struct WorkerAcc {
  std::vector<TenantAcc> tenants;
  uint64_t behind_schedule = 0;
};

/// Two-stage weighted pick: tenant by tenant weight, then one of the
/// tenant's templates by template weight.
struct Pick {
  size_t tenant = 0;
  const LoadRequestTemplate* request = nullptr;
};

class MixPicker {
 public:
  explicit MixPicker(const std::vector<LoadTenantSpec>& tenants)
      : tenants_(&tenants) {
    for (const LoadTenantSpec& t : tenants) {
      tenant_total_ += std::max(t.weight, 1);
      tenant_edges_.push_back(tenant_total_);
      long rt = 0;
      std::vector<long> edges;
      for (const LoadRequestTemplate& r : t.requests) {
        rt += std::max(r.weight, 1);
        edges.push_back(rt);
      }
      request_totals_.push_back(rt);
      request_edges_.push_back(std::move(edges));
    }
  }

  Pick operator()(std::mt19937_64& rng) const {
    Pick out;
    out.tenant = Draw(rng, tenant_edges_, tenant_total_);
    const size_t ri =
        Draw(rng, request_edges_[out.tenant], request_totals_[out.tenant]);
    out.request = &(*tenants_)[out.tenant].requests[ri];
    return out;
  }

 private:
  static size_t Draw(std::mt19937_64& rng, const std::vector<long>& edges,
                     long total) {
    std::uniform_int_distribution<long> dist(1, total);
    const long x = dist(rng);
    for (size_t i = 0; i < edges.size(); ++i) {
      if (x <= edges[i]) return i;
    }
    return edges.size() - 1;
  }

  const std::vector<LoadTenantSpec>* tenants_;
  long tenant_total_ = 0;
  std::vector<long> tenant_edges_;
  std::vector<long> request_totals_;
  std::vector<std::vector<long>> request_edges_;
};

void Classify(const Result<service::HttpResponse>& response,
              ErrorClassCounts* classes) {
  if (!response.ok()) {
    ++classes->transport;
    return;
  }
  const int status = response->status;
  if (status < 300) {
    ++classes->ok_2xx;
  } else if (status == 429) {
    ++classes->shed_429;
  } else if (status < 500) {
    ++classes->err_4xx;
  } else {
    ++classes->err_5xx;
  }
}

void WriteHistogramJson(const obs::Histogram& h, JsonWriter* w) {
  const uint64_t count = h.Count();
  w->BeginObject();
  w->Key("count");
  w->Uint(count);
  w->Key("mean");
  w->Double(count > 0 ? h.Sum() / count * 1e3 : 0.0);
  w->Key("p50");
  w->Double(h.Quantile(0.50) * 1e3);
  w->Key("p90");
  w->Double(h.Quantile(0.90) * 1e3);
  w->Key("p99");
  w->Double(h.Quantile(0.99) * 1e3);
  w->Key("p999");
  w->Double(h.Quantile(0.999) * 1e3);
  w->Key("max");
  w->Double(h.Max() * 1e3);
  w->EndObject();
}

void WriteClassesJson(const ErrorClassCounts& c, JsonWriter* w) {
  w->BeginObject();
  w->Key("ok_2xx");
  w->Uint(c.ok_2xx);
  w->Key("shed_429");
  w->Uint(c.shed_429);
  w->Key("err_4xx");
  w->Uint(c.err_4xx);
  w->Key("err_5xx");
  w->Uint(c.err_5xx);
  w->Key("transport");
  w->Uint(c.transport);
  w->EndObject();
}

}  // namespace

void ErrorClassCounts::Merge(const ErrorClassCounts& other) {
  ok_2xx += other.ok_2xx;
  shed_429 += other.shed_429;
  err_4xx += other.err_4xx;
  err_5xx += other.err_5xx;
  transport += other.transport;
}

LoadResult RunLoad(const LoadOptions& options) {
  QFIX_CHECK(!options.tenants.empty()) << "load mix has no tenants";
  for (const LoadTenantSpec& t : options.tenants) {
    QFIX_CHECK(!t.requests.empty())
        << "tenant '" << t.name << "' has no request templates";
  }
  const int workers = std::max(options.concurrency, 1);
  const double duration = std::max(options.duration_seconds, 0.0);
  const MixPicker pick(options.tenants);

  std::vector<WorkerAcc> accs(static_cast<size_t>(workers));
  for (WorkerAcc& acc : accs) {
    acc.tenants.resize(options.tenants.size());
  }

  // Open loop: one shared timetable index. Workers race to claim the
  // next scheduled arrival; whoever claims slot k owns t_k = start +
  // k/rate and measures latency from it.
  std::atomic<uint64_t> next_arrival{0};
  const double rate =
      options.mode == LoadOptions::Mode::kOpen
          ? std::max(options.rate_per_second, 1e-3)
          : 0.0;

  const double start = MonotonicSeconds();
  const double deadline = start + duration;

  auto worker_body = [&](int index) {
    WorkerAcc& acc = accs[static_cast<size_t>(index)];
    std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ull +
                        static_cast<uint64_t>(index));
    service::ClientConnection conn(options.host, options.port);
    // Deterministic per-request ids: <prefix>-w<worker>-<seq>. The
    // server echoes the id, logs it on errors, and keys the retained
    // trace by it, so any outlier in this run's report is pullable
    // from /v1/debug/traces afterwards. A template carrying its own
    // X-Request-Id wins (it is sent verbatim AFTER the stamp, but the
    // stamp is skipped to keep exactly one id on the wire).
    uint64_t seq = 0;
    auto headers_for =
        [&](const LoadRequestTemplate& t)
        -> std::vector<std::pair<std::string, std::string>> {
      std::vector<std::pair<std::string, std::string>> out;
      bool has_id = false;
      for (const auto& h : t.headers) {
        if (strcasecmp(h.first.c_str(), "X-Request-Id") == 0) has_id = true;
        out.push_back(h);
      }
      if (!has_id && !options.request_id_prefix.empty()) {
        out.emplace_back(
            "X-Request-Id",
            StringPrintf("%s-w%d-%llu", options.request_id_prefix.c_str(),
                         index, static_cast<unsigned long long>(seq++)));
      }
      return out;
    };
    if (options.mode == LoadOptions::Mode::kClosed) {
      while (MonotonicSeconds() < deadline) {
        const Pick p = pick(rng);
        TenantAcc& ta = acc.tenants[p.tenant];
        ++ta.attempted;
        const double t0 = MonotonicSeconds();
        auto response =
            conn.Post(p.request->path, p.request->body,
                      options.request_timeout_seconds, headers_for(*p.request));
        Classify(response, &ta.classes);
        if (response.ok()) {
          ta.latency.Observe(MonotonicSeconds() - t0);
        }
      }
      return;
    }
    // Open loop.
    for (;;) {
      const uint64_t k = next_arrival.fetch_add(1, std::memory_order_relaxed);
      const double scheduled = start + static_cast<double>(k) / rate;
      if (scheduled >= deadline) return;
      double now = MonotonicSeconds();
      if (scheduled > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(scheduled - now));
        now = MonotonicSeconds();
      } else if (now - scheduled > kBehindScheduleSeconds) {
        ++acc.behind_schedule;
      }
      const Pick p = pick(rng);
      TenantAcc& ta = acc.tenants[p.tenant];
      ++ta.attempted;
      auto response =
          conn.Post(p.request->path, p.request->body,
                    options.request_timeout_seconds, headers_for(*p.request));
      Classify(response, &ta.classes);
      if (response.ok()) {
        // Coordinated-omission corrected: measured from the scheduled
        // arrival, so time spent waiting for a free worker counts.
        ta.latency.Observe(MonotonicSeconds() - scheduled);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back(worker_body, i);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::max(MonotonicSeconds() - start, 1e-9);

  LoadResult result;
  result.mode = options.mode;
  result.duration_seconds = elapsed;
  result.offered_rate = rate;
  result.tenants.resize(options.tenants.size());
  for (size_t ti = 0; ti < options.tenants.size(); ++ti) {
    result.tenants[ti].name = options.tenants[ti].name;
  }
  for (const WorkerAcc& acc : accs) {
    result.behind_schedule += acc.behind_schedule;
    for (size_t ti = 0; ti < acc.tenants.size(); ++ti) {
      const TenantAcc& ta = acc.tenants[ti];
      result.tenants[ti].attempted += ta.attempted;
      result.tenants[ti].classes.Merge(ta.classes);
      result.tenants[ti].latency.Merge(ta.latency);
    }
  }
  std::sort(result.tenants.begin(), result.tenants.end(),
            [](const TenantLoadResult& a, const TenantLoadResult& b) {
              return a.name < b.name;
            });
  for (const TenantLoadResult& t : result.tenants) {
    result.attempted += t.attempted;
    result.classes.Merge(t.classes);
    result.latency.Merge(t.latency);
  }
  result.achieved_rps = static_cast<double>(result.attempted) / elapsed;
  result.ok_rps = static_cast<double>(result.classes.ok_2xx) / elapsed;
  return result;
}

std::string LoadResultToJson(const LoadResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("mode");
  w.String(result.mode == LoadOptions::Mode::kOpen ? "open" : "closed");
  w.Key("duration_seconds");
  w.Double(result.duration_seconds);
  w.Key("offered_rate");
  w.Double(result.offered_rate);
  w.Key("achieved_rps");
  w.Double(result.achieved_rps);
  w.Key("ok_rps");
  w.Double(result.ok_rps);
  w.Key("behind_schedule");
  w.Uint(result.behind_schedule);
  w.Key("attempted");
  w.Uint(result.attempted);
  w.Key("classes");
  WriteClassesJson(result.classes, &w);
  w.Key("latency_ms");
  WriteHistogramJson(result.latency, &w);
  w.Key("tenants");
  w.BeginObject();
  for (const TenantLoadResult& t : result.tenants) {
    w.Key(t.name);
    w.BeginObject();
    w.Key("attempted");
    w.Uint(t.attempted);
    w.Key("classes");
    WriteClassesJson(t.classes, &w);
    w.Key("latency_ms");
    WriteHistogramJson(t.latency, &w);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace harness
}  // namespace qfix
