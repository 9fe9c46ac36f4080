// Reusable load-generation harness for the diagnosis service — the
// library under tools/qfix_load and tests/load_test.cc.
//
// Two arrival processes:
//   * Closed loop: `concurrency` workers, each a keep-alive connection
//     issuing its next request the moment the previous one answers.
//     Offered load adapts to the server (classic benchmark mode); the
//     steady-state in-flight count equals the worker count.
//   * Open loop: requests are scheduled on a fixed global timetable
//     t_k = start + k/rate regardless of how the server is doing —
//     the only honest way to measure an overloaded server. Latency is
//     measured from the SCHEDULED arrival, not the actual send
//     (coordinated-omission correction): a stalled worker's queueing
//     delay lands in the percentiles instead of silently thinning the
//     offered load.
//
// Traffic shape: a weighted tenant mix, each tenant a weighted set of
// request templates (register / diagnose / cached-hit replay / debug
// sleep — whatever the caller encodes as path+body). Results come back
// per error class (2xx / 429 shed / other 4xx / 5xx / transport) and
// as latency histograms (obs::Histogram, the server's own HDR layout:
// p50..p99.9 within 3.1%), overall and per tenant, with a JSON
// rendering compatible with bench_results/. Each worker records into
// its own histograms; the driver merges them after join.
#ifndef QFIX_HARNESS_LOADGEN_H_
#define QFIX_HARNESS_LOADGEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace qfix {
namespace harness {

/// One request template a tenant issues (POST `body` to `path`).
struct LoadRequestTemplate {
  std::string path;
  std::string body;
  /// Relative pick weight within the tenant's mix.
  int weight = 1;
  /// Extra headers sent verbatim with every instance of this template.
  /// An X-Request-Id here overrides the generator's per-request stamp.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// One tenant's traffic: a share of the overall mix plus its own
/// request templates.
struct LoadTenantSpec {
  std::string name;
  /// Relative share of the overall request stream.
  int weight = 1;
  std::vector<LoadRequestTemplate> requests;
};

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  enum class Mode { kClosed, kOpen };
  Mode mode = Mode::kClosed;
  double duration_seconds = 10.0;
  /// Workers (each one keep-alive connection). Closed loop: the target
  /// in-flight count. Open loop: the senders draining the timetable —
  /// size it above rate * expected_latency or the harness itself falls
  /// behind schedule (reported, never hidden).
  int concurrency = 4;
  /// Open loop only: offered request rate over all tenants.
  double rate_per_second = 100.0;
  double request_timeout_seconds = 30.0;
  uint64_t seed = 1;
  /// Every request is stamped with a deterministic
  /// `X-Request-Id: <prefix>-w<worker>-<seq>` so a latency outlier in
  /// the load report correlates with the server's logs and its
  /// retained trace in /v1/debug/traces. Empty disables the stamp
  /// (templates may still carry their own).
  std::string request_id_prefix = "load";
  std::vector<LoadTenantSpec> tenants;
};

struct ErrorClassCounts {
  uint64_t ok_2xx = 0;
  /// Admission sheds — the ONLY error class an overloaded server is
  /// allowed to produce.
  uint64_t shed_429 = 0;
  uint64_t err_4xx = 0;  // 4xx other than 429
  uint64_t err_5xx = 0;
  /// Connect/send/recv/timeout failures (no HTTP status came back).
  uint64_t transport = 0;

  uint64_t total() const {
    return ok_2xx + shed_429 + err_4xx + err_5xx + transport;
  }
  void Merge(const ErrorClassCounts& other);
};

struct TenantLoadResult {
  std::string name;
  uint64_t attempted = 0;
  ErrorClassCounts classes;
  obs::Histogram latency;
};

struct LoadResult {
  LoadOptions::Mode mode = LoadOptions::Mode::kClosed;
  /// Wall-clock the run actually took (>= the configured duration).
  double duration_seconds = 0.0;
  uint64_t attempted = 0;
  ErrorClassCounts classes;
  /// Overall latency; open loop measures from the scheduled arrival.
  obs::Histogram latency;
  /// Per-tenant breakdown, sorted by name.
  std::vector<TenantLoadResult> tenants;
  /// Open loop: the configured timetable rate (0 for closed loop).
  double offered_rate = 0.0;
  /// Requests attempted / elapsed, and 2xx answered / elapsed.
  double achieved_rps = 0.0;
  double ok_rps = 0.0;
  /// Open loop: sends that left more than 10ms after their scheduled
  /// slot — nonzero means the HARNESS (rate vs concurrency) is the
  /// bottleneck and percentiles include self-inflicted queueing.
  uint64_t behind_schedule = 0;
};

/// Runs the load and blocks until the duration elapses and every
/// in-flight request settles. Tenants must be non-empty and each must
/// have at least one request template.
LoadResult RunLoad(const LoadOptions& options);

/// bench_results/-style JSON rendering (latencies in milliseconds).
std::string LoadResultToJson(const LoadResult& result);

}  // namespace harness
}  // namespace qfix

#endif  // QFIX_HARNESS_LOADGEN_H_
