// TraceRecorder — the flight recorder behind GET /v1/debug/traces.
//
// A fixed-byte-budget ring buffer of *completed* request traces with
// tail-based sampling: the retention decision is made when the request
// finishes (its outcome and duration are known), not when it starts.
// Slow (>= the configured threshold), errored, and shed requests are
// retained with probability 1.0 — those are the requests an operator
// asks about — while fast-and-fine traffic is down-sampled to a
// configurable probability so the ring holds history instead of noise.
// The watchdog (obs/watchdog.h) can additionally pin a request id
// before its trace completes (ForceRetain); the trace is then kept
// regardless of sampling when it lands.
//
// Lock-cheap by construction: the sampling decision for the common
// drop case (ok-fast trace, probability miss, no pin outstanding) is
// one relaxed atomic read plus one hash — no lock is taken and the
// trace is never copied. Only retained traces pay the mutex + deque
// push; snapshots copy out under the same mutex (debug-endpoint rate,
// not request rate).
//
// Retention probability for the fast path is deterministic per
// recorder: a SplitMix64 hash over an atomic sequence number, so unit
// tests can assert exact guarantees (p=1.0 keeps everything, p=0.0
// keeps nothing, slow/error/shed always survive).
#ifndef QFIX_OBS_RECORDER_H_
#define QFIX_OBS_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace qfix {
namespace obs {

/// How a recorded request ended. kSlow means "completed OK but at or
/// over the slow threshold" — slowness outranks plain success so the
/// traces an operator filters for are labeled as such.
enum class TraceOutcome { kOk, kSlow, kError, kShed };

/// "ok" / "slow" / "error" / "shed".
const char* TraceOutcomeName(TraceOutcome outcome);
/// Parses an outcome name; false on unknown input (out untouched).
bool ParseTraceOutcome(std::string_view name, TraceOutcome* out);

/// One completed request's trace, as kept by the ring.
struct RetainedTrace {
  std::string request_id;
  std::string tenant;
  std::string dataset;
  std::string endpoint;
  TraceOutcome outcome = TraceOutcome::kOk;
  int http_status = 200;
  double duration_seconds = 0.0;
  /// Wall-clock (unix) seconds when the trace was recorded; for
  /// operator display only, never compared against the monotonic span
  /// offsets.
  double recorded_unix_seconds = 0.0;
  /// True when retention was forced (watchdog pin), not earned by the
  /// outcome or the sampler.
  bool forced = false;
  /// Why the trace survived: "slow", "error", "shed", "sampled", or
  /// the watchdog's pin reason (e.g. "stall:solve_deadline").
  std::string retain_reason;
  std::vector<TraceSpan> spans;
  /// Spans the trace dropped past TraceContext::kMaxSpans.
  uint64_t dropped_spans = 0;

  /// Heap-aware size estimate used against the ring's byte budget.
  size_t ApproxBytes() const;
};

class TraceRecorder {
 public:
  struct Options {
    /// Ring budget over RetainedTrace::ApproxBytes(); the oldest
    /// traces are evicted to fit. Minimum one trace is always kept.
    size_t byte_budget = 4 * 1024 * 1024;
    /// Retention probability for ok-fast traces in [0, 1]. Slow,
    /// errored, shed, and pinned traces ignore it (always kept).
    double sample_probability = 0.0;
    /// Completed-OK requests with duration >= this are classified
    /// kSlow and always retained. 0 disables slowness classification.
    double slow_threshold_seconds = 0.0;
  };

  struct Stats {
    /// Completed traces offered to Record().
    uint64_t recorded_total = 0;
    /// Traces that entered the ring (including since-evicted ones).
    uint64_t retained_total = 0;
    /// Ok-fast traces the sampler dropped.
    uint64_t sampled_out_total = 0;
    /// Traces kept only because a watchdog pin matched.
    uint64_t forced_total = 0;
    /// Traces pushed out by the byte budget.
    uint64_t evicted_total = 0;
    /// Current ring occupancy.
    size_t buffered = 0;
    size_t buffered_bytes = 0;
    size_t byte_budget = 0;
  };

  explicit TraceRecorder(Options options);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Classifies (outcome upgrade to kSlow happens here), decides
  /// retention, and stores the trace if it survives. Returns true when
  /// the trace was retained. Thread-safe; the common drop path takes
  /// no lock.
  bool Record(RetainedTrace trace);

  /// Pins `request_id`: when its completed trace arrives it is
  /// retained regardless of sampling, marked forced, carrying
  /// `reason`. Bounded (oldest pin dropped past 64); a pin is consumed
  /// by the matching Record(). Re-pinning an id refreshes its reason.
  void ForceRetain(const std::string& request_id, std::string reason);

  struct Filter {
    /// Empty matches any.
    std::string tenant;
    std::string dataset;
    double min_duration_seconds = 0.0;
    bool has_outcome = false;
    TraceOutcome outcome = TraceOutcome::kOk;
    /// Maximum traces returned (newest first).
    size_t limit = 64;
  };
  /// Matching traces, newest first.
  std::vector<RetainedTrace> Snapshot(const Filter& filter) const;

  Stats stats() const;

 private:
  bool SampledIn();

  const Options options_;
  /// Nonzero when any pin is outstanding: lets the hot drop path skip
  /// the pin-table lock entirely.
  std::atomic<int> pins_outstanding_{0};
  std::atomic<uint64_t> sample_seq_{0};
  std::atomic<uint64_t> recorded_total_{0};
  std::atomic<uint64_t> sampled_out_total_{0};

  mutable std::mutex mu_;
  std::deque<RetainedTrace> ring_;  // oldest at front
  size_t ring_bytes_ = 0;
  uint64_t retained_total_ = 0;
  uint64_t forced_total_ = 0;
  uint64_t evicted_total_ = 0;
  /// (request_id, reason), oldest first, bounded at kMaxPins.
  std::vector<std::pair<std::string, std::string>> pins_;
  static constexpr size_t kMaxPins = 64;
};

}  // namespace obs
}  // namespace qfix

#endif  // QFIX_OBS_RECORDER_H_
