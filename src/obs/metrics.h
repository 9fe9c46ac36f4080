// obs::MetricsRegistry — the serving stack's telemetry surface.
//
// Lock-cheap by construction: the hot path touches only owned
// instruments, and every owned instrument is a handful of relaxed
// atomics (a Counter is one fetch_add; a Histogram::Observe is a bit
// scan plus two fetch_adds).
// Label families hand out stable instrument pointers, so callers
// resolve labels once at startup and never pay the map lookup per
// request. Subsystems that already accumulate their own stats
// (cache::ReportCache, DatasetRegistry, ingest::EncodingCache,
// TenantGovernor, the server's request counters) register a
// *collector* instead: the registry asks it for samples only at scrape
// time, so nothing is double-accounted and the hot path pays zero.
//
// RenderPrometheus() emits Prometheus text exposition format 0.0.4
// (# HELP/# TYPE lines, escaped label values, cumulative histogram
// buckets with a +Inf bound) — what GET /metrics serves.
//
// ParseExposition()/LintExposition() are the in-repo consumers: the
// round-trip unit tests, the CI serve-smoke lint (no network, so no
// promtool), and `qfix_load --scrape-metrics` all validate the
// exposition with the same code that could mis-render it — a format
// bug fails the build, not the fleet's scraper.
#ifndef QFIX_OBS_METRICS_H_
#define QFIX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qfix {
namespace obs {

/// Monotonically increasing event count. Thread-safe, wait-free.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram, in seconds, with HDR-style log-linear buckets.
/// Values round up to whole microseconds; the first 64 buckets are
/// exact (one per microsecond); beyond them each power-of-two range
/// splits into 32 linear sub-buckets, so a bucket is at most 1/32
/// (~3.1%) of its value wide and Quantile() overshoots by at most that
/// much. The top group reaches past 2^40 us (~12 days).
///
/// Observe() is lock-free: a bit scan for the index, two fetch_adds
/// (bucket, and the sum in nanoseconds), and a CAS loop on the max that
/// only runs on a new maximum. Readers see relaxed snapshots;
/// RenderPrometheus() derives _count from the buckets it read, so a
/// scrape is always internally consistent. /metrics renders the fine
/// buckets summed at the 21 DefaultLatencyBucketEdges(), each an exact
/// bucket edge.
///
/// Exemplars: ObserveWithExemplar() additionally remembers, per
/// rendered bucket, the request id of the worst recent observation —
/// "worst" meaning the largest value to land in that bucket within the
/// last kExemplarHorizonSeconds. The common case (not a new worst) is
/// two relaxed loads; only a new worst pays the exemplar mutex. The
/// renderer emits them as OpenMetrics-style `# {trace_id="..."} v`
/// suffixes on _bucket lines, which links a latency spike in a scrape
/// straight to a retained trace in the flight recorder.
class Histogram {
 public:
  static constexpr int kLinearBuckets = 64;  // 1us-exact region
  static constexpr int kSubBuckets = 32;     // per power-of-two group
  static constexpr int kGroups = 35;         // covers up to 2^40 us
  static constexpr size_t kBuckets =
      kLinearBuckets + static_cast<size_t>(kSubBuckets) * kGroups;
  /// Rendered buckets: the 21 default edges plus +Inf.
  static constexpr size_t kRenderedBuckets = 22;

  /// An exemplar slot's freshness window: a stored worst observation
  /// older than this yields to any newer one, so the exemplar tracks
  /// "recently worst", not "worst ever".
  static constexpr double kExemplarHorizonSeconds = 60.0;

  struct Exemplar {
    double value = 0.0;
    std::string trace_id;  // empty = no exemplar recorded
    bool valid() const { return !trace_id.empty(); }
  };

  Histogram();
  /// Copies counts, sum and max, not exemplars: a value snapshot that
  /// lets per-thread histograms live in containers and be merged.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  /// Negative and infinite values count as 0 seconds; NaN is ignored.
  void Observe(double seconds);
  /// Observe() plus exemplar bookkeeping; `trace_id` empty degrades to
  /// a plain Observe().
  void ObserveWithExemplar(double seconds, std::string_view trace_id);
  /// Adds `other`'s counts, sum and max into this histogram.
  void Merge(const Histogram& other);

  uint64_t Count() const;
  /// Sum of observations, kept in whole nanoseconds.
  double Sum() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  /// Exact (unquantized) largest observation; 0 when empty.
  double Max() const { return max_.load(std::memory_order_relaxed); }
  /// Seconds at quantile `q` in [0, 1]: the upper edge of the bucket
  /// holding the nearest-rank observation, clamped to Max(). 0 when
  /// empty.
  double Quantile(double q) const;

  /// Count of fine bucket `i` (i < kBuckets).
  uint64_t BucketCount(size_t i) const;
  /// Upper edge, in microseconds, of fine bucket `i`.
  static uint64_t UpperEdgeUs(size_t i);
  /// The rendered bucket (index into DefaultLatencyBucketEdges(), or
  /// kRenderedBuckets - 1 for +Inf) that fine bucket `i` sums into.
  static size_t RenderedBucketOf(size_t i);
  /// The exemplar of rendered bucket `i`.
  Exemplar ExemplarFor(size_t i) const;

 private:
  struct ExemplarSlot {
    /// Fast-path filter: current worst value and when it was set.
    std::atomic<double> value{-1.0};
    std::atomic<double> stamp_seconds{0.0};
    /// Guarded by exemplar_mu_ (strings can't be atomic).
    std::string trace_id;
  };

  /// The fine bucket for an observation; clamps it in place to
  /// [0, 1e9] seconds, with infinity counting as 0.
  static size_t BucketFor(double* seconds);
  /// Counts one clamped observation; returns its fine bucket.
  size_t Add(double* seconds);
  void AddSumAndMax(uint64_t sum_ns, double max);

  std::atomic<uint64_t> buckets_[kBuckets];
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<double> max_{0.0};
  mutable std::mutex exemplar_mu_;
  ExemplarSlot exemplars_[kRenderedBuckets];
  /// Set on the first ObserveWithExemplar(): lets the renderer skip
  /// the slot scan for histograms that never carry exemplars.
  std::atomic<bool> has_exemplars_{false};
};

/// Count, max and nearest-rank percentiles (seconds) of one Histogram:
/// the latency blocks of /v1/stats.
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
LatencySummary Summarize(const Histogram& h);

/// The /metrics bucket edges of every Histogram, in seconds: the last
/// 1us-exact bucket, then the top sub-bucket of each power-of-two
/// group, (64 << g) - 1 microseconds, up to ~67s.
const std::vector<double>& DefaultLatencyBucketEdges();

namespace internal {
struct Family;
}  // namespace internal

/// A named counter metric with fixed label names. WithLabels() returns
/// a stable pointer — resolve once, Inc() forever.
class CounterFamily {
 public:
  Counter* WithLabels(std::vector<std::string> label_values);
  /// The label-less series (only valid for families with no labels).
  Counter* Get() { return WithLabels({}); }

 private:
  friend class MetricsRegistry;
  explicit CounterFamily(internal::Family* family) : family_(family) {}
  internal::Family* family_;
};

class HistogramFamily {
 public:
  Histogram* WithLabels(std::vector<std::string> label_values);
  Histogram* Get() { return WithLabels({}); }
  /// The series for `label_values`, or nullptr when it was never
  /// created (readers must not add empty series to the exposition).
  const Histogram* Find(const std::vector<std::string>& label_values) const;

 private:
  friend class MetricsRegistry;
  explicit HistogramFamily(internal::Family* family) : family_(family) {}
  internal::Family* family_;
};

class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// One scrape-time sample a collector emits: label values (in the
  /// family's label-name order) and the value.
  struct Sample {
    std::vector<std::string> label_values;
    double value = 0.0;
  };
  /// A collected family's declaration (see AddCollector).
  struct FamilySpec {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<std::string> label_names;
  };
  /// Fills one sample list per family, in FamilySpec order (`out` comes
  /// pre-sized).
  using CollectFn =
      std::function<void(std::vector<std::vector<Sample>>* out)>;

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register an owned family. Name/label validity and uniqueness are
  /// QFIX_CHECKed — a bad metric name is a programming error, not a
  /// runtime condition. The returned family outlives the registry call
  /// sites (owned by the registry, freed with it).
  CounterFamily* AddCounter(std::string name, std::string help,
                            std::vector<std::string> label_names = {});
  /// Histogram families all share Histogram's fixed bucket layout.
  HistogramFamily* AddHistogram(std::string name, std::string help,
                                std::vector<std::string> label_names = {});

  /// Scrape-time counter or gauge families fed by one `fn`, which runs
  /// once per RenderPrometheus(): the families render from one
  /// snapshot per scrape. This is how subsystems with their own stats
  /// structs export without a second set of counters on the hot path.
  void AddCollector(std::vector<FamilySpec> families, CollectFn fn);

  /// Prometheus text exposition format 0.0.4, families sorted by name,
  /// series sorted by label values.
  std::string RenderPrometheus() const;

 private:
  internal::Family* AddFamily(std::string name, std::string help, Kind kind,
                              std::vector<std::string> label_names);

  mutable std::mutex mu_;  // guards families_ layout (not instrument values)
  std::map<std::string, std::unique_ptr<internal::Family>> families_;
  std::vector<std::unique_ptr<CounterFamily>> counter_handles_;
  std::vector<std::unique_ptr<HistogramFamily>> histogram_handles_;
};

/// True for a legal Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool ValidMetricName(std::string_view name);
/// True for a legal label name: [a-zA-Z_][a-zA-Z0-9_]* (not __-prefixed).
bool ValidLabelName(std::string_view name);

// ---------------------------------------------------------------------------
// Exposition parsing + lint (test/CI/load-generator consumers)

struct ParsedSample {
  std::string name;
  /// In source order; values are unescaped.
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  int line = 0;
  /// OpenMetrics-style exemplar suffix (`# {labels} value`), when the
  /// sample carried one.
  bool has_exemplar = false;
  std::vector<std::pair<std::string, std::string>> exemplar_labels;
  double exemplar_value = 0.0;

  /// Label value by name, or nullptr.
  const std::string* FindLabel(std::string_view name) const;
  /// Exemplar label value by name, or nullptr.
  const std::string* FindExemplarLabel(std::string_view name) const;
};

struct ParsedExposition {
  /// Family name -> declared TYPE ("counter", "gauge", "histogram", ...).
  std::map<std::string, std::string> types;
  /// Family name -> HELP text (unescaped).
  std::map<std::string, std::string> help;
  /// 1-based line number of each family's # TYPE declaration.
  std::map<std::string, int> type_line;
  std::vector<ParsedSample> samples;
};

/// Parses text exposition format. Fails with InvalidArgument (naming
/// the line) on malformed lines, bad escapes, or unparseable values.
Result<ParsedExposition> ParseExposition(std::string_view text);

/// Strict format lint over one exposition payload:
///   * parses cleanly; every metric and label name is legal;
///   * every sample belongs to a family whose # TYPE precedes it;
///   * no duplicate series (same name + label set);
///   * counter samples are finite and non-negative;
///   * histograms: per label set, `le` bounds strictly ascending with a
///     +Inf bucket, cumulative bucket counts non-decreasing, _count
///     equal to the +Inf bucket, and _sum present;
///   * exemplars only on _bucket series, with legal label names and an
///     exemplar value within the bucket's `le` bound.
/// OK means a Prometheus scraper will ingest the payload verbatim.
Status LintExposition(std::string_view text);

}  // namespace obs
}  // namespace qfix

#endif  // QFIX_OBS_METRICS_H_
