// Shared types of the qbench program: command-line arguments, the
// per-run recorder (operation counts, latency samples, correctness
// failures, per-layer sums) and the correctness helpers in common.cc.
#ifndef QBENCH_COMMON_H_
#define QBENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "provenance/complaint.h"
#include "relational/database.h"
#include "relational/query.h"

namespace qbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Fewest samples a run's p90 may rest on: fewer leave too few above it.
inline constexpr size_t kMinSamples = 100;

/// Operation kinds every run counts, attempted and failed.
enum class Op { kRegister, kAppend, kCold, kHit, kScrape };
inline constexpr int kNumOps = 5;
const char* OpName(Op op);

/// Latency samples of one operation kind, in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// A running mean of one per-layer quantity.
struct Mean {
  double sum = 0.0;
  double n = 0.0;
  void Add(double v) {
    sum += v;
    n += 1.0;
  }
  double Value() const { return n > 0 ? sum / n : 0.0; }
};

/// Everything one run measures.
struct Recorder {
  std::array<uint64_t, kNumOps> attempted{};
  std::array<uint64_t, kNumOps> failed{};
  Samples cold_ms;
  Samples hit_ms;
  Samples append_ms;
  /// Set-up durations in seconds, one per repetition.
  Samples setup_s;
  /// Wall seconds of the measured phase.
  double phase_seconds = 0.0;
  std::vector<double> f1;
  /// Correctness-check failures (empty means every check passed).
  std::vector<std::string> check_failures;
  /// Per-layer quantities, keyed by the BENCHMARK.json metric name.
  std::map<std::string, Mean> layer;
  /// Free-form lines printed before the result (notes, absences).
  std::vector<std::string> notes;

  void Count(Op op, bool ok) {
    ++attempted[static_cast<int>(op)];
    if (!ok) ++failed[static_cast<int>(op)];
  }
  void CheckFailed(std::string what);
  uint64_t TotalAttempted() const;
  uint64_t TotalFailed() const;
};

/// The workloads. Each generates its inputs from args.seed, runs whole
/// rounds for args.seconds with set-ups (rec->setup_s, several per run)
/// between them, and checks every output, filling `rec`. With
/// args.trace traced and untraced diagnoses alternate through the
/// measured phase, and `rec->layer` gets the per-layer metrics.
void RunSyntheticSolve(const Args& args, Recorder* rec);
void RunOltpWalkback(const Args& args, Recorder* rec);
void RunServeIngest(const Args& args, Recorder* rec);

// ---- correctness helpers, written apart from the library ----

/// Order-sensitive hash of a database state (liveness and every value).
uint64_t StateHash(const qfix::relational::Database& db);

/// The §7.1 accuracy of a repair: replays `repaired` on `d0` and
/// compares tuple-wise against the observed `dirty` state and the
/// generator's `truth`. Precision is over tuples the repair changed,
/// recall over tuples where dirty and truth disagree.
struct Accuracy {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};
Accuracy ScoreRepair(const qfix::relational::Database& repaired_state,
                     const qfix::relational::Database& dirty,
                     const qfix::relational::Database& truth);

/// Empty when every complaint's target holds in `state`, else a
/// description of the first violation.
std::string ComplaintViolation(const qfix::relational::Database& state,
                               const qfix::provenance::ComplaintSet& c);

/// The complaint set that turns `dirty` into `truth` (tuple-wise diff).
qfix::provenance::ComplaintSet Diff(const qfix::relational::Database& dirty,
                                    const qfix::relational::Database& truth);

/// A report with its timing fields ("encode_seconds", "solve_seconds",
/// "total_seconds") blanked, for comparing two solves of one problem.
std::string WithoutTimings(const std::string& report_json);

/// The raw JSON value of `key` in `json` (first occurrence outside a
/// string), or empty when absent.
std::string JsonField(const std::string& json, const std::string& key);

/// One recorded phase span, in the shape both obs::TraceContext and the
/// server's "timings" block carry.
struct Span {
  std::string phase;
  double start_ms = 0.0;
  double ms = 0.0;
  /// Index of the enclosing span, or -1 at top level.
  int parent = -1;
};

/// Per-layer sums over the spans of one diagnosis. Solver children
/// (presolve, root_lp) count under both "solve" and "refine_solve":
/// they are the MILP layer's work whichever caller asked for it.
struct SpanTotals {
  double encode_ms = 0.0;
  double solve_ms = 0.0;
  double refine_encode_ms = 0.0;
  double refine_solve_ms = 0.0;
  double prefix_replay_ms = 0.0;
  double presolve_ms = 0.0;
  double root_lp_ms = 0.0;
  /// Solve span time outside presolve and root_lp: the branch & bound
  /// node loop (its sampled node_batch windows are part of it).
  double node_ms = 0.0;
  int encode_spans = 0;
};
SpanTotals Attribute(const std::vector<Span>& spans);

/// Renders a log as the ';'-separated SQL the server parses.
std::string LogSql(const qfix::relational::QueryLog& log,
                   const qfix::relational::Schema& schema, size_t begin,
                   size_t end);

}  // namespace qbench

#endif  // QBENCH_COMMON_H_
