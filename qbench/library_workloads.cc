// The library workloads, synthetic_solve and oltp_walkback.
//
// Both call the public library API on one thread: snapshots are built
// with cache::MakeSnapshot and grown with cache::AppendSnapshot, and
// every diagnosis goes through qfixcore::BatchDiagnoser in its serial
// mode (jobs = 0, MilpOptions::jobs = 1) with a cache::ReportCache and
// an ingest::EncodingCache at the server's default budgets.
//
// A lineage is one dataset: it is registered as a prefix of its log,
// grows by appended batches to the full log, and is then diagnosed cold
// (a report-cache miss) and kHitRepeats more times as hits. A round
// re-registers every lineage under its name, which mints a new snapshot
// root, so each round's diagnoses miss both caches exactly as the first
// did and every round does the same work.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cache/report_cache.h"
#include "cache/snapshot.h"
#include "common.h"
#include "common/timer.h"
#include "ingest/encoding_cache.h"
#include "obs/trace.h"
#include "provenance/impact.h"
#include "qfix/batch.h"
#include "qfix/qfix.h"
#include "qfix/report_json.h"
#include "relational/executor.h"
#include "workload/synthetic.h"
#include "workload/tatp_like.h"
#include "workload/tpcc_like.h"

namespace qbench {
namespace {

namespace cache = qfix::cache;
namespace ingest = qfix::ingest;
namespace qfixcore = qfix::qfixcore;
namespace relational = qfix::relational;
namespace workload = qfix::workload;
using qfix::WallTimer;

// The server's defaults (ServerOptions::cache_bytes and
// ServerOptions::encoding_cache_bytes).
constexpr size_t kReportCacheBytes = 64u << 20;
constexpr size_t kEncodingCacheBytes = 16u << 20;
// Far above every item's cost, so no answer depends on the clock.
constexpr double kTimeLimitSeconds = 30.0;
// The measured phase runs on past --seconds, up to this factor, until
// it has kMinSamples cold samples.
constexpr double kMaxPhaseFactor = 2.0;
// Repeats of each cold diagnosis, answered by the report cache.
constexpr int kHitRepeats = 5;
// Set-ups before each round. One set-up's time swings by about 30%
// from one to the next; the median of three a round steadies setup_s.
constexpr int kSetupsPerRound = 3;

struct Lineage {
  std::string name;
  std::string label;
  relational::Database d0;
  relational::QueryLog log;
  /// The generator's states after the full log: observed and true.
  relational::Database dirty;
  relational::Database truth;
  qfix::provenance::ComplaintSet complaints;
  size_t corrupted = 0;
  size_t prefix = 0;
  size_t batch = 0;
  /// StateHash of the expected dirty state after registration and
  /// after each append, from the benchmark's own replay.
  std::vector<uint64_t> hashes;
  qfixcore::QFixOptions options;
  /// 1: Inc_1; 0: RepairBasic.
  int k = 1;
  /// An item that fails every time today; its failure is counted, not
  /// treated as a broken check.
  bool known_failure = false;
};

Lineage MakeLineage(std::string name, std::string label,
                    workload::Scenario s, size_t prefix, size_t batch) {
  Lineage l;
  l.name = std::move(name);
  l.label = std::move(label);
  l.corrupted = s.corrupted_queries.at(0);
  l.prefix = std::min(prefix, s.dirty_log.size());
  l.batch = std::max<size_t>(batch, 1);
  relational::Database state = s.d0.Clone();
  for (size_t i = 0; i < s.dirty_log.size(); ++i) {
    if (i == l.prefix ||
        (i > l.prefix && (i - l.prefix) % l.batch == 0)) {
      l.hashes.push_back(StateHash(state));
    }
    relational::ApplyQuery(s.dirty_log[i], state);
  }
  l.hashes.push_back(StateHash(state));
  l.d0 = std::move(s.d0);
  l.log = std::move(s.dirty_log);
  l.dirty = std::move(s.dirty);
  l.truth = std::move(s.truth);
  l.complaints = std::move(s.complaints);
  l.options.time_limit_seconds = kTimeLimitSeconds;
  l.options.milp.jobs = 1;
  return l;
}

std::vector<Span> SpansOf(const qfix::obs::TraceContext& trace) {
  std::vector<Span> out;
  for (const qfix::obs::TraceSpan& s : trace.spans()) {
    out.push_back(Span{s.phase, s.start_seconds * 1e3,
                       s.DurationSeconds() * 1e3, s.parent});
  }
  return out;
}

class LibraryBench {
 public:
  /// `one_shot_label` names the lineage, a cheap one that never fails,
  /// whose appended report is compared with a one-shot registration's.
  LibraryBench(std::vector<Lineage> lineages, std::string one_shot_label,
               Recorder* rec)
      : lineages_(std::move(lineages)),
        one_shot_label_(std::move(one_shot_label)),
        rec_(rec),
        item_cold_(lineages_.size()),
        item_hit_(lineages_.size()),
        item_append_(lineages_.size()),
        item_failures_(lineages_.size()),
        traced_cold_(lineages_.size()),
        untraced_cold_(lineages_.size()) {}

  void Run(const Args& args) {
    // The measured phase is the rounds' wall time; set-ups run between
    // rounds, outside it. Set-ups before every round: the machine's
    // speed drifts over seconds, and set-ups spread over the phase see
    // the same drift the rounds do. A traced run needs two rounds, so
    // each lineage is diagnosed both traced and untraced.
    double phase_seconds = 0.0;
    std::string round_seconds, setup_seconds;
    for (;;) {
      for (int i = 0; i < kSetupsPerRound; ++i) {
        const double setup = SetupOnce();
        rec_->setup_s.Add(setup);
        setup_seconds += " " + std::to_string(setup);
      }
      WallTimer round;
      Round(args.trace);
      phase_seconds += round.ElapsedSeconds();
      round_seconds += " " + std::to_string(round.ElapsedSeconds());
      ++rounds_;
      if (phase_seconds < args.seconds) continue;
      if (args.trace && rounds_ < 2) continue;
      if (rec_->cold_ms.size() < kMinSamples &&
          phase_seconds < kMaxPhaseFactor * args.seconds) {
        continue;
      }
      break;
    }
    rec_->phase_seconds = phase_seconds;
    rec_->notes.push_back("rounds: " + std::to_string(rounds_) +
                          "; seconds:" + round_seconds);
    rec_->notes.push_back("set-ups, seconds:" + setup_seconds);
    CheckRepairs();
    CheckOneShot();
    NoteItems();
    if (args.trace) FinishLayers();
  }

 private:
  double SetupOnce() {
    double seconds = 0.0;
    for (const Lineage& l : lineages_) {
      relational::QueryLog prefix(l.log.begin(), l.log.begin() + l.prefix);
      relational::Database d0 = l.d0.Clone();
      WallTimer t;
      cache::Snapshot snap =
          cache::MakeSnapshot(std::move(prefix), std::move(d0), l.name);
      seconds += t.ElapsedSeconds();
    }
    return seconds;
  }

  // In a traced run every other lineage is traced, alternating by
  // round: traced and untraced diagnoses of the same inputs come from
  // the same seconds.
  void Round(bool trace) {
    for (size_t i = 0; i < lineages_.size(); ++i) {
      RunLineage(i, trace && (rounds_ + i) % 2 == 1);
    }
  }

  void RunLineage(size_t li, bool traced) {
    const Lineage& l = lineages_[li];
    // Re-registration: what the server's registry does on a replaced
    // name (both caches drop the old lineage).
    report_cache_.EraseDataset(l.name);
    encoding_cache_.EraseDataset(l.name);
    relational::QueryLog prefix(l.log.begin(), l.log.begin() + l.prefix);
    relational::Database d0 = l.d0.Clone();
    cache::Snapshot snap =
        cache::MakeSnapshot(std::move(prefix), std::move(d0), l.name);
    rec_->Count(Op::kRegister, true);
    size_t step = 0;
    if (StateHash(snap->dirty) != l.hashes[step]) {
      rec_->CheckFailed(l.label + ": registered dirty state differs from "
                        "a one-shot replay of its prefix");
    }
    for (size_t begin = l.prefix; begin < l.log.size(); begin += l.batch) {
      const size_t end = std::min(begin + l.batch, l.log.size());
      relational::QueryLog tail(l.log.begin() + begin, l.log.begin() + end);
      WallTimer t;
      snap = cache::AppendSnapshot(snap, std::move(tail));
      const double ms = t.ElapsedMillis();
      rec_->Count(Op::kAppend, true);
      rec_->append_ms.Add(ms);
      item_append_[li].Add(ms);
      if (traced) rec_->layer["ingest.append_ms"].Add(ms);
      if (StateHash(snap->dirty) != l.hashes[++step]) {
        rec_->CheckFailed(l.label + ": dirty state after append " +
                          std::to_string(step) +
                          " differs from a one-shot replay");
      }
    }
    Diagnose(li, snap, traced);
  }

  void Diagnose(size_t li, const cache::Snapshot& snap, bool traced) {
    const Lineage& l = lineages_[li];
    qfixcore::QFixOptions options = l.options;
    options.encoding_cache = &encoding_cache_;
    qfix::obs::TraceContext trace("qbench");
    if (traced) options.milp.trace = &trace;
    qfixcore::BatchOptions batch;
    batch.jobs = 0;
    batch.report_cache = &report_cache_;
    qfixcore::BatchDiagnoser diagnoser(batch);
    std::vector<qfixcore::BatchItem> items{
        qfixcore::MakeBatchItem(snap, l.complaints, options, l.k)};

    WallTimer cold_timer;
    std::vector<qfix::Result<qfixcore::Repair>> cold = diagnoser.Run(items);
    const double cold_ms = cold_timer.ElapsedMillis();
    if (!cold[0].ok()) {
      rec_->Count(Op::kCold, false);
      ++item_failures_[li];
      if (!(l.known_failure && cold[0].status().IsResourceExhausted())) {
        rec_->CheckFailed(l.label + ": cold diagnosis failed: " +
                          cold[0].status().ToString());
      }
      return;
    }
    const qfixcore::Repair& repair = *cold[0];
    rec_->Count(Op::kCold, true);
    rec_->cold_ms.Add(cold_ms);
    item_cold_[li].Add(cold_ms);
    (traced ? traced_cold_ : untraced_cold_)[li].Add(cold_ms);
    if (traced) AddLayers(repair.stats, cold_ms, trace);

    if (repair.from_cache) {
      rec_->CheckFailed(l.label + ": cold diagnosis came from the cache");
    }
    if (!repair.stats.optimal) {
      rec_->CheckFailed(l.label + ": repair not proven optimal");
    }
    if (std::find(repair.changed_queries.begin(),
                  repair.changed_queries.end(),
                  l.corrupted) == repair.changed_queries.end()) {
      std::string changed;
      for (size_t q : repair.changed_queries) {
        changed += " q" + std::to_string(q);
      }
      rec_->CheckFailed(l.label + ": repair leaves the corrupted query q" +
                        std::to_string(l.corrupted) +
                        " unchanged; it changes" + changed);
    }
    const std::string report = qfixcore::RepairToJson(
        repair, snap->log, snap->d0(), snap->dirty, l.complaints);
    const std::string key = WithoutTimings(report);
    cold_keys_.emplace_back(li, key);
    outcomes_.emplace(std::make_pair(li, key), repair.log);
    if (l.label == one_shot_label_ && lineage_report_.empty()) {
      lineage_report_ = key;
    }

    // The first repeat finds the lookup path cold in the CPU caches
    // after the diagnosis; the later ones show the warm path.
    for (int repeat = 0; repeat < kHitRepeats; ++repeat) {
      WallTimer hit_timer;
      std::vector<qfix::Result<qfixcore::Repair>> hit = diagnoser.Run(items);
      const double hit_ms = hit_timer.ElapsedMillis();
      const bool hit_ok = hit[0].ok() && hit[0]->from_cache;
      rec_->Count(Op::kHit, hit_ok);
      if (!hit_ok) {
        rec_->CheckFailed(l.label + ": repeat diagnosis was not a cache hit");
        return;
      }
      rec_->hit_ms.Add(hit_ms);
      item_hit_[li].Add(hit_ms);
      if (qfixcore::RepairToJson(*hit[0], snap->log, snap->d0(), snap->dirty,
                                 l.complaints) != report) {
        rec_->CheckFailed(l.label + ": hit report differs from cold report");
      }
    }
    if (traced) {
      WallTimer lookup;
      bool found = report_cache_.Peek(qfixcore::ItemCacheKey(items[0])) !=
                   nullptr;
      rec_->layer["cache.lookup_us"].Add(lookup.ElapsedSeconds() * 1e6);
      ++peeks_;
      if (!found) rec_->CheckFailed(l.label + ": cached report vanished");
    }
  }

  void AddLayers(const qfixcore::RepairStats& st, double call_ms,
                 const qfix::obs::TraceContext& trace) {
    auto add = [this](const char* name, double v) {
      rec_->layer[name].Add(v);
    };
    add("qfix.attempts", st.attempts);
    add("milp.nodes", static_cast<double>(st.solver_nodes));
    add("milp.lp_iterations", static_cast<double>(st.lp_iterations));
    lp_iterations_ += static_cast<double>(st.lp_iterations);
    nodes_ += static_cast<double>(st.solver_nodes);
    add("qfix.encoded_tuples", static_cast<double>(st.encoded_tuples));
    add("qfix.milp_rows", st.num_constraints);
    add("qfix.other_ms",
        call_ms - (st.encode_seconds + st.solve_seconds) * 1e3);
    // TraceContext keeps at most kMaxSpans spans; a long walk-back
    // overflows it. RepairStats' encode/solve totals include refinement,
    // so they split exactly only when the trace is whole or nothing
    // was refined.
    const bool whole = trace.dropped_spans() == 0;
    if (!whole) ++truncated_traces_;
    const SpanTotals t = whole ? Attribute(SpansOf(trace)) : SpanTotals{};
    if (whole || !st.refined) {
      add("qfix.encode_ms", st.encode_seconds * 1e3 - t.refine_encode_ms);
      add("qfix.solve_ms", st.solve_seconds * 1e3 - t.refine_solve_ms);
      add("qfix.refine_ms", t.refine_encode_ms + t.refine_solve_ms);
    }
    if (whole) {
      add("milp.presolve_ms", t.presolve_ms);
      add("milp.root_lp_ms", t.root_lp_ms);
      add("milp.node_ms", t.node_ms);
      add("ingest.prefix_replay_ms", t.prefix_replay_ms);
    }
  }

  // Replays each distinct repaired log once: complaint targets and F1.
  void CheckRepairs() {
    std::map<std::pair<size_t, std::string>, double> f1;
    for (const auto& [key, log] : outcomes_) {
      const Lineage& l = lineages_[key.first];
      relational::Database state = relational::ExecuteLog(log, l.d0);
      std::string bad = ComplaintViolation(state, l.complaints);
      if (!bad.empty()) rec_->CheckFailed(l.label + ": " + bad);
      f1[key] = ScoreRepair(state, l.dirty, l.truth).f1;
    }
    for (const auto& key : cold_keys_) rec_->f1.push_back(f1[key]);
    std::map<size_t, int> distinct;
    for (const auto& entry : outcomes_) ++distinct[entry.first.first];
    for (const auto& [li, n] : distinct) {
      if (n > 1) {
        rec_->CheckFailed(lineages_[li].label + ": " + std::to_string(n) +
                          " different repairs across rounds");
      }
    }
  }

  // The one-shot lineage diagnosed from a one-shot registration of its
  // full log must report what its appended lineage reported.
  void CheckOneShot() {
    auto it = std::find_if(
        lineages_.begin(), lineages_.end(),
        [this](const Lineage& l) { return l.label == one_shot_label_; });
    if (it == lineages_.end() || lineage_report_.empty()) {
      rec_->CheckFailed(one_shot_label_ +
                        ": no appended lineage report to compare");
      return;
    }
    const Lineage& l = *it;
    cache::Snapshot snap = cache::MakeSnapshot(l.log, l.d0.Clone(),
                                               l.name + "/one-shot");
    qfixcore::QFixEngine engine(snap, l.complaints, l.options);
    auto repair = l.k > 0 ? engine.RepairIncremental(l.k)
                          : engine.RepairBasic();
    if (!repair.ok()) {
      rec_->CheckFailed(l.label + ": one-shot diagnosis failed");
      return;
    }
    std::string one_shot = WithoutTimings(qfixcore::RepairToJson(
        *repair, snap->log, snap->d0(), snap->dirty, l.complaints));
    if (one_shot != lineage_report_) {
      rec_->CheckFailed(l.label +
                        ": appended lineage's report differs from the "
                        "one-shot registration's");
    }
  }

  void NoteItems() {
    for (size_t i = 0; i < lineages_.size(); ++i) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "item %s: cold p50 %.1f ms over %zu, %d failed; hit p50 "
                    "%.4f ms; append p50 %.3f ms",
                    lineages_[i].label.c_str(), item_cold_[i].Quantile(0.5),
                    item_cold_[i].size(), item_failures_[i],
                    item_hit_[i].Quantile(0.5), item_append_[i].Quantile(0.5));
      rec_->notes.push_back(line);
    }
    const auto rc = report_cache_.stats();
    const auto ec = encoding_cache_.stats();
    char line[256];
    std::snprintf(line, sizeof(line),
                  "report cache: %zu bytes in %zu entries of %zu budget; "
                  "encoding cache: %zu bytes of %zu budget, %llu evictions",
                  rc.bytes, rc.entries, rc.capacity_bytes, ec.bytes,
                  ec.capacity_bytes,
                  static_cast<unsigned long long>(ec.evictions));
    rec_->notes.push_back(line);
  }

  void FinishLayers() {
    const auto rc = report_cache_.stats();
    const auto ec = encoding_cache_.stats();
    // The cache counts the benchmark's own Peek() probes as hits.
    const double hits = static_cast<double>(rc.hits - peeks_);
    rec_->layer["cache.hit_ratio"].Add(
        hits + rc.misses > 0 ? hits / (hits + rc.misses) : 0.0);
    rec_->layer["ingest.prefix_reuse_ratio"].Add(
        ec.hits + ec.misses > 0
            ? static_cast<double>(ec.hits) / (ec.hits + ec.misses)
            : 0.0);
    rec_->layer["milp.lp_iter_per_node"].Add(
        nodes_ > 0 ? lp_iterations_ / nodes_ : 0.0);
    // Layers timed from outside: one full replay and one impact
    // analysis per lineage.
    for (const Lineage& l : lineages_) {
      WallTimer replay;
      relational::Database state = relational::ExecuteLog(l.log, l.d0);
      rec_->layer["relational.replay_ms"].Add(replay.ElapsedMillis());
      WallTimer impacts;
      auto full = qfix::provenance::ComputeFullImpacts(
          l.log, l.d0.schema().num_attrs());
      rec_->layer["provenance.impacts_ms"].Add(impacts.ElapsedMillis());
    }
    // Per lineage, the median traced against the median untraced cold
    // latency; summed, so each lineage weighs by its cost.
    double traced = 0.0, untraced = 0.0;
    for (size_t i = 0; i < lineages_.size(); ++i) {
      if (traced_cold_[i].size() == 0 || untraced_cold_[i].size() == 0) {
        continue;
      }
      traced += traced_cold_[i].Quantile(0.5);
      untraced += untraced_cold_[i].Quantile(0.5);
    }
    if (untraced > 0) {
      rec_->layer["obs.trace_overhead_pct"].Add((traced / untraced - 1) *
                                                100);
    }
    rec_->notes.push_back(
        "traced cold diagnoses whose trace overflowed the span cap (their "
        "span-only layers are left out): " +
        std::to_string(truncated_traces_));
  }

  std::vector<Lineage> lineages_;
  const std::string one_shot_label_;
  Recorder* rec_;
  cache::ReportCache report_cache_{kReportCacheBytes};
  ingest::EncodingCache encoding_cache_{kEncodingCacheBytes};
  /// (lineage, report without timings) of every cold repair, in order.
  std::vector<std::pair<size_t, std::string>> cold_keys_;
  /// The repaired log of each distinct (lineage, report).
  std::map<std::pair<size_t, std::string>, relational::QueryLog> outcomes_;
  std::string lineage_report_;
  /// Cold, hit and append latencies and failed cold diagnoses per
  /// lineage.
  std::vector<Samples> item_cold_;
  std::vector<Samples> item_hit_;
  std::vector<Samples> item_append_;
  std::vector<int> item_failures_;
  /// Cold latencies of a traced run per lineage, with and without
  /// tracing.
  std::vector<Samples> traced_cold_, untraced_cold_;
  int rounds_ = 0;
  double lp_iterations_ = 0.0, nodes_ = 0.0;
  int truncated_traces_ = 0;
  uint64_t peeks_ = 0;
};

}  // namespace

void RunSyntheticSolve(const Args& args, Recorder* rec) {
  WallTimer generation;
  std::vector<Lineage> lineages;
  // Fig. 8a: N_a = 10, V_d = N_D (a fixed complaint count), r = 10,
  // 40 queries; "recent" corrupts q32, "old" corrupts q8.
  auto fig8 = [&](size_t nd, bool old, uint64_t seed) {
    workload::SyntheticSpec spec;
    spec.num_tuples = nd;
    spec.num_attrs = 10;
    spec.value_domain = static_cast<double>(nd);
    spec.range_size = 10.0;
    spec.num_queries = 40;
    workload::Scenario s =
        workload::MakeSyntheticScenario(spec, {old ? 8u : 32u}, seed);
    std::string tag = std::to_string(nd) + (old ? "-old-" : "-recent-") +
                      std::to_string(seed);
    // Fewer appends for the larger tables keep the append p90 inside the
    // N_D = 10000 appends rather than on the edge of the 50000 ones.
    const size_t prefix = nd == 1000 ? 10 : nd == 10000 ? 20 : 30;
    lineages.push_back(MakeLineage("synthetic/" + tag, "fig8 " + tag,
                                   std::move(s), prefix, /*batch=*/10));
  };
  // Fig. 4 basic mode: every query parameterized, no slicing.
  auto fig4 = [&](size_t nq, uint64_t seed, bool known_failure) {
    workload::SyntheticSpec spec;
    spec.num_tuples = 12;
    spec.num_attrs = 5;
    spec.value_domain = 50;
    spec.range_size = 8;
    spec.num_queries = nq;
    workload::Scenario s = workload::MakeSyntheticScenario(spec, {0}, seed);
    std::string tag = std::to_string(nq) + "-" + std::to_string(seed);
    Lineage l = MakeLineage("basic/" + tag, "fig4 basic " + tag,
                            std::move(s), /*prefix=*/3, /*batch=*/3);
    l.k = 0;
    l.options.tuple_slicing = false;
    l.options.query_slicing = false;
    l.options.attribute_slicing = false;
    l.known_failure = known_failure;
    if (known_failure) l.options.time_limit_seconds = 0.25;
    lineages.push_back(std::move(l));
  };

  // Trials of bench/fig8_dbsize (recent: seeds 700+t, old: 750+t),
  // including the two 50k old-corruption trials whose F1 collapses
  // (750, 751). Fixed rather than drawn from --seed: solver cost swings
  // by orders of magnitude between seeds. The mix puts the cold p50
  // inside the cheap N_D = 1000 items and the p90 inside the N_D =
  // 50000 ones, never on the edge between two cost groups. Twenty-five
  // items succeed: with the same count of each in the pooled samples, a
  // p50 falls on the middle of the 13th item's samples and a p90 on the
  // middle of the 23rd's, not on the edge between two items. Old trial
  // 752 at N_D = 1000 is left out: its refinement MILP runs into the
  // engine's 15 s refinement limit, so its answer depends on the clock.
  for (uint64_t seed :
       {700, 701, 702, 703, 704, 705, 706, 707, 709, 710, 711, 712, 713}) {
    fig8(1000, false, seed);
  }
  for (uint64_t seed : {750, 753, 754, 756}) fig8(1000, true, seed);
  fig8(10000, false, 700);
  fig8(10000, true, 750);
  fig8(50000, false, 700);
  fig8(50000, false, 701);
  fig8(50000, true, 750);
  fig8(50000, true, 751);
  // Fig. 4 basic mode: about 150 B&B nodes and 15k-19k LP iterations
  // each, nearly all of it LP.
  fig4(5, 101, false);
  fig4(6, 101, false);
  // Times out at any limit today: the dense simplex re-solves every
  // branch & bound node from scratch (ROADMAP item 2).
  fig4(6, 100, true);
  // --seed orders the items within a round.
  std::shuffle(lineages.begin(), lineages.end(), std::mt19937_64(args.seed));
  rec->notes.push_back(
      "fig4 basic 6-100 is expected to fail with ResourceExhausted at its "
      "0.25 s limit; RepairBasic then returns no RepairStats, so its milp.* "
      "numbers are absent from the per-layer means, not zero");
  rec->notes.push_back("input generation: " +
                       std::to_string(generation.ElapsedSeconds()) + " s");
  LibraryBench(std::move(lineages), "fig8 1000-recent-700", rec).Run(args);
}

void RunOltpWalkback(const Args& args, Recorder* rec) {
  WallTimer generation;
  std::vector<Lineage> lineages;
  // Paper §7.4 (Fig. 9) at a fifth of its table sizes: 1000 rows and a
  // 1100-query log registered at 800 queries, grown by six appends of
  // 50 (TPC-C) or three of 100 (TATP). One corrupted query per log, at
  // ages (queries before the end) from 0 to 1000; Inc_1 walks back that
  // far one query at a time. Fixed generator seeds, as for
  // synthetic_solve; --seed orders the items within a round. Fifteen
  // items: with the same count of each in the pooled samples, the p50
  // falls on the middle of the 8th-costliest item's samples and the p90
  // on the middle of the 14th's, not on the edge between two items. A
  // TATP append (point UPDATEs that scan the table) costs about three
  // times a TPC-C one (mostly INSERTs); the batch sizes put the append
  // p50 two thirds into the TPC-C appends and the p90 inside the TATP
  // ones, away from the edges of either group.
  constexpr size_t kRows = 1000, kQueries = 1100, kPrefix = 800;
  auto add = [&](const std::string& kind, size_t age) {
    const std::string tag = std::to_string(age);
    workload::Scenario s;
    if (kind == "tpcc") {
      workload::TpccSpec spec;
      spec.initial_orders = kRows;
      spec.num_queries = kQueries;
      s = workload::MakeTpccScenario(spec, age, 1);
    } else {
      workload::TatpSpec spec;
      spec.subscribers = kRows;
      spec.num_queries = kQueries;
      s = workload::MakeTatpScenario(spec, age, 1);
    }
    lineages.push_back(MakeLineage(kind + "/" + tag,
                                   kind + " age " + tag, std::move(s),
                                   kPrefix, kind == "tpcc" ? 50 : 100));
  };
  for (size_t age : {0, 5, 25, 50, 100, 200, 400, 700, 1000}) {
    add("tpcc", age);
  }
  for (size_t age : {0, 100, 250, 500, 800, 1000}) add("tatp", age);
  std::shuffle(lineages.begin(), lineages.end(), std::mt19937_64(args.seed));
  rec->notes.push_back("input generation: " +
                       std::to_string(generation.ElapsedSeconds()) + " s");
  LibraryBench(std::move(lineages), "tpcc age 50", rec).Run(args);
}

}  // namespace qbench
