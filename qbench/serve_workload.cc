// The serve_ingest workload: several tenants stream appends, cold tail
// diagnoses, cache-hit repeats and periodic GET /metrics scrapes at an
// in-process service::DiagnosisServer on loopback.
//
// Each tenant owns a small TPC-C-like ORDER dataset. Its log is a
// registered prefix plus appended batches, and every batch carries one
// corrupted INSERT (a wrong customer id and order-line count). After
// each append, the tenant's client diagnoses that batch's complaint
// cold (a report-cache miss: the complaint set is new) and repeats the
// request once, which the report cache answers. One keep-alive client
// drives the tenants closed-loop, so requests never queue behind each
// other and each latency is the server's own; a round re-registers each
// tenant, so every round does the same work. Diagnoses are cheap, so
// the time goes to HTTP, JSON, CSV/SQL parsing, the registry,
// admission, the report cache and telemetry.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/snapshot.h"
#include "common.h"
#include "common/json.h"
#include "common/timer.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "provenance/impact.h"
#include "relational/executor.h"
#include "service/client.h"
#include "service/json_value.h"
#include "service/server.h"
#include "sql/parser.h"
#include "workload/tpcc_like.h"

namespace qbench {
namespace {

namespace relational = qfix::relational;
namespace service = qfix::service;
using qfix::WallTimer;

constexpr int kTenants = 4;
constexpr size_t kInitialOrders = 300;
constexpr size_t kPrefix = 100;
constexpr size_t kBatch = 50;
constexpr size_t kBatches = 8;
// A GET /metrics after every kScrapeEvery-th batch.
constexpr size_t kScrapeEvery = 4;
// A set-up, then a part of the measured phase, this many times.
constexpr int kSetupRepeats = 5;

/// One appended batch and the diagnosis of its corrupted INSERT.
struct Item {
  /// Log length after this batch.
  size_t end = 0;
  size_t corrupted = 0;
  qfix::provenance::ComplaintSet complaints;
  std::string append_body;
  std::string diagnose_body;
  /// The same request asking for the server's "timings" block.
  std::string traced_body;
  uint64_t state_hash = 0;
  /// Observed state after this batch, and the state with this batch's
  /// corruption undone (earlier batches' corruptions stay).
  relational::Database dirty;
  relational::Database truth;
};

struct Tenant {
  std::string name;
  std::string append_path;
  relational::Database d0;
  relational::QueryLog log;
  std::string d0_csv;
  std::string register_body;
  std::vector<Item> items;
};

std::string RegisterBody(const std::string& name, const std::string& csv,
                         const std::string& table, const std::string& sql) {
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("table");
  w.String(table);
  w.Key("d0_csv");
  w.String(csv);
  w.Key("log_sql");
  w.String(sql);
  w.EndObject();
  return w.str();
}

std::string DiagnoseBody(const std::string& name, const std::string& csv,
                         bool timings) {
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(name);
  w.Key("complaints_csv");
  w.String(csv);
  w.Key("k");
  w.Int(1);
  if (timings) {
    w.Key("timings");
    w.Bool(true);
  }
  w.EndObject();
  return w.str();
}

// Returns false when some batch has no INSERT to corrupt.
bool MakeTenant(int index, uint64_t seed, Tenant* out) {
  qfix::workload::TpccSpec spec;
  spec.initial_orders = kInitialOrders;
  spec.num_queries = kPrefix + kBatch * kBatches;
  qfix::workload::Scenario s = qfix::workload::MakeTpccScenario(spec, 0, seed);
  const relational::QueryLog clean = std::move(s.clean_log);
  Tenant t;
  t.name = "t" + std::to_string(index) + "/orders";
  t.append_path = "/v1/datasets/" + t.name + "/append";
  t.d0 = std::move(s.d0);
  t.log = clean;
  std::mt19937_64 rng(seed);
  std::vector<size_t> corrupted;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<size_t> inserts;
    for (size_t i = kPrefix + b * kBatch; i < kPrefix + (b + 1) * kBatch;
         ++i) {
      if (clean[i].type() == relational::QueryType::kInsert) {
        inserts.push_back(i);
      }
    }
    if (inserts.empty()) return false;
    // The INSERT nearest an offset that steps through the batch from one
    // batch to the next, so every seed's tail walk-backs cover the same
    // spread of depths and only the queries themselves differ.
    const size_t target =
        kPrefix + b * kBatch + (2 * b + 1) * kBatch / (2 * kBatches);
    const size_t c = *std::min_element(
        inserts.begin(), inserts.end(), [target](size_t x, size_t y) {
          const size_t dx = x > target ? x - target : target - x;
          const size_t dy = y > target ? y - target : target - y;
          return dx < dy;
        });
    // The TPC-C generator's INSERT corruption: customer ids and
    // order-line counts outside the clean ranges.
    std::vector<double>& values = t.log[c].mutable_insert_values();
    values[3] = static_cast<double>(3001 + rng() % 3000);
    values[6] = static_cast<double>(20 + rng() % 21);
    corrupted.push_back(c);
  }
  const relational::Schema& schema = t.d0.schema();
  const std::string& table = t.d0.table_name();
  t.d0_csv = qfix::io::DatabaseToCsv(t.d0);
  t.register_body =
      RegisterBody(t.name, t.d0_csv, table, LogSql(t.log, schema, 0, kPrefix));
  for (size_t b = 0; b < kBatches; ++b) {
    Item item;
    item.end = kPrefix + (b + 1) * kBatch;
    item.corrupted = corrupted[b];
    relational::QueryLog upto(t.log.begin(), t.log.begin() + item.end);
    item.dirty = relational::ExecuteLog(upto, t.d0);
    upto[item.corrupted] = clean[item.corrupted];
    item.truth = relational::ExecuteLog(upto, t.d0);
    item.complaints = Diff(item.dirty, item.truth);
    item.state_hash = StateHash(item.dirty);
    qfix::JsonWriter w;
    w.BeginObject();
    w.Key("log_sql");
    w.String(LogSql(t.log, schema, item.end - kBatch, item.end));
    w.EndObject();
    item.append_body = w.str();
    const std::string csv =
        qfix::io::ComplaintsToCsv(item.complaints, schema);
    item.diagnose_body = DiagnoseBody(t.name, csv, false);
    item.traced_body = DiagnoseBody(t.name, csv, true);
    t.items.push_back(std::move(item));
  }
  *out = std::move(t);
  return true;
}

std::vector<Span> PhasesOf(const service::JsonValue& timings) {
  std::vector<Span> out;
  const service::JsonValue* phases = timings.Find("phases");
  if (phases == nullptr || !phases->is_array()) return out;
  for (const service::JsonValue& p : phases->AsArray()) {
    const service::JsonValue* name = p.Find("phase");
    const service::JsonValue* start = p.Find("start_ms");
    const service::JsonValue* ms = p.Find("ms");
    const service::JsonValue* parent = p.Find("parent");
    if (name == nullptr || start == nullptr || ms == nullptr) continue;
    out.push_back(Span{name->AsString(), start->AsNumber(), ms->AsNumber(),
                       parent != nullptr
                           ? static_cast<int>(parent->AsNumber())
                           : -1});
  }
  return out;
}

double NumberAt(const service::JsonValue* obj, const char* key) {
  const service::JsonValue* v = obj != nullptr ? obj->Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

/// Sum of a counter or histogram series in a /metrics payload.
double MetricValue(const std::string& text, const std::string& name,
                   const char* phase = nullptr) {
  auto parsed = qfix::obs::ParseExposition(text);
  if (!parsed.ok()) return 0.0;
  double sum = 0.0;
  for (const auto& sample : parsed->samples) {
    if (sample.name != name) continue;
    if (phase != nullptr) {
      const std::string* label = sample.FindLabel("phase");
      if (label == nullptr || *label != phase) continue;
    }
    sum += sample.value;
  }
  return sum;
}

/// The distinct cold reports per (tenant, batch), keyed by the report
/// without its timing fields: the first raw report and how many cold
/// diagnoses returned it.
struct ReportCount {
  std::string report;
  size_t count = 0;
};
using ColdReports =
    std::map<std::tuple<size_t, size_t, std::string>, ReportCount>;

class ServeBench {
 public:
  ServeBench(std::vector<Tenant> tenants, Recorder* rec)
      : tenants_(std::move(tenants)), rec_(rec) {}

  void Run(const Args& args) {
    rec_->setup_s.Add(SetupOnce(/*keep=*/true));
    if (server_ == nullptr) return;
    conn_ = std::make_unique<service::ClientConnection>("127.0.0.1",
                                                        server_->port());
    const std::string before = server_->metrics().RenderPrometheus();
    // The measured phase in kSetupRepeats parts with a set-up (of a
    // second, throw-away server) between them: the machine's speed
    // drifts over seconds, and set-ups spread over the phase see the
    // same drift the requests do.
    for (int i = 0; i < kSetupRepeats; ++i) {
      if (i > 0) rec_->setup_s.Add(SetupOnce(/*keep=*/false));
      RunPhase(args.seconds / kSetupRepeats, args.trace);
    }
    if (args.trace) FinishLayers(before, server_->metrics().RenderPrometheus());
    CheckReports();
    CheckOneShotAndLint();
    conn_.reset();
    server_->Stop();
  }

 private:
  static service::ServerOptions Options() {
    service::ServerOptions o;
    o.port = 0;
    return o;
  }

  double SetupOnce(bool keep) {
    WallTimer t;
    auto server = std::make_unique<service::DiagnosisServer>(Options());
    qfix::Status started = server->Start();
    if (!started.ok()) {
      rec_->CheckFailed("server start: " + started.ToString());
      return t.ElapsedSeconds();
    }
    service::ClientConnection conn("127.0.0.1", server->port());
    for (const Tenant& tenant : tenants_) {
      auto r = conn.Post("/v1/datasets", tenant.register_body);
      if (!r.ok() || r->status != 200) {
        rec_->CheckFailed(tenant.name + ": set-up registration failed");
      }
    }
    const double seconds = t.ElapsedSeconds();
    if (keep) {
      server_ = std::move(server);
    } else {
      server->Stop();
    }
    return seconds;
  }

  // Runs whole rounds over every tenant for `seconds`. In a traced run
  // every other request asks for the "timings" block, alternating by
  // round so each batch is seen both ways: traced and untraced samples
  // come from the same seconds and the same inputs.
  void RunPhase(double seconds, bool trace) {
    WallTimer phase;
    do {
      for (size_t ti = 0; ti < tenants_.size(); ++ti) RunTenant(ti, trace);
      ++rounds_;
    } while (phase.ElapsedSeconds() < seconds);
    rec_->phase_seconds += phase.ElapsedSeconds();
  }

  void RunTenant(size_t ti, bool trace) {
    const Tenant& t = tenants_[ti];
    auto reg = conn_->Post("/v1/datasets", t.register_body);
    const bool registered = reg.ok() && reg->status == 200;
    rec_->Count(Op::kRegister, registered);
    if (!registered) {
      rec_->CheckFailed(t.name + ": registration failed");
      return;
    }
    for (size_t b = 0; b < t.items.size(); ++b) {
      const Item& item = t.items[b];
      const std::string where = t.name + " batch " + std::to_string(b);
      WallTimer append_timer;
      auto app = conn_->Post(t.append_path, item.append_body);
      const double append_ms = append_timer.ElapsedMillis();
      const bool appended = app.ok() && app->status == 200;
      rec_->Count(Op::kAppend, appended);
      if (!appended) {
        rec_->CheckFailed(where + ": append failed");
        return;
      }
      rec_->append_ms.Add(append_ms);
      auto ds = server_->registry().Get(t.name);
      if (ds == nullptr || ds->log.size() != item.end ||
          StateHash(ds->dirty) != item.state_hash) {
        rec_->CheckFailed(where + ": dirty state after the append differs "
                          "from a one-shot replay");
      }

      const bool traced = trace && (rounds_ + b) % 2 == 1;
      const std::string& body = traced ? item.traced_body : item.diagnose_body;
      WallTimer cold_timer;
      auto cold = conn_->Post("/v1/diagnose", body);
      const double cold_ms = cold_timer.ElapsedMillis();
      auto cold_doc = cold.ok() && cold->status == 200
                          ? service::ParseJson(cold->body, 256, 1 << 20)
                          : qfix::Result<service::JsonValue>(
                                qfix::Status::Internal("no response"));
      const service::JsonValue* ok_field =
          cold_doc.ok() ? cold_doc->Find("ok") : nullptr;
      const bool cold_ok = ok_field != nullptr && ok_field->is_bool() &&
                           ok_field->AsBool();
      rec_->Count(Op::kCold, cold_ok);
      if (!cold_ok) {
        rec_->CheckFailed(where + ": cold diagnosis failed");
        continue;
      }
      const service::JsonValue* cached = cold_doc->Find("cached");
      if (cached == nullptr || !cached->is_bool() || cached->AsBool()) {
        rec_->CheckFailed(where + ": cold diagnosis came from the cache");
      }
      rec_->cold_ms.Add(cold_ms);
      const std::string report = JsonField(cold->body, "report");
      ReportCount& seen = cold_reports_[{ti, b, WithoutTimings(report)}];
      if (seen.count++ == 0) seen.report = report;
      if (traced) AddRequestLayers(*cold_doc, rec_, /*hit=*/false);

      WallTimer hit_timer;
      auto hit = conn_->Post("/v1/diagnose", body);
      const double hit_ms = hit_timer.ElapsedMillis();
      auto hit_doc = hit.ok() && hit->status == 200
                         ? service::ParseJson(hit->body, 256, 1 << 20)
                         : qfix::Result<service::JsonValue>(
                               qfix::Status::Internal("no response"));
      const service::JsonValue* hit_cached =
          hit_doc.ok() ? hit_doc->Find("cached") : nullptr;
      // Only proven-optimal repairs are memoized, so a hit also shows
      // that the cold repair reported stats.optimal.
      const bool hit_ok = hit_cached != nullptr && hit_cached->is_bool() &&
                          hit_cached->AsBool();
      rec_->Count(Op::kHit, hit_ok);
      if (!hit_ok) {
        rec_->CheckFailed(where + ": repeat was not a cache hit");
        continue;
      }
      rec_->hit_ms.Add(hit_ms);
      if (trace) (traced ? traced_hits_ : untraced_hits_).Add(hit_ms);
      if (JsonField(hit->body, "report") != report) {
        rec_->CheckFailed(where + ": hit report differs from cold report");
      }
      if (traced) AddRequestLayers(*hit_doc, rec_, /*hit=*/true);

      if ((b + 1) % kScrapeEvery == 0) {
        WallTimer scrape_timer;
        auto metrics = conn_->Get("/metrics");
        const double scrape_ms = scrape_timer.ElapsedMillis();
        const bool scraped = metrics.ok() && metrics->status == 200;
        rec_->Count(Op::kScrape, scraped);
        if (!scraped) rec_->CheckFailed(where + ": GET /metrics failed");
        if (trace) rec_->layer["obs.scrape_ms"].Add(scrape_ms);
      }
    }
  }

  // Per-request layers from the server's "timings" block and report.
  static void AddRequestLayers(const service::JsonValue& doc, Recorder* rec,
                               bool hit) {
    const service::JsonValue* timings = doc.Find("timings");
    if (timings == nullptr) {
      rec->CheckFailed("diagnose response without the timings block");
      return;
    }
    std::vector<Span> spans = PhasesOf(*timings);
    double admission_end = 0.0, render_start = 0.0;
    for (const Span& s : spans) {
      if (s.parent >= 0) continue;
      if (s.phase == "parse") rec->layer["service.parse_ms"].Add(s.ms);
      if (s.phase == "cache") {
        rec->layer["service.cache_ms"].Add(s.ms);
        if (hit) rec->layer["cache.lookup_us"].Add(s.ms * 1e3);
      }
      if (s.phase == "admission") {
        rec->layer["service.admission_ms"].Add(s.ms);
        admission_end = s.start_ms + s.ms;
      }
      if (s.phase == "render") {
        rec->layer["service.render_ms"].Add(s.ms);
        render_start = s.start_ms;
      }
    }
    if (hit) return;
    const SpanTotals t = Attribute(spans);
    const double refine = t.refine_encode_ms + t.refine_solve_ms;
    rec->layer["qfix.encode_ms"].Add(t.encode_ms);
    rec->layer["qfix.solve_ms"].Add(t.solve_ms);
    rec->layer["qfix.refine_ms"].Add(refine);
    rec->layer["qfix.attempts"].Add(t.encode_spans);
    rec->layer["qfix.other_ms"].Add(render_start - admission_end -
                                    t.encode_ms - t.solve_ms - refine);
    rec->layer["ingest.prefix_replay_ms"].Add(t.prefix_replay_ms);
    rec->layer["milp.presolve_ms"].Add(t.presolve_ms);
    rec->layer["milp.root_lp_ms"].Add(t.root_lp_ms);
    rec->layer["milp.node_ms"].Add(t.node_ms);
    const service::JsonValue* stats =
        doc.Find("report") != nullptr ? doc.Find("report")->Find("stats")
                                      : nullptr;
    rec->layer["milp.nodes"].Add(NumberAt(stats, "solver_nodes"));
    rec->layer["qfix.encoded_tuples"].Add(NumberAt(stats, "encoded_tuples"));
    rec->layer["qfix.milp_rows"].Add(NumberAt(stats, "constraints"));
  }

  void FinishLayers(const std::string& before, const std::string& after) {
    auto delta = [&](const std::string& name, const char* phase = nullptr) {
      return MetricValue(after, name, phase) - MetricValue(before, name, phase);
    };
    const double writes = delta("qfix_request_phase_seconds_count", "write");
    rec_->layer["service.write_ms"].Add(
        writes > 0
            ? delta("qfix_request_phase_seconds_sum", "write") * 1e3 / writes
            : 0.0);
    rec_->layer["service.shed"].Add(delta("qfix_shed_total"));
    const double lp = delta("qfix_solver_lp_iterations_total");
    const double nodes = delta("qfix_solver_nodes_total");
    const size_t cold = rec_->cold_ms.size();
    rec_->layer["milp.lp_iterations"].Add(cold > 0 ? lp / cold : 0.0);
    rec_->layer["milp.lp_iter_per_node"].Add(nodes > 0 ? lp / nodes : 0.0);
    const auto stats = server_->stats();
    const auto& rc = stats.cache;
    const auto& ec = stats.encoding_cache;
    rec_->layer["cache.hit_ratio"].Add(
        rc.hits + rc.misses > 0
            ? static_cast<double>(rc.hits) / (rc.hits + rc.misses)
            : 0.0);
    rec_->layer["ingest.prefix_reuse_ratio"].Add(
        ec.hits + ec.misses > 0
            ? static_cast<double>(ec.hits) / (ec.hits + ec.misses)
            : 0.0);
    if (untraced_hits_.size() > 0 && traced_hits_.size() > 0) {
      rec_->layer["obs.trace_overhead_pct"].Add(
          (traced_hits_.Quantile(0.5) / untraced_hits_.Quantile(0.5) - 1) *
          100);
    }
    // Layers timed from outside, on the same inputs the server gets.
    for (const Tenant& t : tenants_) {
      WallTimer csv;
      auto d0 = qfix::io::DatabaseFromCsv(t.d0_csv, t.d0.table_name());
      rec_->layer["io.csv_ms"].Add(csv.ElapsedMillis());
      if (!d0.ok()) rec_->CheckFailed(t.name + ": D0 CSV does not parse");
      WallTimer replay;
      relational::Database state = relational::ExecuteLog(t.log, t.d0);
      rec_->layer["relational.replay_ms"].Add(replay.ElapsedMillis());
      WallTimer impacts;
      auto full = qfix::provenance::ComputeFullImpacts(
          t.log, t.d0.schema().num_attrs());
      rec_->layer["provenance.impacts_ms"].Add(impacts.ElapsedMillis());
      qfix::cache::Snapshot snap = qfix::cache::MakeSnapshot(
          relational::QueryLog(t.log.begin(), t.log.begin() + kPrefix),
          t.d0.Clone(), t.name);
      for (const Item& item : t.items) {
        const std::string sql =
            LogSql(t.log, t.d0.schema(), item.end - kBatch, item.end);
        WallTimer parse;
        auto batch = qfix::sql::ParseLog(sql, t.d0.schema());
        rec_->layer["sql.parse_ms"].Add(parse.ElapsedMillis());
        if (!batch.ok()) {
          rec_->CheckFailed(t.name + ": batch SQL does not parse");
          continue;
        }
        WallTimer append;
        snap = qfix::cache::AppendSnapshot(snap, std::move(batch).value());
        rec_->layer["ingest.append_ms"].Add(append.ElapsedMillis());
      }
    }
  }

  // Replays each distinct cold repair once: the corrupted query is
  // among the repaired ones, every complaint reaches its target, and
  // the final state scores F1 against the batch's true state.
  void CheckReports() {
    std::map<std::pair<size_t, size_t>, int> distinct;
    for (const auto& [key, rc] : cold_reports_) {
      const auto [tenant, batch, ignored] = key;
      const double f1 = CheckOne(tenant, batch, rc.report);
      rec_->f1.insert(rec_->f1.end(), rc.count, f1);
      ++distinct[{tenant, batch}];
    }
    for (const auto& [where, n] : distinct) {
      if (n > 1) {
        rec_->CheckFailed(tenants_[where.first].name + " batch " +
                          std::to_string(where.second) + ": " +
                          std::to_string(n) + " different repairs");
      }
    }
  }

  double CheckOne(size_t tenant, size_t batch, const std::string& report) {
    const Tenant& t = tenants_[tenant];
    const Item& item = t.items[batch];
    const std::string where = t.name + " batch " + std::to_string(batch);
    auto doc = service::ParseJson(report, 256, 1 << 20);
    const service::JsonValue* repairs =
        doc.ok() ? doc->Find("repairs") : nullptr;
    if (repairs == nullptr || !repairs->is_array()) {
      rec_->CheckFailed(where + ": report without repairs");
      return 0.0;
    }
    relational::QueryLog log(t.log.begin(), t.log.begin() + item.end);
    bool changed_corrupted = false;
    for (const service::JsonValue& r : repairs->AsArray()) {
      const size_t index = static_cast<size_t>(NumberAt(&r, "query")) - 1;
      const service::JsonValue* sql = r.Find("repaired_sql");
      auto q = sql != nullptr && sql->is_string() && index < log.size()
                   ? qfix::sql::ParseQuery(sql->AsString(), t.d0.schema())
                   : qfix::Result<relational::Query>(
                         qfix::Status::InvalidArgument("bad repair entry"));
      if (!q.ok()) {
        rec_->CheckFailed(where + ": unreadable repair entry");
        return 0.0;
      }
      log[index] = std::move(q).value();
      changed_corrupted = changed_corrupted || index == item.corrupted;
    }
    if (!changed_corrupted) {
      rec_->CheckFailed(where + ": repair leaves the corrupted query q" +
                        std::to_string(item.corrupted) + " unchanged");
    }
    relational::Database state = relational::ExecuteLog(log, t.d0);
    std::string bad = ComplaintViolation(state, item.complaints);
    if (!bad.empty()) rec_->CheckFailed(where + ": " + bad);
    return ScoreRepair(state, item.dirty, item.truth).f1;
  }

  // Tenant 0's last batch, diagnosed on a one-shot registration of the
  // full log, must report what the appended lineage reported; and the
  // final /metrics payload must lint clean.
  void CheckOneShotAndLint() {
    service::ClientConnection conn("127.0.0.1", server_->port());
    const Tenant& t = tenants_[0];
    const Item& last = t.items.back();
    const std::string name = "t0/one-shot";
    auto reg = conn.Post(
        "/v1/datasets",
        RegisterBody(name, t.d0_csv, t.d0.table_name(),
                     LogSql(t.log, t.d0.schema(), 0, last.end)));
    std::string lineage;
    for (const auto& [key, rc] : cold_reports_) {
      if (std::get<0>(key) == 0 && std::get<1>(key) == t.items.size() - 1) {
        lineage = std::get<2>(key);
        break;
      }
    }
    const std::string csv = qfix::io::ComplaintsToCsv(last.complaints,
                                                      t.d0.schema());
    auto diag = reg.ok() && reg->status == 200
                    ? conn.Post("/v1/diagnose", DiagnoseBody(name, csv, false))
                    : qfix::Result<service::HttpResponse>(
                          qfix::Status::Internal("registration failed"));
    if (!diag.ok() || diag->status != 200 ||
        WithoutTimings(JsonField(diag->body, "report")) != lineage) {
      rec_->CheckFailed("t0: appended lineage's report differs from the "
                        "one-shot registration's");
    }
    auto metrics = conn.Get("/metrics");
    qfix::Status lint = metrics.ok() && metrics->status == 200
                            ? qfix::obs::LintExposition(metrics->body)
                            : qfix::Status::Internal("GET /metrics failed");
    if (!lint.ok()) rec_->CheckFailed("final /metrics: " + lint.ToString());
    const auto stats = server_->stats();
    char line[256];
    std::snprintf(line, sizeof(line),
                  "report cache: %zu bytes in %zu entries of %zu budget; "
                  "encoding cache: %zu bytes of %zu budget, %llu evictions",
                  stats.cache.bytes, stats.cache.entries,
                  stats.cache.capacity_bytes, stats.encoding_cache.bytes,
                  stats.encoding_cache.capacity_bytes,
                  static_cast<unsigned long long>(
                      stats.encoding_cache.evictions));
    rec_->notes.push_back(line);
  }

  std::vector<Tenant> tenants_;
  Recorder* rec_;
  std::unique_ptr<service::DiagnosisServer> server_;
  std::unique_ptr<service::ClientConnection> conn_;
  ColdReports cold_reports_;
  size_t rounds_ = 0;
  /// Hit latencies of a traced run, with and without "timings".
  Samples untraced_hits_, traced_hits_;
};

}  // namespace

void RunServeIngest(const Args& args, Recorder* rec) {
  WallTimer generation;
  std::vector<Tenant> tenants;
  uint64_t seed = args.seed * 1000003ULL;
  for (int i = 0; i < kTenants; ++i) {
    Tenant t;
    while (!MakeTenant(i, ++seed, &t)) {
    }
    tenants.push_back(std::move(t));
  }
  rec->notes.push_back("input generation: " +
                       std::to_string(generation.ElapsedSeconds()) + " s");
  ServeBench(std::move(tenants), rec).Run(args);
}

}  // namespace qbench
