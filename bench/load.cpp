// Multi-tenant load baseline: harness::RunLoad driving an in-process
// DiagnosisServer over real loopback HTTP, the same path tools/
// qfix_load exercises against a remote fleet. Three scenarios:
//
//   closed-cached    3 equal tenants, closed loop, repeat complaints —
//                    the report-cache hit path's sustainable rps.
//   closed-mixed     same tenants, 1-in-5 requests a cold variant that
//                    reaches the solver through the admission gate.
//   open-overload    9:1 greedy:light open-loop mix into a separate
//                    single-slot gate (Figure-2 solves run ~0.1ms, so
//                    only a tight gate saturates at loopback rates) —
//                    per-tenant goodput and shed counts show weighted
//                    fair sharing holding under overload.
//
// Numbers are hardware-dependent; on a single-core container the
// concurrency axis measures scheduling overhead, not parallel solves
// (same caveat as BENCH_service/BENCH_milp). The emitted table is the
// checked-in baseline BENCH_load.json.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "harness/loadgen.h"
#include "harness/table.h"
#include "service/server.h"

using namespace qfix;

namespace {

constexpr const char* kTaxD0Csv =
    "income,owed,pay\n"
    "9500,950,8550\n"
    "90000,22500,67500\n"
    "86000,21500,64500\n"
    "86500,21625,64875\n";

constexpr const char* kTaxLogSql =
    "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
    "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n"
    "UPDATE Taxes SET pay = income - owed;\n";

constexpr const char* kTaxComplaintsCsv =
    "tid,alive,income,owed,pay\n"
    "2,1,86000,21500,64500\n"
    "3,1,86500,21625,64875\n";

std::string DiagnoseBody(const std::string& dataset,
                         const std::string& complaints) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(dataset);
  w.Key("complaints_csv");
  w.String(complaints);
  w.EndObject();
  return w.str();
}

harness::LoadTenantSpec Tenant(const std::string& name, int weight,
                               bool with_cold_variants) {
  harness::LoadTenantSpec t;
  t.name = name;
  t.weight = weight;
  harness::LoadRequestTemplate cached;
  cached.path = "/v1/diagnose";
  cached.body = DiagnoseBody(name + "/taxes", kTaxComplaintsCsv);
  cached.weight = 4;
  t.requests.push_back(std::move(cached));
  if (with_cold_variants) {
    char complaint[160];
    std::snprintf(complaint, sizeof(complaint),
                  "tid,alive,income,owed,pay\n2,1,86000,21500,%d\n", 64001);
    harness::LoadRequestTemplate cold;
    cold.path = "/v1/diagnose";
    cold.body = DiagnoseBody(name + "/taxes", complaint);
    cold.weight = 1;
    t.requests.push_back(std::move(cold));
  }
  return t;
}

}  // namespace

int main() {
  service::ServerOptions options;
  options.jobs = 2;
  options.max_inflight = 4;
  options.cache_bytes = 8u << 20;
  service::DiagnosisServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }
  // The overload scenario gets its own server: one admission slot and
  // one solver job, so cold solves saturate and the gate sheds.
  service::ServerOptions tight = options;
  tight.jobs = 1;
  tight.max_inflight = 1;
  service::DiagnosisServer gated(tight);
  started = gated.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }
  for (const char* tenant : {"t1", "t2", "t3"}) {
    auto ds = server.registry().Register(std::string(tenant) + "/taxes",
                                         kTaxD0Csv, "Taxes", kTaxLogSql);
    if (!ds.ok()) {
      std::fprintf(stderr, "register: %s\n", ds.status().ToString().c_str());
      return 1;
    }
  }
  for (const char* tenant : {"greedy", "light"}) {
    auto ds = gated.registry().Register(std::string(tenant) + "/taxes",
                                        kTaxD0Csv, "Taxes", kTaxLogSql);
    if (!ds.ok()) {
      std::fprintf(stderr, "register: %s\n", ds.status().ToString().c_str());
      return 1;
    }
  }

  const double seconds = bench::FullMode() ? 10.0 : 2.0;
  std::printf(
      "multi-tenant load baseline (hardware threads: %u, %gs/scenario)\n\n",
      std::thread::hardware_concurrency(), seconds);

  struct Scenario {
    const char* name;
    harness::LoadOptions options;
  };
  std::vector<Scenario> scenarios;
  {
    harness::LoadOptions lo;
    lo.host = options.host;
    lo.port = server.port();
    lo.mode = harness::LoadOptions::Mode::kClosed;
    lo.duration_seconds = seconds;
    lo.concurrency = 4;
    for (const char* t : {"t1", "t2", "t3"}) {
      lo.tenants.push_back(Tenant(t, 1, /*with_cold_variants=*/false));
    }
    scenarios.push_back({"closed-cached", lo});
    for (auto& t : lo.tenants) {
      t = Tenant(t.name, 1, /*with_cold_variants=*/true);
    }
    scenarios.push_back({"closed-mixed", lo});
    lo.port = gated.port();
    lo.tenants.clear();
    lo.tenants.push_back(Tenant("greedy", 9, /*with_cold_variants=*/true));
    lo.tenants.push_back(Tenant("light", 1, /*with_cold_variants=*/true));
    for (auto& t : lo.tenants) {
      // Half the mix reaches the solver: saturates the 1-slot gate.
      t.requests[1].weight = 4;
    }
    lo.mode = harness::LoadOptions::Mode::kOpen;
    lo.rate_per_second = 16000;
    lo.concurrency = 8;
    scenarios.push_back({"open-overload", lo});
  }

  harness::Table table({"scenario", "tenant", "attempted", "ok/s",
                        "shed_429", "p50_ms", "p99_ms"});
  bool failed = false;
  for (const Scenario& s : scenarios) {
    const harness::LoadResult r = harness::RunLoad(s.options);
    if (r.classes.err_4xx + r.classes.err_5xx + r.classes.transport > 0) {
      std::fprintf(stderr, "%s: unexpected errors (4xx=%llu 5xx=%llu "
                   "transport=%llu)\n", s.name,
                   static_cast<unsigned long long>(r.classes.err_4xx),
                   static_cast<unsigned long long>(r.classes.err_5xx),
                   static_cast<unsigned long long>(r.classes.transport));
      failed = true;
    }
    table.AddRow({s.name, "ALL", std::to_string(r.attempted),
                  harness::Table::Cell(r.ok_rps),
                  std::to_string(r.classes.shed_429),
                  harness::Table::Cell(r.latency.Quantile(0.5) * 1e3),
                  harness::Table::Cell(r.latency.Quantile(0.99) * 1e3)});
    for (const harness::TenantLoadResult& t : r.tenants) {
      table.AddRow(
          {s.name, t.name, std::to_string(t.attempted),
           harness::Table::Cell(t.classes.ok_2xx / r.duration_seconds),
           std::to_string(t.classes.shed_429),
           harness::Table::Cell(t.latency.Quantile(0.5) * 1e3),
           harness::Table::Cell(t.latency.Quantile(0.99) * 1e3)});
    }
  }
  bench::PrintAndExport(table, "load");
  server.Stop();
  return failed ? 1 : 0;
}
