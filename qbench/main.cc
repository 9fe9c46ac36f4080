// qbench: the QFix benchmark program.
//
//   qbench --workload <synthetic_solve|oltp_walkback|serve_ingest>
//          --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, runs whole rounds of
// operations for the given seconds with set-ups of the program between
// them, checks every output, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones (BENCHMARK.json lists both). Refuses to run from a sanitizer or
// non-Release build.
#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using qbench::Args;
using qbench::Recorder;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (qbench/run.py checks the keys).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"diagnose_p50_ms", "ms"},
    {"diagnose_p90_ms", "ms"},  {"diagnoses_per_s", "1/s"},
    {"hit_p50_ms", "ms"},       {"hit_p90_ms", "ms"},
    {"append_p50_ms", "ms"},    {"append_p90_ms", "ms"},
    {"repair_f1", "f1"},        {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"relational.replay_ms", "ms"},
    {"provenance.impacts_ms", "ms"},
    {"qfix.encode_ms", "ms"},
    {"qfix.attempts", "count"},
    {"ingest.prefix_replay_ms", "ms"},
    {"ingest.prefix_reuse_ratio", "ratio"},
    {"qfix.solve_ms", "ms"},
    {"milp.nodes", "count"},
    {"milp.lp_iterations", "count"},
    {"milp.lp_iter_per_node", "count"},
    {"milp.presolve_ms", "ms"},
    {"milp.root_lp_ms", "ms"},
    {"milp.node_ms", "ms"},
    {"qfix.refine_ms", "ms"},
    {"qfix.encoded_tuples", "count"},
    {"qfix.milp_rows", "count"},
    {"qfix.other_ms", "ms"},
    {"ingest.append_ms", "ms"},
    {"cache.lookup_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"io.csv_ms", "ms"},
    {"sql.parse_ms", "ms"},
    {"service.parse_ms", "ms"},
    {"service.cache_ms", "ms"},
    {"service.admission_ms", "ms"},
    {"service.render_ms", "ms"},
    {"service.write_ms", "ms"},
    {"service.shed", "count"},
    {"obs.scrape_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload "
               "<synthetic_solve|oltp_walkback|serve_ingest> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

// Pins the process, and every thread it starts later, to the core it is
// on; returns that core, or -1 when pinning failed. Each workload's
// operations run one after another (one library thread, or one client
// whose request the server passes between its threads), so one core
// holds all the work. On a virtual machine, handing a request to a
// thread on another, idle core costs a wake-up whose delay swings with
// the host's load by more than a sub-millisecond request takes.
int PinToCurrentCore() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strcmp(QBENCH_SANITIZE, "OFF") != 0;
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("every flag needs a valid value");
  }
  void (*run)(const Args&, Recorder*) = nullptr;
  if (args.workload == "synthetic_solve") run = qbench::RunSyntheticSolve;
  if (args.workload == "oltp_walkback") run = qbench::RunOltpWalkback;
  if (args.workload == "serve_ingest") run = qbench::RunServeIngest;
  if (run == nullptr) return Usage("unknown workload");

  const std::string build_type = QBENCH_BUILD_TYPE;
  const int core = PinToCurrentCore();
  std::printf("stamp: nproc=%ld cpu=\"%s\" compiler=\"gcc %s\" build=%s "
              "sanitizer=%s pinned_core=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__,
              build_type.c_str(), SanitizerBuild() ? "on" : "off", core);
  if (build_type != "Release" || SanitizerBuild()) {
    std::fprintf(stderr, "qbench: refusing to report numbers from a "
                         "non-Release or sanitizer build\n");
    return 3;
  }

  Recorder rec;
  run(args, &rec);
  if (!args.trace) {
    const std::pair<const char*, size_t> counts[] = {
        {"cold", rec.cold_ms.size()},
        {"hit", rec.hit_ms.size()},
        {"append", rec.append_ms.size()}};
    for (const auto& [kind, n] : counts) {
      if (n < qbench::kMinSamples) {
        rec.CheckFailed(std::string("only ") + std::to_string(n) + " " +
                        kind + " samples; a p90 needs " +
                        std::to_string(qbench::kMinSamples));
      }
    }
  }

  for (int op = 0; op < qbench::kNumOps; ++op) {
    std::printf("ops %-13s attempted=%llu failed=%llu\n",
                qbench::OpName(static_cast<qbench::Op>(op)),
                static_cast<unsigned long long>(rec.attempted[op]),
                static_cast<unsigned long long>(rec.failed[op]));
  }
  std::printf("samples: cold=%zu hit=%zu append=%zu setup=%zu\n",
              rec.cold_ms.size(), rec.hit_ms.size(), rec.append_ms.size(),
              rec.setup_s.size());
  for (const std::string& note : rec.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& bad : rec.check_failures) {
    std::printf("CHECK FAILED: %s\n", bad.c_str());
  }

  std::vector<std::pair<Metric, double>> values;
  if (!args.trace) {
    double f1 = 0.0;
    for (double v : rec.f1) f1 += v;
    if (!rec.f1.empty()) f1 /= static_cast<double>(rec.f1.size());
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const double values_in_order[] = {
        rec.setup_s.Quantile(0.5),
        rec.cold_ms.Quantile(0.5),
        rec.cold_ms.Quantile(0.9),
        rec.phase_seconds > 0 ? rec.cold_ms.size() / rec.phase_seconds : 0,
        rec.hit_ms.Quantile(0.5),
        rec.hit_ms.Quantile(0.9),
        rec.append_ms.Quantile(0.5),
        rec.append_ms.Quantile(0.9),
        f1,
        rss_mb,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      values.emplace_back(kEndToEnd[i], values_in_order[i]);
    }
  } else {
    std::string unmeasured;
    for (const Metric& m : kPerLayer) {
      auto it = rec.layer.find(m.name);
      values.emplace_back(m, it == rec.layer.end() ? 0.0 : it->second.Value());
      if (it == rec.layer.end()) unmeasured += std::string(" ") + m.name;
    }
    // A layer this workload never enters did no work here: 0 is its
    // measured busy time, not a missing number.
    if (!unmeasured.empty()) {
      std::printf("note: not on this workload's path, reported as 0:%s\n",
                  unmeasured.c_str());
    }
  }

  const bool correct = rec.check_failures.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rec.TotalAttempted());
  out += ", \"failed\": " + std::to_string(rec.TotalFailed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", values[i].second);
    if (i > 0) out += ", ";
    out += JsonString(values[i].first.name) + ": {\"value\": " + num +
           ", \"unit\": " + JsonString(values[i].first.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
