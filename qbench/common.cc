// The recorder, span attribution and correctness helpers of qbench. The
// helpers deliberately re-implement what the library also computes
// (replay comparison, accuracy, complaint checks) so that a fault in the
// library cannot hide itself from the benchmark.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "common.h"

namespace qbench {

using qfix::provenance::Complaint;
using qfix::provenance::ComplaintSet;
using qfix::relational::Database;
using qfix::relational::Tuple;

namespace {

constexpr double kValueTol = 1e-6;

bool SameTuple(const Tuple& a, const Tuple& b, double tol) {
  if (a.alive != b.alive) return false;
  if (!a.alive) return true;
  if (a.values.size() != b.values.size()) return false;
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (std::fabs(a.values[i] - b.values[i]) > tol) return false;
  }
  return true;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kRegister: return "register";
    case Op::kAppend: return "append";
    case Op::kCold: return "cold_diagnose";
    case Op::kHit: return "hit";
    case Op::kScrape: return "scrape";
  }
  return "?";
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Recorder::CheckFailed(std::string what) {
  // The first few are enough to diagnose; a systematic fault would
  // otherwise print one line per operation.
  if (check_failures.size() < 20) check_failures.push_back(std::move(what));
}

uint64_t Recorder::TotalAttempted() const {
  uint64_t n = 0;
  for (uint64_t a : attempted) n += a;
  return n;
}

uint64_t Recorder::TotalFailed() const {
  uint64_t n = 0;
  for (uint64_t f : failed) n += f;
  return n;
}

uint64_t StateHash(const Database& db) {
  uint64_t h = Mix(0, db.NumSlots());
  for (const Tuple& t : db.tuples()) {
    h = Mix(h, t.alive ? 1 : 0);
    if (!t.alive) continue;
    for (double v : t.values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = Mix(h, bits);
    }
  }
  return h;
}

Accuracy ScoreRepair(const Database& repaired_state, const Database& dirty,
                     const Database& truth) {
  size_t changed = 0, changed_right = 0, wrong = 0, wrong_fixed = 0;
  const size_t n = std::min({repaired_state.NumSlots(), dirty.NumSlots(),
                             truth.NumSlots()});
  for (size_t i = 0; i < n; ++i) {
    const Tuple& r = repaired_state.tuples()[i];
    const Tuple& d = dirty.tuples()[i];
    const Tuple& t = truth.tuples()[i];
    const bool r_is_t = SameTuple(r, t, kValueTol);
    if (!SameTuple(r, d, kValueTol)) {
      ++changed;
      if (r_is_t) ++changed_right;
    }
    if (!SameTuple(d, t, kValueTol)) {
      ++wrong;
      if (r_is_t) ++wrong_fixed;
    }
  }
  Accuracy a;
  a.precision = changed == 0 ? (wrong == 0 ? 1.0 : 0.0)
                             : static_cast<double>(changed_right) / changed;
  a.recall = wrong == 0 ? 1.0 : static_cast<double>(wrong_fixed) / wrong;
  a.f1 = a.precision + a.recall > 0
             ? 2 * a.precision * a.recall / (a.precision + a.recall)
             : 0.0;
  return a;
}

std::string ComplaintViolation(const Database& state, const ComplaintSet& c) {
  for (const Complaint& want : c.complaints()) {
    if (want.tid < 0 || static_cast<size_t>(want.tid) >= state.NumSlots()) {
      return "complaint tid " + std::to_string(want.tid) + " out of range";
    }
    const Tuple& got = state.tuples()[static_cast<size_t>(want.tid)];
    Tuple target{want.tid, want.target_alive, want.target_values};
    // 1e-4 matches the precision a polished repair constant promises.
    if (!SameTuple(got, target, 1e-4)) {
      return "tuple " + std::to_string(want.tid) + " misses its target";
    }
  }
  return "";
}

ComplaintSet Diff(const Database& dirty, const Database& truth) {
  ComplaintSet out;
  const size_t n = std::min(dirty.NumSlots(), truth.NumSlots());
  for (size_t i = 0; i < n; ++i) {
    const Tuple& t = truth.tuples()[i];
    if (SameTuple(dirty.tuples()[i], t, 1e-9)) continue;
    out.Add(Complaint{static_cast<int64_t>(i), t.alive, t.values});
  }
  return out;
}

std::string WithoutTimings(const std::string& report_json) {
  std::string out = report_json;
  for (const char* key : {"\"encode_seconds\":", "\"solve_seconds\":",
                          "\"total_seconds\":"}) {
    size_t pos = out.find(key);
    if (pos == std::string::npos) continue;
    const size_t begin = pos + std::strlen(key);
    size_t end = begin;
    while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
    out.replace(begin, end - begin, "_");
  }
  return out;
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string token = "\"" + key + "\":";
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch != '"') continue;
    if (json.compare(i, token.size(), token) != 0) {
      in_string = true;
      continue;
    }
    // Value: scan to its end, matching brackets outside strings.
    const size_t begin = i + token.size();
    int depth = 0;
    bool str = false;
    for (size_t j = begin; j < json.size(); ++j) {
      const char c = json[j];
      if (str) {
        if (c == '\\') {
          ++j;
        } else if (c == '"') {
          str = false;
          if (depth == 0) return json.substr(begin, j + 1 - begin);
        }
        continue;
      }
      if (c == '"') {
        str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) return json.substr(begin, j - begin);
        if (--depth == 0) return json.substr(begin, j + 1 - begin);
      } else if (c == ',' && depth == 0) {
        return json.substr(begin, j - begin);
      }
    }
    return json.substr(begin);
  }
  return "";
}

SpanTotals Attribute(const std::vector<Span>& spans) {
  SpanTotals t;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if ((s.phase == "presolve" || s.phase == "root_lp") && s.parent >= 0 &&
        static_cast<size_t>(s.parent) < spans.size()) {
      child_ms[static_cast<size_t>(s.parent)] += s.ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.phase == "encode") {
      t.encode_ms += s.ms;
      ++t.encode_spans;
    } else if (s.phase == "solve" || s.phase == "refine_solve") {
      (s.phase == "solve" ? t.solve_ms : t.refine_solve_ms) += s.ms;
      t.node_ms += s.ms - child_ms[i];
    } else if (s.phase == "refine_encode") {
      t.refine_encode_ms += s.ms;
    } else if (s.phase == "prefix_replay") {
      t.prefix_replay_ms += s.ms;
    } else if (s.phase == "presolve") {
      t.presolve_ms += s.ms;
    } else if (s.phase == "root_lp") {
      t.root_lp_ms += s.ms;
    }
  }
  return t;
}

std::string LogSql(const qfix::relational::QueryLog& log,
                   const qfix::relational::Schema& schema, size_t begin,
                   size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < log.size(); ++i) {
    out += log[i].ToSql(schema);
    out += ";\n";
  }
  return out;
}

}  // namespace qbench
