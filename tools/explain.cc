// explain: answer provenance queries against a recorded trace (ISSUE 6).
//
//   explain --trace run.trace --list
//   explain --trace run.trace --node 3 --round 7
//   explain --trace run.trace --node 3 --round 7 --var curVm
//
// For each matching `solve` event the tool prints the binding-constraint
// chain recorded in its `prov` field (per decision group: which rule-posted
// constraints hold with zero slack at the incumbent, and whether the group's
// values came from the warm-start cache, a domain bound — propagation or a
// B&B clamp — or branching). For the selected round it also prints the
// counter deltas between that round's `metrics` snapshot and the previous
// one. `--var` narrows the provenance output to groups whose key or tight
// constraint labels contain the given substring.
//
// Rounds follow the trace convention: the `metrics` line for round R is
// emitted after round R's events, so every event up to and including that
// line (and after round R-1's line) belongs to round R.
//
// Output is deterministic — ctest `explain_golden` diffs it with a golden.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "runtime/trace_replay.h"

namespace cologne::runtime {
namespace {

// ---------------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------------

struct ProvGroup {
  std::string key;  // empty = ungrouped solve
  std::string src;
  std::vector<std::string> tight;
};

struct SolveEvent {
  std::string t;  // raw spelling, echoed verbatim
  int node = 0;
  std::string status;
  bool has_objective = false;
  std::string objective;
  uint64_t vars = 0;
  uint64_t groups = 0;
  bool warm = false;
  std::vector<ProvGroup> prov;
  uint64_t round = 0;  // 0 = no metrics lines follow this event
};

struct MetricsEvent {
  std::string t;
  uint64_t round = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  // name -> (le bounds, counts, total count, sum)
  struct Hist {
    std::vector<int64_t> le;
    std::vector<uint64_t> n;
    uint64_t count = 0;
    int64_t sum = 0;
  };
  std::map<std::string, Hist> hists;
};

struct Trace {
  std::string program;
  uint64_t seed = 0;
  std::vector<SolveEvent> solves;
  std::vector<MetricsEvent> metrics;

  const MetricsEvent* Round(uint64_t round) const {
    for (const MetricsEvent& m : metrics) {
      if (m.round == round) return &m;
    }
    return nullptr;
  }
};

// Checked number reads for one event; a failed read, or a value that does
// not fit its field, marks the event malformed.
struct Numbers {
  bool ok = true;
  template <typename T, typename U>
  void Read(const Result<U>& r, T* out) {
    if (r.ok()) *out = static_cast<T>(r.value());
    ok = ok && r.ok() && static_cast<U>(*out) == r.value();
  }
};

bool ParseSolve(const JsonValue& line, SolveEvent* out) {
  const JsonValue* t = line.Find("t");
  const JsonValue* node = line.Find("node");
  const JsonValue* status = line.Find("status");
  if (t == nullptr || node == nullptr || status == nullptr) return false;
  Numbers num;
  out->t = t->text;
  num.Read(node->AsInt(), &out->node);
  out->status = status->text;
  if (const JsonValue* v = line.Find("objective")) {
    out->has_objective = true;
    out->objective = v->text;
  }
  if (const JsonValue* v = line.Find("vars")) num.Read(v->AsUInt(), &out->vars);
  if (const JsonValue* v = line.Find("groups")) {
    num.Read(v->AsUInt(), &out->groups);
  }
  int64_t warm = 0;
  if (const JsonValue* v = line.Find("warm")) num.Read(v->AsInt(), &warm);
  out->warm = warm != 0;
  if (const JsonValue* v = line.Find("prov")) {
    for (const JsonValue& g : v->items) {
      ProvGroup group;
      if (const JsonValue* k = g.Find("g")) group.key = k->text;
      if (const JsonValue* s = g.Find("src")) group.src = s->text;
      if (const JsonValue* tight = g.Find("tight")) {
        for (const JsonValue& label : tight->items) {
          group.tight.push_back(label.text);
        }
      }
      out->prov.push_back(std::move(group));
    }
  }
  return num.ok;
}

bool ParseMetrics(const JsonValue& line, MetricsEvent* out) {
  const JsonValue* t = line.Find("t");
  const JsonValue* round = line.Find("round");
  if (t == nullptr || round == nullptr) return false;
  Numbers num;
  out->t = t->text;
  num.Read(round->AsUInt(), &out->round);
  if (const JsonValue* c = line.Find("counters")) {
    for (const auto& [name, v] : c->members) {
      num.Read(v.AsUInt(), &out->counters[name]);
    }
  }
  if (const JsonValue* g = line.Find("gauges")) {
    for (const auto& [name, v] : g->members) {
      num.Read(v.AsInt(), &out->gauges[name]);
    }
  }
  if (const JsonValue* h = line.Find("hist")) {
    for (const auto& [name, v] : h->members) {
      MetricsEvent::Hist hist;
      if (const JsonValue* le = v.Find("le")) {
        for (const JsonValue& b : le->items) {
          num.Read(b.AsInt(), &hist.le.emplace_back());
        }
      }
      if (const JsonValue* n = v.Find("n")) {
        for (const JsonValue& b : n->items) {
          num.Read(b.AsUInt(), &hist.n.emplace_back());
        }
      }
      if (const JsonValue* c = v.Find("count")) {
        num.Read(c->AsUInt(), &hist.count);
      }
      if (const JsonValue* s = v.Find("sum")) num.Read(s->AsInt(), &hist.sum);
      out->hists[name] = std::move(hist);
    }
  }
  return num.ok;
}

Result<Trace> LoadTrace(const std::string& path) {
  COLOGNE_ASSIGN_OR_RETURN(lines, ReadTraceLines(path));
  if (lines.empty()) return Status::ParseError("empty trace: " + path);
  COLOGNE_ASSIGN_OR_RETURN(header, ParseTraceHeader(lines[0]));
  Trace trace;
  trace.program = header.program;
  trace.seed = header.seed;
  // Indices of solve events still waiting for their round's metrics line.
  std::vector<size_t> open_solves;
  for (size_t i = 1; i < lines.size(); ++i) {
    auto bad = [&](const std::string& what) {
      return Status::ParseError("line " + std::to_string(i + 1) + ": " + what);
    };
    Result<JsonValue> parsed = ParseJson(lines[i]);
    if (!parsed.ok()) return bad(parsed.status().message());
    const JsonValue& value = parsed.value();
    const JsonValue* ev = value.Find("ev");
    if (ev == nullptr) return bad("no \"ev\" field");
    if (ev->text == "solve") {
      SolveEvent solve;
      if (!ParseSolve(value, &solve)) return bad("malformed solve event");
      open_solves.push_back(trace.solves.size());
      trace.solves.push_back(std::move(solve));
    } else if (ev->text == "metrics") {
      MetricsEvent metrics;
      if (!ParseMetrics(value, &metrics)) return bad("malformed metrics event");
      for (size_t s : open_solves) trace.solves[s].round = metrics.round;
      open_solves.clear();
      trace.metrics.push_back(std::move(metrics));
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool GroupMatchesVar(const ProvGroup& g, const std::string& var) {
  if (var.empty()) return true;
  if (g.key.find(var) != std::string::npos) return true;
  for (const std::string& label : g.tight) {
    if (label.find(var) != std::string::npos) return true;
  }
  return false;
}

void PrintSolve(const SolveEvent& s, const std::string& var) {
  printf("solve t=%s node=%d round=", s.t.c_str(), s.node);
  if (s.round == 0) {
    printf("?");
  } else {
    printf("%llu", static_cast<unsigned long long>(s.round));
  }
  printf(" status=%s", s.status.c_str());
  if (s.has_objective) printf(" objective=%s", s.objective.c_str());
  printf(" vars=%llu", static_cast<unsigned long long>(s.vars));
  if (s.groups > 0) {
    printf(" groups=%llu", static_cast<unsigned long long>(s.groups));
  }
  printf(" warm=%s\n", s.warm ? "yes" : "no");
  if (s.prov.empty()) {
    printf("  (no provenance recorded: OBS_METRICS was off, or no solution)\n");
    return;
  }
  bool any = false;
  for (const ProvGroup& g : s.prov) {
    if (!GroupMatchesVar(g, var)) continue;
    any = true;
    printf("  group %s src=%s\n", g.key.empty() ? "(all)" : g.key.c_str(),
           g.src.c_str());
    if (g.tight.empty()) {
      printf("    binding: (none — every touching constraint has slack)\n");
    } else {
      printf("    binding:");
      for (const std::string& label : g.tight) printf(" %s", label.c_str());
      printf("\n");
    }
  }
  if (!any) {
    printf("  (no group matches --var %s)\n", var.c_str());
  }
}

void PrintMetricsDelta(const Trace& trace, uint64_t round) {
  const MetricsEvent* cur = trace.Round(round);
  if (cur == nullptr) {
    printf("\nno metrics snapshot for round %llu\n",
           static_cast<unsigned long long>(round));
    return;
  }
  const MetricsEvent* prev = trace.Round(round - 1);
  printf("\nmetrics round %llu (t=%s)%s:\n",
         static_cast<unsigned long long>(round), cur->t.c_str(),
         prev == nullptr ? "" : " — delta vs previous round");
  for (const auto& [name, value] : cur->counters) {
    uint64_t before = 0;
    if (prev != nullptr) {
      auto it = prev->counters.find(name);
      if (it != prev->counters.end()) before = it->second;
    }
    printf("  %s: %llu (+%llu)\n", name.c_str(),
           static_cast<unsigned long long>(value),
           static_cast<unsigned long long>(value - before));
  }
  for (const auto& [name, value] : cur->gauges) {
    printf("  %s: %lld (gauge)\n", name.c_str(),
           static_cast<long long>(value));
  }
  for (const auto& [name, h] : cur->hists) {
    printf("  %s: count=%llu sum=%lld buckets[", name.c_str(),
           static_cast<unsigned long long>(h.count),
           static_cast<long long>(h.sum));
    for (size_t i = 0; i < h.n.size(); ++i) {
      if (i > 0) printf(" ");
      if (i < h.le.size()) {
        printf("<=%lld:%llu", static_cast<long long>(h.le[i]),
               static_cast<unsigned long long>(h.n[i]));
      } else {
        printf("inf:%llu", static_cast<unsigned long long>(h.n[i]));
      }
    }
    printf("]\n");
  }
}

void PrintList(const Trace& trace) {
  std::map<int, size_t> per_node;
  for (const SolveEvent& s : trace.solves) ++per_node[s.node];
  printf("solve events: %zu\n", trace.solves.size());
  for (const auto& [node, count] : per_node) {
    printf("  node %d: %zu\n", node, count);
  }
  printf("metrics snapshots: %zu\n", trace.metrics.size());
  for (const MetricsEvent& m : trace.metrics) {
    printf("  round %llu t=%s counters=%zu gauges=%zu\n",
           static_cast<unsigned long long>(m.round), m.t.c_str(),
           m.counters.size(), m.gauges.size());
  }
}

int Usage() {
  fprintf(stderr,
          "usage: explain --trace FILE [--list] [--node N] [--round R] "
          "[--var NAME]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string trace_path;
  std::string var;
  int node = -1;
  int64_t round = -1;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // --node and --round take a plain non-negative decimal: anything else
    // is a usage error, not a silent node 0.
    auto next_uint = [&](uint64_t max, uint64_t* out) {
      const char* v = next();
      return v != nullptr && ParseUint64(v, out) && *out <= max;
    };
    if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace_path = v;
    } else if (arg == "--node") {
      uint64_t n = 0;
      if (!next_uint(INT_MAX, &n)) return Usage();
      node = static_cast<int>(n);
    } else if (arg == "--round") {
      uint64_t r = 0;
      if (!next_uint(INT64_MAX, &r)) return Usage();
      round = static_cast<int64_t>(r);
    } else if (arg == "--var") {
      const char* v = next();
      if (v == nullptr) return Usage();
      var = v;
    } else if (arg == "--list") {
      list = true;
    } else {
      return Usage();
    }
  }
  if (trace_path.empty()) return Usage();

  auto loaded = LoadTrace(trace_path);
  if (!loaded.ok()) {
    fprintf(stderr, "explain: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Trace& trace = loaded.value();
  printf("trace: program=%s seed=%llu\n", trace.program.c_str(),
         static_cast<unsigned long long>(trace.seed));

  if (list) {
    PrintList(trace);
    return 0;
  }

  printf("query: node=%s round=%s var=%s\n",
         node < 0 ? "*" : std::to_string(node).c_str(),
         round < 0 ? "*" : std::to_string(round).c_str(),
         var.empty() ? "*" : var.c_str());
  size_t matched = 0;
  for (const SolveEvent& s : trace.solves) {
    if (node >= 0 && s.node != node) continue;
    if (round >= 0 && s.round != static_cast<uint64_t>(round)) continue;
    PrintSolve(s, var);
    ++matched;
  }
  if (matched == 0) {
    printf("no solve events match\n");
    return 1;
  }
  if (round >= 0 && !trace.metrics.empty()) {
    PrintMetricsDelta(trace, static_cast<uint64_t>(round));
  }
  return 0;
}

}  // namespace
}  // namespace cologne::runtime

int main(int argc, char** argv) {
  return cologne::runtime::Main(argc, argv);
}
