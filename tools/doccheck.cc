// doccheck: executable documentation for Colog.
//
// Extracts every ```colog fenced code block from the given markdown files,
// compiles it through the real toolchain (CompileColog), and — when the
// block carries `//!` directives — loads it into a runtime::Instance, feeds
// it facts, runs invokeSolver, and checks the outcome. Directives are Colog
// comments, so documented programs run verbatim.
//
//   //! fact vm(1, 20, 30)         insert a base fact before solving
//   //! solve                      invokeSolver must find a solution
//   //! solve objective=42         ... with this exact objective
//   //! expect assign rows=4       engine table cardinality after the solve
//   //! compile-only               only compile (default for @-distributed
//                                  programs, which need a full System)
//
// It also checks the reserved-knob table (the markdown table headed
// `| Knob | Values | Meaning |`, which one of the files must hold): its rows
// must name exactly the knobs of colog/knobs.h, each with the Values cell
// KnobRange spells for it.
//
// Usage: doccheck FILE.md [FILE.md ...]; exits non-zero on any failing
// block or knob-table mismatch, printing file and line. Wired into ctest and
// the CI docs job so the examples and the knob table in
// docs/colog-reference.md cannot rot.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "colog/knobs.h"
#include "colog/planner.h"
#include "common/strings.h"
#include "common/value.h"
#include "runtime/instance.h"

namespace {

using cologne::Row;
using cologne::Value;

struct Directive {
  std::string kind;  // "fact", "solve", "expect", "compile-only"
  std::string body;  // remainder of the line after the kind
  int line = 0;
};

struct Block {
  std::string source;
  std::vector<Directive> directives;
  int start_line = 0;
};

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool ParseValue(const std::string& text, Value* out) {
  std::string t = Trim(text);
  if (t.empty()) return false;
  if (t.front() == '"' && t.back() == '"' && t.size() >= 2) {
    *out = Value::Str(t.substr(1, t.size() - 2));
    return true;
  }
  if (t.front() == '@') {
    *out = Value::Node(static_cast<cologne::NodeId>(
        strtol(t.c_str() + 1, nullptr, 10)));
    return true;
  }
  char* end = nullptr;
  long long v = strtoll(t.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = Value::Int(v);
  return true;
}

/// Parse "table(v1, v2, ...)" into a table name and a row.
bool ParseFact(const std::string& text, std::string* table, Row* row) {
  size_t open = text.find('(');
  size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return false;
  }
  *table = Trim(text.substr(0, open));
  std::string args = text.substr(open + 1, close - open - 1);
  row->clear();
  std::string cur;
  for (char c : args + ",") {
    if (c == ',') {
      if (Trim(cur).empty()) continue;
      Value v;
      if (!ParseValue(cur, &v)) return false;
      row->push_back(std::move(v));
      cur.clear();
    } else {
      cur += c;
    }
  }
  return !table->empty();
}

int Fail(const std::string& file, int line, const std::string& msg) {
  fprintf(stderr, "%s:%d: %s\n", file.c_str(), line, msg.c_str());
  return 1;
}

int CheckBlock(const std::string& file, const Block& block) {
  auto compiled = cologne::colog::CompileColog(block.source);
  if (!compiled.ok()) {
    return Fail(file, block.start_line,
                "colog block fails to compile: " +
                    compiled.status().ToString());
  }
  cologne::colog::CompiledProgram prog = std::move(compiled).value();

  bool compile_only = prog.distributed;  // needs a full System to run
  bool has_run_directives = false;
  for (const Directive& d : block.directives) {
    if (d.kind == "compile-only") compile_only = true;
    if (d.kind == "fact" || d.kind == "solve" || d.kind == "expect") {
      has_run_directives = true;
    }
  }
  if (compile_only || !has_run_directives) return 0;

  cologne::runtime::Instance inst(0, &prog);
  cologne::Status s = inst.Init();
  if (!s.ok()) return Fail(file, block.start_line, s.ToString());

  cologne::runtime::SolveOutput last;
  bool solved = false;
  for (const Directive& d : block.directives) {
    if (d.kind == "fact") {
      std::string table;
      Row row;
      if (!ParseFact(d.body, &table, &row)) {
        return Fail(file, d.line, "unparseable fact directive: " + d.body);
      }
      s = inst.InsertFact(table, std::move(row));
      if (!s.ok()) return Fail(file, d.line, s.ToString());
    } else if (d.kind == "solve") {
      auto out = inst.Solve();
      if (!out.ok()) return Fail(file, d.line, out.status().ToString());
      last = out.value();
      solved = true;
      if (!last.has_solution()) {
        return Fail(file, d.line, "solve found no solution");
      }
      size_t eq = d.body.find("objective=");
      if (eq != std::string::npos) {
        double want = 0;
        if (!cologne::ParseDouble(std::string_view(d.body).substr(eq + 10),
                                  &want)) {
          return Fail(file, d.line, "unparseable solve directive: " + d.body);
        }
        if (!last.has_objective || last.objective != want) {
          return Fail(file, d.line,
                      "objective mismatch: wanted " + std::to_string(want) +
                          ", got " + std::to_string(last.objective));
        }
      }
    } else if (d.kind == "expect") {
      std::istringstream in(d.body);
      std::string table, rows_spec, extra;
      in >> table >> rows_spec >> extra;
      uint64_t want = 0;
      if (table.empty() || rows_spec.rfind("rows=", 0) != 0 ||
          !cologne::ParseUint64(std::string_view(rows_spec).substr(5),
                                &want) ||
          !extra.empty()) {
        return Fail(file, d.line, "unparseable expect directive: " + d.body);
      }
      const cologne::datalog::Table* t = inst.engine().GetTable(table);
      size_t got = t == nullptr ? 0 : t->size();
      if (got != want) {
        return Fail(file, d.line,
                    "table " + table + " has " + std::to_string(got) +
                        " rows, expected " + std::to_string(want));
      }
    }
  }
  (void)solved;
  return 0;
}

// Name -> Values cell (backticks dropped) of each knob-table row.
using KnobRows = std::map<std::string, std::string>;

std::string StripTicks(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != '`') out += c;
  }
  return Trim(out);
}

// The documented knob table must match colog/knobs.h row for row.
int CheckKnobTable(const KnobRows& documented) {
  int failures = 0;
  for (const cologne::colog::KnobSpec& spec : cologne::colog::Knobs()) {
    auto it = documented.find(spec.name);
    const std::string range = cologne::colog::KnobRange(spec);
    if (it == documented.end()) {
      fprintf(stderr, "doccheck: knob table lacks %s\n", spec.name);
      ++failures;
    } else if (it->second != range) {
      fprintf(stderr, "doccheck: knob table gives %s as \"%s\", not \"%s\"\n",
              spec.name, it->second.c_str(), range.c_str());
      ++failures;
    }
  }
  for (const auto& [name, values] : documented) {
    if (cologne::colog::FindKnob(name) == nullptr) {
      fprintf(stderr, "doccheck: knob table lists unknown knob %s\n",
              name.c_str());
      ++failures;
    }
  }
  return failures;
}

int CheckFile(const std::string& path, KnobRows* knob_rows, bool* saw_table) {
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "doccheck: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  int lineno = 0, blocks = 0, failures = 0;
  bool in_block = false;
  bool in_knob_table = false;
  Block block;
  while (std::getline(in, line)) {
    ++lineno;
    std::string t = Trim(line);
    if (!in_block) {
      if (t.rfind("| Knob | Values |", 0) == 0) {
        in_knob_table = *saw_table = true;
        continue;
      }
      in_knob_table = in_knob_table && t.rfind("|", 0) == 0;
      if (in_knob_table && t.rfind("|---", 0) != 0) {
        // | `NAME` | values | meaning |
        size_t a = t.find('|', 1);
        size_t b = a == std::string::npos ? a : t.find('|', a + 1);
        if (b == std::string::npos) {
          return Fail(path, lineno, "malformed knob table row");
        }
        (*knob_rows)[StripTicks(t.substr(1, a - 1))] =
            StripTicks(t.substr(a + 1, b - a - 1));
        continue;
      }
      if (t.rfind("```colog", 0) == 0) {
        in_block = true;
        block = Block{};
        block.start_line = lineno + 1;
      }
      continue;
    }
    if (t.rfind("```", 0) == 0) {
      in_block = false;
      ++blocks;
      failures += CheckBlock(path, block);
      continue;
    }
    if (t.rfind("//!", 0) == 0) {
      std::string rest = Trim(t.substr(3));
      size_t sp = rest.find(' ');
      Directive d;
      d.kind = sp == std::string::npos ? rest : rest.substr(0, sp);
      d.body = sp == std::string::npos ? "" : Trim(rest.substr(sp + 1));
      d.line = lineno;
      block.directives.push_back(std::move(d));
    }
    block.source += line;
    block.source += '\n';
  }
  if (in_block) {
    fprintf(stderr, "%s: unterminated ```colog block\n", path.c_str());
    return 1;
  }
  printf("%s: %d colog block(s), %d failure(s)\n", path.c_str(), blocks,
         failures);
  if (blocks == 0) {
    fprintf(stderr, "%s: no ```colog blocks found — nothing verified\n",
            path.c_str());
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: %s FILE.md [FILE.md ...]\n", argv[0]);
    return 2;
  }
  int rc = 0;
  KnobRows knob_rows;
  bool saw_table = false;
  for (int i = 1; i < argc; ++i) {
    rc |= CheckFile(argv[i], &knob_rows, &saw_table);
  }
  if (!saw_table) {
    fprintf(stderr, "doccheck: no reserved-knob table found\n");
    return 1;
  }
  return CheckKnobTable(knob_rows) == 0 ? rc : 1;
}
