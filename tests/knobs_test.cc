// The reserved runtime knobs (colog/knobs.h), one loop over the table: every
// row's valid values compile and land in Instance::solve_options() or the
// System, its out-of-range and wrong-typed values fail CompileColog naming
// the knob, and a driver's CommonConfig::knobs override beats the
// program's own `param` line.
#include "colog/knobs.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/common_config.h"
#include "colog/planner.h"
#include "runtime/instance.h"
#include "runtime/system.h"

namespace cologne::colog {
namespace {

template <typename M>
struct MemberOf;
template <typename T, typename C>
struct MemberOf<T C::*> {
  using Owner = C;
  using Type = T;
};

// Sample values for one row, derived from its target field's type.
struct Samples {
  std::vector<Value> valid;  // At least two, distinct.
  std::vector<Value> out_of_range;
  std::vector<Value> wrong_type;
};

Samples SamplesFor(const KnobSpec& spec) {
  return std::visit(
      [&spec](auto field) {
        using T = typename MemberOf<decltype(field)>::Type;
        Samples s;
        if constexpr (std::is_same_v<T, double>) {
          s.valid = {Value::Int(750), Value::Double(0.5)};
          s.out_of_range = {Value::Int(-5), Value::Int(0)};
          s.wrong_type = {Value::Str("soon")};
        } else if constexpr (std::is_same_v<T, solver::Backend>) {
          for (const char* name : {"lns", "bnb"}) {
            s.valid.push_back(Value::Str(name));
          }
          s.out_of_range = {Value::Str("tabu"), Value::Str("bnbb"),
                            Value::Str("portfolio")};
          s.wrong_type = {Value::Int(1)};
        } else {
          const int64_t max = std::numeric_limits<int64_t>::max();
          s.valid = {Value::Int(spec.lo + 1), Value::Int(spec.lo)};
          if (spec.hi != max) s.valid.push_back(Value::Int(spec.hi));
          s.out_of_range = {Value::Int(spec.lo - 1)};
          if (spec.hi != max) s.out_of_range.push_back(Value::Int(spec.hi + 1));
          s.wrong_type = {Value::Str("x"), Value::Double(0.5)};
        }
        return s;
      },
      spec.field);
}

std::string Program(const std::string& name, const Value& value) {
  std::string literal = value.is_string() ? "\"" + value.as_string() + "\""
                                          : value.ToString();
  return "param " + name + " = " + literal + ".\ngoal satisfy.\n";
}

// True when the row's target field holds `value` once `prog` is deployed:
// SolveKnobs fields are read off an initialized Instance, SystemKnobs
// fields off a System.
bool Landed(const KnobSpec& spec, const CompiledProgram& prog,
            const Value& value) {
  return std::visit(
      [&](auto field) {
        using Member = MemberOf<decltype(field)>;
        using T = typename Member::Type;
        T got{};
        if constexpr (std::is_same_v<typename Member::Owner, SolveKnobs>) {
          runtime::Instance inst(0, &prog);
          EXPECT_TRUE(inst.Init().ok());
          got = inst.solve_options().*field;
        } else {
          runtime::System sys(&prog, 1);
          got = field == &SystemKnobs::net_reliable ? sys.net_reliable()
                                                    : sys.obs_metrics();
        }
        if constexpr (std::is_same_v<T, double>) {
          return got == value.as_double();
        } else if constexpr (std::is_same_v<T, solver::Backend>) {
          solver::Backend want;
          return solver::ParseBackend(value.as_string(), &want) && got == want;
        } else {
          return static_cast<int64_t>(got) == value.as_int();
        }
      },
      spec.field);
}

TEST(KnobTableTest, EveryRowValidatesAndLands) {
  ASSERT_EQ(Knobs().size(), 6u);
  for (const KnobSpec& spec : Knobs()) {
    SCOPED_TRACE(spec.name);
    const Samples samples = SamplesFor(spec);
    ASSERT_GE(samples.valid.size(), 2u);
    for (const Value& v : samples.valid) {
      auto r = CompileColog(Program(spec.name, v));
      ASSERT_TRUE(r.ok()) << v.ToString() << ": " << r.status().ToString();
      // Consumed into CompiledProgram::knobs, not the rule parameters.
      EXPECT_EQ(r.value().params.count(spec.name), 0u);
      EXPECT_EQ(r.value().knobs.count(spec.name), 1u);
      EXPECT_TRUE(Landed(spec, r.value(), v)) << v.ToString();
    }
    std::vector<Value> bad = samples.out_of_range;
    bad.insert(bad.end(), samples.wrong_type.begin(), samples.wrong_type.end());
    for (const Value& v : bad) {
      auto r = CompileColog(Program(spec.name, v));
      ASSERT_FALSE(r.ok()) << v.ToString();
      EXPECT_NE(r.status().message().find(spec.name), std::string::npos)
          << r.status().ToString();
    }
    // The parser rejects a valueless knob.
    auto open = CompileColog("param " + std::string(spec.name) +
                             ".\ngoal satisfy.\n");
    ASSERT_FALSE(open.ok());
    EXPECT_NE(open.status().message().find(spec.name), std::string::npos);
  }
}

TEST(KnobTableTest, DriverKnobsOverrideProgramParams) {
  for (const KnobSpec& spec : Knobs()) {
    SCOPED_TRACE(spec.name);
    const Samples samples = SamplesFor(spec);
    apps::CommonConfig config;
    config.knobs[spec.name] = samples.valid[0];
    auto r = apps::CompileDriverProgram(Program(spec.name, samples.valid[1]),
                                        config);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(Landed(spec, r.value(), samples.valid[0]));
    EXPECT_FALSE(Landed(spec, r.value(), samples.valid[1]));
  }
}

TEST(KnobTableTest, UnsetKnobsKeepRuntimeDefaults) {
  auto r = CompileColog("goal satisfy.\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().knobs.empty());
  runtime::Instance inst(0, &r.value());
  ASSERT_TRUE(inst.Init().ok());
  EXPECT_TRUE(inst.solve_options() == runtime::SolveOptions{});
}

TEST(KnobTableTest, UnknownSolverKnobRejected) {
  // A SOLVER_ name outside the knob table is an error, never a rule
  // parameter; all but the first name features that no longer exist.
  for (const char* suffix :
       {"TEMPERATURE", "RESTARTS", "CACHE", "INCR_THRESHOLD", "INCREMENTAL"}) {
    const std::string name = std::string("SOLVER_") + suffix;
    SCOPED_TRACE(name);
    auto r = CompileColog("param " + name + " = 3.\ngoal satisfy.\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown solver knob"),
              std::string::npos);
    EXPECT_NE(r.status().message().find(name), std::string::npos);
  }
  // Other ALL-CAPS names stay ordinary parameters in Colog source...
  EXPECT_TRUE(CompileColog("param MAX_LOAD = 3.\ngoal satisfy.\n").ok());
  // ...but a driver's knobs map only takes reserved names: a typo must not
  // silently bind as a rule parameter.
  apps::CommonConfig config;
  config.knobs["SOLVER_BACKEN"] = Value::Str("lns");
  auto typo = apps::CompileDriverProgram("goal satisfy.\n", config);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("SOLVER_BACKEN"), std::string::npos);
  config.knobs = {{"max_load", Value::Int(3)}};
  EXPECT_FALSE(apps::CompileDriverProgram("goal satisfy.\n", config).ok());
}

}  // namespace
}  // namespace cologne::colog
