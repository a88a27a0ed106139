// Seeded mutation fuzzer for the JSON reader and its two library callers.
//
// Seeds are every line of the golden traces (tests/golden/*.trace) and the
// canonical JSON of randomly generated fault plans. Each iteration stacks a
// few mutations on one seed (byte flips, truncations, duplicated spans,
// inserted runs of '[' or '{') and feeds the result to ParseJson,
// FaultPlan::FromJson and ParseTraceHeader. Every result must be OK or a
// ParseError; a crash, a sanitizer report or a ctest timeout fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "net/fault_plan.h"
#include "runtime/trace_replay.h"
#include "solver_test_util.h"

namespace cologne {
namespace {

constexpr uint64_t kFuzzSeed = 0x150AF022;
// Sanitizers slow parsing ~10x; the seed corpus is the same either way.
constexpr int kIterations = solver::kSanitizerBuild ? 10'000 : 100'000;

std::vector<std::string> GoldenTraceLines() {
  std::vector<std::string> lines;
  for (const auto& entry :
       std::filesystem::directory_iterator(COLOGNE_GOLDEN_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> FaultPlanSeeds() {
  std::vector<std::pair<NodeId, NodeId>> links{{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  net::FaultPlan::RandomConfig busy;
  busy.flap_prob = busy.loss_prob = busy.dup_prob = busy.reorder_prob = 1;
  busy.partition_prob = busy.crash_prob = 1;
  std::vector<std::string> out;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back(net::FaultPlan::Random(seed, 4, links).ToJson());
    out.push_back(net::FaultPlan::Random(seed, 4, links, busy).ToJson());
  }
  return out;
}

std::string Mutate(std::string s, Rng* rng) {
  auto pos = [&](size_t size) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(size)));
  };
  int steps = static_cast<int>(rng->UniformInt(1, 3));
  for (int i = 0; i < steps; ++i) {
    switch (rng->UniformInt(0, 3)) {
      case 0:  // byte flip
        if (!s.empty()) {
          s[pos(s.size() - 1)] = static_cast<char>(rng->UniformInt(0, 255));
        }
        break;
      case 1:  // truncation
        s.resize(pos(s.size()));
        break;
      case 2: {  // duplicated span
        size_t from = pos(s.size());
        size_t len = pos(std::min<size_t>(s.size() - from, 64));
        s.insert(pos(s.size()), s.substr(from, len));
        break;
      }
      default: {  // a run of openers, sometimes past the nesting cap
        size_t len = static_cast<size_t>(rng->UniformInt(1, 2 * kMaxJsonDepth));
        s.insert(pos(s.size()), len, rng->Bernoulli(0.5) ? '[' : '{');
        break;
      }
    }
  }
  return s;
}

void ExpectOkOrParseError(const Status& st, const std::string& input,
                          const char* who) {
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kParseError)
      << who << " returned " << st.ToString() << " for: " << input;
}

void FeedAll(const std::string& input) {
  ExpectOkOrParseError(ParseJson(input).status(), input, "ParseJson");
  ExpectOkOrParseError(net::FaultPlan::FromJson(input).status(), input,
                       "FaultPlan::FromJson");
  ExpectOkOrParseError(runtime::ParseTraceHeader(input).status(), input,
                       "ParseTraceHeader");
}

TEST(JsonFuzzTest, SeedCorpusParses) {
  std::vector<std::string> lines = GoldenTraceLines();
  ASSERT_GT(lines.size(), 100u) << "golden traces not found";
  for (const std::string& line : lines) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << line;
    if (parsed.value().Find("ev")->text == "header") {
      EXPECT_TRUE(runtime::ParseTraceHeader(line).ok()) << line;
    }
  }
  for (const std::string& json : FaultPlanSeeds()) {
    auto plan = net::FaultPlan::FromJson(json);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value().ToJson(), json);
  }
}

TEST(JsonFuzzTest, MutatedInputsAreOkOrParseError) {
  // Half the draws come from each pool: the trace lines outnumber the
  // fault plans several hundred to one.
  const std::vector<std::string> pools[] = {GoldenTraceLines(),
                                            FaultPlanSeeds()};
  ASSERT_FALSE(pools[0].empty());
  Rng rng(kFuzzSeed);
  for (int i = 0; i < kIterations; ++i) {
    const std::vector<std::string>& pool = pools[rng.Bernoulli(0.5) ? 1 : 0];
    const std::string& seed = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    FeedAll(Mutate(seed, &rng));
    if (HasFailure()) return;  // one reproducer is enough
  }
}

TEST(JsonFuzzTest, DeepNestingIsAParseError) {
  // Both used to overflow the stack: a fault plan of 100,000 '[' and a
  // trace line (read by explain and ParseTraceHeader) of 200,000 '['.
  for (size_t depth : {size_t{100'000}, size_t{200'000}}) {
    for (char opener : {'[', '{'}) {
      std::string input(depth, opener);
      auto json = ParseJson(input);
      ASSERT_FALSE(json.ok());
      EXPECT_EQ(json.status().code(), StatusCode::kParseError);
      auto plan = net::FaultPlan::FromJson(input);
      ASSERT_FALSE(plan.ok());
      EXPECT_EQ(plan.status().code(), StatusCode::kParseError);
      auto header = runtime::ParseTraceHeader(
          "{\"ev\":\"header\",\"fault_plan\":" + input);
      ASSERT_FALSE(header.ok());
      EXPECT_EQ(header.status().code(), StatusCode::kParseError);
    }
  }
}

}  // namespace
}  // namespace cologne
