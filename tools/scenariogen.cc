// scenariogen — emit seeded randomized scenarios for the three paper apps
// as reproducible JSON lines (docs/testing.md).
//
//   scenariogen [--count N] [--seed S] [--apps fts,wireless,acloud]
//               [--app NAME --scenario-seed S]   # regenerate one scenario
//               [--no-faults] [--out FILE]
//
// Same flags => same output, byte for byte. `--app X --scenario-seed S`
// regenerates exactly the scenario a sweep failure names, independent of
// --count/--seed.
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/scenariogen.h"
#include "common/strings.h"

namespace {

using cologne::apps::GenerateScenario;
using cologne::apps::GenerateScenarios;
using cologne::apps::ParseScenarioApp;
using cologne::apps::Scenario;
using cologne::apps::ScenarioApp;
using cologne::apps::ScenarioGenConfig;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--count N] [--seed S] [--apps fts,wireless,acloud]\n"
      "          [--app NAME --scenario-seed S] [--no-faults] [--out FILE]\n",
      argv0);
  return 2;
}

std::vector<ScenarioApp> ParseApps(const std::string& csv, bool* ok) {
  std::vector<ScenarioApp> apps;
  *ok = true;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    ScenarioApp app;
    if (!ParseScenarioApp(item, &app)) {
      std::fprintf(stderr, "scenariogen: unknown app \"%s\"\n", item.c_str());
      *ok = false;
      return apps;
    }
    apps.push_back(app);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return apps;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioGenConfig config;
  std::string out_path;
  std::string one_app;
  bool have_scenario_seed = false;
  uint64_t scenario_seed = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Integer flags take a plain non-negative decimal: anything else is a
    // usage error, not a silent 0.
    auto next_uint = [&](uint64_t* out) {
      const char* v = next();
      return v != nullptr && cologne::ParseUint64(v, out);
    };
    if (arg == "--count") {
      uint64_t n = 0;
      if (!next_uint(&n) || n > INT_MAX) return Usage(argv[0]);
      config.count = static_cast<int>(n);
    } else if (arg == "--seed") {
      if (!next_uint(&config.seed)) return Usage(argv[0]);
    } else if (arg == "--apps") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      bool ok = false;
      config.apps = ParseApps(v, &ok);
      if (!ok || config.apps.empty()) return Usage(argv[0]);
    } else if (arg == "--app") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      one_app = v;
    } else if (arg == "--scenario-seed") {
      if (!next_uint(&scenario_seed)) return Usage(argv[0]);
      have_scenario_seed = true;
    } else if (arg == "--no-faults") {
      config.with_faults = false;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else {
      return Usage(argv[0]);
    }
  }

  std::vector<Scenario> scenarios;
  if (!one_app.empty() || have_scenario_seed) {
    if (one_app.empty() || !have_scenario_seed) {
      std::fprintf(stderr,
                   "scenariogen: --app and --scenario-seed go together\n");
      return 2;
    }
    ScenarioApp app;
    if (!ParseScenarioApp(one_app, &app)) {
      std::fprintf(stderr, "scenariogen: unknown app \"%s\"\n",
                   one_app.c_str());
      return 2;
    }
    scenarios.push_back(GenerateScenario(app, scenario_seed, config));
  } else {
    scenarios = GenerateScenarios(config);
  }

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "scenariogen: cannot open %s\n", out_path.c_str());
      return 1;
    }
  }
  for (const Scenario& s : scenarios) {
    std::fprintf(out, "%s\n", s.ToJson().c_str());
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
