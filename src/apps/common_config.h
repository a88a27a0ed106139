// Shared scenario-driver settings, hoisted from FtsConfig / WirelessConfig /
// ACloudConfig (which duplicated them verbatim), plus the helpers that turn
// them into a compiled program and runtime::System::Options / SolveOptions /
// SolveRequest in one place instead of three per-driver copies.
#ifndef COLOGNE_APPS_COMMON_CONFIG_H_
#define COLOGNE_APPS_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>

#include "colog/planner.h"
#include "common/status.h"
#include "common/value.h"
#include "runtime/solver_bridge.h"
#include "runtime/system.h"

namespace cologne::apps {

/// Settings every scenario driver shares. Scenario configs inherit this;
/// their constructors override the seed default (11 for Follow-the-Sun, 3
/// for wireless, 7 for ACloud — the historical per-scenario defaults).
struct CommonConfig {
  uint64_t seed = 1;
  /// Reserved runtime knobs in their Colog `param` spelling (colog/knobs.h),
  /// e.g. {"SOLVER_BACKEND", Value::Str("lns")} or {"NET_RELIABLE",
  /// Value::Int(1)}. The driver compiles its program with these as
  /// compile-time params, so they override the program's own `param` lines
  /// and the planner validates them; a key that is not a reserved knob
  /// fails the run.
  std::map<std::string, Value> knobs;
  /// Uniform per-message drop probability on every link (composes with
  /// fault-plan loss windows). Distributed drivers only.
  double link_loss_prob = 0;
  /// Batch per-link solves: each round an initiator aggregates all its
  /// claimable incident links into ONE grouped model solve instead of
  /// negotiating one link per round.
  bool batch_links = false;
  /// Cap on links per batched solve; 0 = unlimited.
  int max_link_batch = 0;
  /// Deterministic improvement budget forwarded to
  /// SolveOptions::max_iterations; 0 = wall-clock bounded.
  uint64_t solver_max_iterations = 0;
};

/// Compile a driver's Colog program with `config.knobs` as compile-time
/// params. Fails on a key that is not a reserved knob (it would otherwise
/// bind as a rule parameter) and on a value outside the knob's range.
Result<colog::CompiledProgram> CompileDriverProgram(
    const std::string& source, const CommonConfig& config);

/// System::Options from the shared settings (seed, uniform loss).
runtime::System::Options MakeSystemOptions(const CommonConfig& config);

/// Overlay the shared solve budget on an instance's resolved options
/// (read-modify-write, so the knobs Init() applied survive).
/// `time_limit_ms` < 0 keeps the base time budget.
runtime::SolveOptions OverlaySolveOptions(const CommonConfig& config,
                                          runtime::SolveOptions base,
                                          double time_limit_ms);

/// The SolveRequest a driver's solve should issue: kBatched when
/// batch_links is set, else kFull. `batched_prefix` is the decision-group
/// key prefix of kBatched (2 = per-(X, Y) link).
runtime::SolveRequest MakeSolveRequest(const CommonConfig& config,
                                       int batched_prefix);

}  // namespace cologne::apps

#endif  // COLOGNE_APPS_COMMON_CONFIG_H_
