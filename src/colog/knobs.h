// Reserved runtime knobs: the one table of ALL-CAPS `param` names that
// configure the runtime rather than the program (the paper's
// SOLVER_MAX_TIME, Section 4.2, plus this implementation's search,
// transport and observability knobs). The parser, the planner, the runtime
// and the scenario drivers all read this table; adding a knob is one row
// plus its target field.
#ifndef COLOGNE_COLOG_KNOBS_H_
#define COLOGNE_COLOG_KNOBS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "common/value.h"
#include "solver/types.h"

namespace cologne::colog {

/// The per-solve fields the knobs set, at their runtime defaults.
/// runtime::SolveOptions derives from this struct.
struct SolveKnobs {
  /// Per-solve wall-clock budget in milliseconds (SOLVER_MAX_TIME).
  double time_limit_ms = 10'000;
  /// Search strategy (SOLVER_BACKEND).
  solver::Backend backend = solver::Backend::kBranchAndBound;
  /// Seed for randomized search decisions (SOLVER_SEED).
  uint64_t seed = 0x10C5;
  /// Legacy untyped-FIFO propagation (SOLVER_NAIVE_PROPAGATION): every
  /// domain change wakes every watcher, linear sums are recomputed from
  /// scratch, entailed propagators keep running. The fixpoints — and hence
  /// the search tree and every solution trace — are identical to the
  /// event-typed engine; only the `solve.propagations`-family effort
  /// metrics differ. Kept as the reference mode for the confluence sweep
  /// and the CI propagation-ratio gate.
  bool naive_propagation = false;

  bool operator==(const SolveKnobs&) const = default;
};

/// The system-wide fields the knobs set (read by runtime::System).
struct SystemKnobs {
  /// Carry every engine-derived tuple over the retransmission / FIFO
  /// reliable transport (NET_RELIABLE).
  bool net_reliable = false;
  /// Deterministic observability: metrics registry, per-round `metrics`
  /// trace snapshots and solve provenance (OBS_METRICS).
  bool obs_metrics = false;
};

/// One row of the knob table. The target field's type fixes the value
/// kind: a double takes a positive number of milliseconds, a
/// solver::Backend a solver::ParseBackend spelling, and an integer or bool
/// field an integer in [lo, hi].
struct KnobSpec {
  using Field =
      std::variant<double SolveKnobs::*, solver::Backend SolveKnobs::*,
                   uint64_t SolveKnobs::*, bool SolveKnobs::*,
                   bool SystemKnobs::*>;

  const char* name;
  Field field;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Every reserved knob, in documentation order.
std::span<const KnobSpec> Knobs();

/// The row for `name`, or nullptr when `name` is not a reserved knob.
const KnobSpec* FindKnob(std::string_view name);

/// The values `spec` accepts, spelled as the docs table spells them
/// ("0 or 1", "integer 0..100", "positive ms", ...).
std::string KnobRange(const KnobSpec& spec);

/// Validate every entry of `knobs` against its row and assign it to the
/// row's target field in `solve` or `system`; a null target only
/// validates. Fails on the first name that is not a reserved knob or value
/// outside its row's range, naming the knob.
Status SetKnobs(const std::map<std::string, Value>& knobs, SolveKnobs* solve,
                SystemKnobs* system);

}  // namespace cologne::colog

#endif  // COLOGNE_COLOG_KNOBS_H_
