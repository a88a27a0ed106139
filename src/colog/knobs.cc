#include "colog/knobs.h"

#include <limits>
#include <type_traits>

namespace cologne::colog {

namespace {

constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();

const KnobSpec kKnobs[] = {
    {"SOLVER_MAX_TIME", &SolveKnobs::time_limit_ms},
    {"SOLVER_BACKEND", &SolveKnobs::backend},
    {"SOLVER_SEED", &SolveKnobs::seed, 0, kNoMax},
    {"NET_RELIABLE", &SystemKnobs::net_reliable, 0, 1},
    {"OBS_METRICS", &SystemKnobs::obs_metrics, 0, 1},
    {"SOLVER_NAIVE_PROPAGATION", &SolveKnobs::naive_propagation, 0, 1},
};

// Splits a pointer-to-member type into its owner struct and field type.
template <typename M>
struct MemberOf;
template <typename T, typename C>
struct MemberOf<T C::*> {
  using Owner = C;
  using Type = T;
};

}  // namespace

std::span<const KnobSpec> Knobs() { return kKnobs; }

const KnobSpec* FindKnob(std::string_view name) {
  for (const KnobSpec& spec : kKnobs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string KnobRange(const KnobSpec& spec) {
  return std::visit(
      [&spec](auto field) -> std::string {
        using T = typename MemberOf<decltype(field)>::Type;
        if constexpr (std::is_same_v<T, double>) {
          return "positive ms";
        } else if constexpr (std::is_same_v<T, solver::Backend>) {
          // Walk the enum until BackendName stops recognising it.
          std::string out;
          for (uint8_t b = 0;; ++b) {
            std::string name = solver::BackendName(solver::Backend{b});
            if (name == "?") return out;
            out += (out.empty() ? "\"" : ", \"") + name + "\"";
          }
        } else if (spec.lo == 0 && spec.hi == 1) {
          return "0 or 1";
        } else if (spec.hi == kNoMax) {
          return "integer ≥ " + std::to_string(spec.lo);
        } else {
          return "integer " + std::to_string(spec.lo) + ".." +
                 std::to_string(spec.hi);
        }
      },
      spec.field);
}

Status SetKnobs(const std::map<std::string, Value>& knobs, SolveKnobs* solve,
                SystemKnobs* system) {
  for (const auto& [name, value] : knobs) {
    const KnobSpec* spec = FindKnob(name);
    if (spec == nullptr) return Status::PlanError("unknown knob " + name);
    const bool valid = std::visit(
        [&](auto field) {
          using Member = MemberOf<decltype(field)>;
          using T = typename Member::Type;
          typename Member::Owner* target = nullptr;
          if constexpr (std::is_same_v<typename Member::Owner, SolveKnobs>) {
            target = solve;
          } else {
            target = system;
          }
          T parsed{};
          if constexpr (std::is_same_v<T, double>) {
            if (!value.is_numeric() || value.as_double() <= 0) return false;
            parsed = value.as_double();
          } else if constexpr (std::is_same_v<T, solver::Backend>) {
            if (!value.is_string() ||
                !solver::ParseBackend(value.as_string(), &parsed)) {
              return false;
            }
          } else {
            if (!value.is_int() || value.as_int() < spec->lo ||
                value.as_int() > spec->hi) {
              return false;
            }
            parsed = static_cast<T>(value.as_int());
          }
          if (target != nullptr) target->*field = parsed;
          return true;
        },
        spec->field);
    if (!valid) {
      return Status::PlanError(name + " must be " + KnobRange(*spec) +
                               ", got " + value.ToString());
    }
  }
  return Status::OK();
}

}  // namespace cologne::colog
