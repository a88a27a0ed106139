// In-memory span recorder for bench_e2e's traced runs.
//
// The benchmark wraps every call it makes into a layer (compile, fact calls,
// Instance::Solve, System::RunUntil) in a span. Spans stay in memory while
// the benchmark runs and are written once, at exit, as Chrome trace-event
// JSON, which opens in Perfetto or chrome://tracing. Each span carries its
// layer, the span that was open when it began (its parent), the round it
// belongs to, and the Datalog delta counter sampled at both boundaries, so
// self times and self counts can be attributed per layer.
#ifndef COLOGNE_BENCH_E2E_SPAN_TRACE_H_
#define COLOGNE_BENCH_E2E_SPAN_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cologne::bench_e2e {

/// The repository's modules, as the benchmark attributes time to them.
enum class Layer : uint8_t { kColog, kDatalog, kRuntime, kSolver, kNet };
inline constexpr size_t kNumLayers = 5;

inline const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {"colog", "datalog",
                                                 "runtime", "solver", "net"};
  return kNames[static_cast<size_t>(layer)];
}

struct Span {
  const char* name = "";
  Layer layer = Layer::kRuntime;
  int parent = -1;     ///< Index of the enclosing span; -1 at top level.
  uint64_t round = 0;  ///< Round id shared by every span of one round.
  int episode = 0;
  double t0_us = 0, t1_us = 0;
  uint64_t deltas0 = 0, deltas1 = 0;  ///< Datalog deltas at begin / end.
  std::string args;  ///< Extra JSON members ("\"nodes\":12"), may be empty.
};

/// Per-layer self time and self Datalog deltas over a range of spans.
struct LayerTotals {
  std::array<double, kNumLayers> self_ms{};
  std::array<uint64_t, kNumLayers> self_deltas{};
  double top_level_ms = 0;  ///< Summed duration of the top-level spans.
};

class SpanTrace {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanTrace(Clock::time_point origin) : origin_(origin) {}

  void set_round(uint64_t round) { round_ = round; }
  void set_episode(int episode) { episode_ = episode; }
  size_t size() const { return spans_.size(); }

  /// Open a span nested in the innermost open one. `deltas` is the Datalog
  /// delta counter of whatever the span can change.
  int Begin(const char* name, Layer layer, uint64_t deltas) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : open_.back();
    s.round = round_;
    s.episode = episode_;
    s.deltas0 = deltas;
    s.t0_us = NowUs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  /// Close span `id`, which must be the innermost open span.
  void End(int id, uint64_t deltas, std::string args = {}) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.t1_us = NowUs();
    s.deltas1 = deltas;
    s.args = std::move(args);
    open_.pop_back();
  }

  /// Record a child of the open span `parent` whose duration was measured
  /// by the layer itself (the solver's own search clock). Where inside the
  /// parent it ran is unknown, so it is drawn from the parent's start.
  void AddTimedChild(int parent, const char* name, Layer layer,
                     double dur_ms) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.round = round_;
    s.episode = episode_;
    s.t0_us = spans_[static_cast<size_t>(parent)].t0_us;
    s.t1_us = s.t0_us + dur_ms * 1000.0;
    spans_.push_back(std::move(s));
  }

  /// Self time (duration minus the children's durations) and self deltas
  /// per layer over spans [first, size()). The range must start with no
  /// span open, so every parent of a span in it lies in it too.
  LayerTotals Summarize(size_t first) const {
    const size_t n = spans_.size() - first;
    std::vector<double> child_us(n, 0);
    std::vector<uint64_t> child_deltas(n, 0);
    for (size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0) continue;
      const size_t p = static_cast<size_t>(s.parent) - first;
      child_us[p] += s.t1_us - s.t0_us;
      child_deltas[p] += s.deltas1 - s.deltas0;
    }
    LayerTotals out;
    for (size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const size_t l = static_cast<size_t>(s.layer);
      const double dur_us = s.t1_us - s.t0_us;
      out.self_ms[l] += (dur_us - child_us[i - first]) / 1000.0;
      out.self_deltas[l] += (s.deltas1 - s.deltas0) - child_deltas[i - first];
      if (s.parent < 0) out.top_level_ms += dur_us / 1000.0;
    }
    return out;
  }

  /// Write every span as a Chrome trace-event "complete" event. One
  /// process per episode, so Perfetto shows each episode as its own track.
  bool WriteChromeJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"round\":%llu,"
                   "\"deltas\":%llu%s%s}}",
                   i == 0 ? "" : ",", s.name, LayerName(s.layer), s.t0_us,
                   s.t1_us - s.t0_us, s.episode, i, s.parent,
                   static_cast<unsigned long long>(s.round),
                   static_cast<unsigned long long>(s.deltas1 - s.deltas0),
                   s.args.empty() ? "" : ",", s.args.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  uint64_t round_ = 0;
  int episode_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace cologne::bench_e2e

#endif  // COLOGNE_BENCH_E2E_SPAN_TRACE_H_
