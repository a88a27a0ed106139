#include "common/stats.h"

#include "common/json.h"
#include "common/strings.h"

namespace cologne {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Stdev(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double m = Mean(xs);
  double v = 0;
  for (double x : xs) v += (x - m) * (x - m);
  return std::sqrt(v / static_cast<double>(xs.size()));
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

namespace {

// Canonical float rendering for SolveRecord rows: round to a fixed number
// of decimals (the old printf precisions), then emit the shortest
// round-trip string like every other JSON emitter in the tree.
double RoundTo(double v, double scale) { return std::round(v * scale) / scale; }

}  // namespace

std::string SolveRecord::ToJsonLine() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench);
  w.Key("backend").String(backend);
  w.Key("seed").UInt(seed);
  w.Key("nodes").UInt(nodes);
  w.Key("iterations").UInt(iterations);
  w.Key("restarts").UInt(restarts);
  w.Key("wall_ms").Double(RoundTo(wall_ms, 100));
  if (has_objective) w.Key("objective").Double(RoundTo(objective, 10000));
  if (loss_pct > 0 || crashes > 0 || drops > 0 || failed_rounds > 0 ||
      recovered_rounds > 0) {
    w.Key("loss_pct").Double(RoundTo(loss_pct, 10));
    w.Key("crashes").UInt(crashes);
    w.Key("drops").UInt(drops);
    w.Key("failed_rounds").UInt(failed_rounds);
    w.Key("recovered_rounds").UInt(recovered_rounds);
  }
  w.EndObject();
  return w.Take();
}

}  // namespace cologne
