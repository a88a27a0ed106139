// Streaming statistics accumulators used across the evaluation harnesses.
#ifndef COLOGNE_COMMON_STATS_H_
#define COLOGNE_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cologne {

/// \brief Online mean / variance / extrema accumulator (Welford's algorithm).
class RunningStats {
 public:
  /// Incorporate one observation.
  void Add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
    sum_ += x;
  }

  size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  /// Population standard deviation.
  double stdev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Fold another accumulator into this one (Chan's parallel merge), as if
  /// every observation of `o` had been Add()ed here. Merging with an empty
  /// accumulator on either side is exact.
  void Merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    size_t n = n_ + o.n_;
    double d = o.mean_ - mean_;
    mean_ += d * static_cast<double>(o.n_) / static_cast<double>(n);
    m2_ += o.m2_ + d * d * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / static_cast<double>(n);
    n_ = n;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  void Reset() { *this = RunningStats(); }

 private:
  size_t n_ = 0;
  double mean_ = 0, m2_ = 0, min_ = 0, max_ = 0, sum_ = 0;
};

/// Population standard deviation of a vector (one-shot helper).
double Stdev(const std::vector<double>& xs);

/// Arithmetic mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// `p`-th percentile (0..100) by nearest-rank on a copy; 0 for empty input.
double Percentile(std::vector<double> xs, double p);

/// \brief One observed solver execution, serialized as a JSON object line so
/// the benches emit per-backend rows comparable across harnesses
/// (bench_overhead, the Figure 2/3 replay, the solver microbenches).
struct SolveRecord {
  std::string bench;    ///< Harness / scenario label.
  std::string backend;  ///< solver::BackendName of the strategy used.
  uint64_t seed = 0;
  uint64_t nodes = 0;
  uint64_t iterations = 0;  ///< Backend improvement iterations.
  uint64_t restarts = 0;
  double wall_ms = 0;
  double objective = 0;
  bool has_objective = false;
  // --- Churn columns (fault-injected runs; zero on the happy path) ----------
  double loss_pct = 0;       ///< Injected message-loss percentage.
  uint64_t crashes = 0;      ///< Node crashes during the run.
  uint64_t drops = 0;        ///< Messages lost in flight.
  uint64_t failed_rounds = 0;     ///< Negotiations that failed and requeued.
  uint64_t recovered_rounds = 0;  ///< Failed negotiations later completed.

  /// Render as a single JSON object, e.g.
  /// {"bench":"acloud","backend":"lns","seed":7,...,"objective":3.20}.
  std::string ToJsonLine() const;
};

}  // namespace cologne

#endif  // COLOGNE_COMMON_STATS_H_
