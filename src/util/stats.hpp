// Lightweight statistics helpers used by telemetry and the benchmark
// harnesses: Welford running moments and percentile extraction.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace mlpo {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(f64 x);
  void merge(const RunningStats& other);
  void reset();

  u64 count() const { return n_; }
  f64 mean() const { return n_ ? mean_ : 0.0; }
  f64 variance() const;  ///< Sample variance (n-1 denominator); 0 if n < 2.
  f64 stddev() const;
  f64 min() const { return n_ ? min_ : 0.0; }
  f64 max() const { return n_ ? max_ : 0.0; }
  f64 sum() const { return n_ ? mean_ * static_cast<f64>(n_) : 0.0; }

 private:
  u64 n_ = 0;
  f64 mean_ = 0.0;
  f64 m2_ = 0.0;
  f64 min_ = 0.0;
  f64 max_ = 0.0;
};

/// Percentile with linear interpolation between order statistics.
/// `q` in [0,1]. Copies and sorts; intended for post-run analysis.
f64 percentile(std::vector<f64> samples, f64 q);
}  // namespace mlpo
