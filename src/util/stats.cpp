#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mlpo {

void RunningStats::add(f64 x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const f64 delta = x - mean_;
  mean_ += delta / static_cast<f64>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const f64 na = static_cast<f64>(n_);
  const f64 nb = static_cast<f64>(other.n_);
  const f64 delta = other.mean_ - mean_;
  const f64 total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

f64 RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<f64>(n_ - 1) : 0.0;
}

f64 RunningStats::stddev() const { return std::sqrt(variance()); }

f64 percentile(std::vector<f64> samples, f64 q) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q out of range");
  std::sort(samples.begin(), samples.end());
  const f64 idx = q * static_cast<f64>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const f64 frac = idx - static_cast<f64>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace mlpo
