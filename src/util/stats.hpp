// stats.hpp — value distributions and fits for experiments.
//
// Every bench in bench/ reports through these so the output format is uniform
// and paper-vs-measured comparisons (EXPERIMENTS.md) are mechanical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace xunet::util {

/// Accumulates samples of a scalar quantity and answers summary questions.
class Summary {
 public:
  void add(double v) { samples_.push_back(v); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  /// Population standard deviation (0 for <2 samples).
  [[nodiscard]] double stddev() const;
  /// Linear-interpolated percentile; p in [0,100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  std::vector<double> samples_;
};

/// Fixed-memory quantile estimator: deterministic log-bucketed counts.
///
/// Summary keeps every sample, which is unbounded at the roadmap's 10⁶-call
/// scale; the sketch keeps 64×kSubBuckets uint64 counts allocated once at
/// construction — add() touches exactly one bucket and never allocates.
/// Buckets are (binary exponent via std::frexp, linear sub-bucket of the
/// mantissa), so bucketing is bit-exact across platforms and percentile
/// answers are deterministic.  Relative error is bounded by the sub-bucket
/// width (~3% at 16 sub-buckets); count/sum/min/max stay exact.
///
/// Only finite, non-negative samples are expected (latencies, sizes);
/// negatives are clamped into the zero bucket.
class QuantileSketch {
 public:
  QuantileSketch();

  void add(double v) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Bucket-midpoint percentile, clamped to [min,max]; p in [0,100].
  [[nodiscard]] double percentile(double p) const noexcept;
  [[nodiscard]] double median() const noexcept { return percentile(50.0); }

 private:
  // Exponents from frexp are clamped to [kMinExp, kMaxExp]; each exponent
  // splits into kSubBuckets equal mantissa slices ([0.5,1) → kSubBuckets).
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 31;
  static constexpr int kSubBuckets = 16;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  [[nodiscard]] static std::size_t bucket_of(double v) noexcept;
  [[nodiscard]] static double bucket_midpoint(std::size_t b) noexcept;

  std::vector<std::uint64_t> counts_;  ///< sized kBuckets at construction
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fits y = a + b*x by least squares; used by the Table 1 bench to recover
/// the per-mbuf instruction slope from measured counts.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Maximum absolute residual of the fit over the inputs.
  double max_residual = 0.0;
};
[[nodiscard]] LinearFit fit_linear(const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace xunet::util
