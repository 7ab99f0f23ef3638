// metrics.hpp — the unified metrics registry.
//
// One registry per Simulation holds monotonic counters, set-to-value gauges
// (the sighost's five list lengths), and histograms built on util::Summary
// (latency distributions).  Names are hierarchical dotted paths such as
// "sighost.mh.rt.setup.latency_us" or "orc.berkeley.rt.tx.frames"; the
// convention is <component>.<instance>.<what>[.<unit>].
//
// counter()/gauge()/histogram() return stable references (the maps are
// node-based), so hot paths resolve a metric once and increment through the
// cached handle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace xunet::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { v_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Instantaneous level (list length, queue depth, reserved bandwidth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_ = v; }
  void add(std::int64_t d) noexcept { v_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Sample distribution; answers count/mean/min/max/percentile questions.
///
/// Two storage kinds behind one observe() interface:
///  * exact  — util::Summary keeps every sample (unbounded memory; precise
///             percentiles; what benches that post-process samples need).
///  * sketch — util::QuantileSketch keeps fixed log-bucketed counts (zero
///             per-sample allocation; ~3% percentile error; what always-on
///             control-plane histograms need at 10⁶-call scale).
/// The kind is fixed at construction; the registry defaults to exact.
class Histogram {
 public:
  enum class Kind : std::uint8_t { exact, sketch };

  Histogram() = default;
  explicit Histogram(Kind k)
      : kind_(k), sk_(k == Kind::sketch
                          ? std::make_unique<util::QuantileSketch>()
                          : nullptr) {}

  void observe(double v) {
    if (kind_ == Kind::exact) {
      s_.add(v);
    } else {
      sk_->add(v);
    }
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t count() const noexcept {
    return kind_ == Kind::exact ? s_.count() : sk_->count();
  }
  [[nodiscard]] double mean() const noexcept {
    return kind_ == Kind::exact ? s_.mean() : sk_->mean();
  }
  /// min/max/percentile return 0 when no sample was observed.
  [[nodiscard]] double min() const {
    if (count() == 0) return 0.0;
    return kind_ == Kind::exact ? s_.min() : sk_->min();
  }
  [[nodiscard]] double max() const {
    if (count() == 0) return 0.0;
    return kind_ == Kind::exact ? s_.max() : sk_->max();
  }
  [[nodiscard]] double percentile(double p) const {
    if (count() == 0) return 0.0;
    return kind_ == Kind::exact ? s_.percentile(p) : sk_->percentile(p);
  }

  /// The full sample set — exact-kind histograms only (benches use this for
  /// stddev and sample post-processing); nullptr for sketch.
  [[nodiscard]] const util::Summary* exact_summary() const noexcept {
    return kind_ == Kind::exact ? &s_ : nullptr;
  }
  /// Convenience for exact-kind callers that know their histogram's kind.
  [[nodiscard]] const util::Summary& summary() const noexcept { return s_; }

 private:
  Kind kind_ = Kind::exact;
  util::Summary s_;
  std::unique_ptr<util::QuantileSketch> sk_;  ///< sketch kind only
};

/// The registry.  Lookup creates on first use; iteration is in name order,
/// so any rendering of the registry is deterministic.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Histogram& histogram(const std::string& name) { return histograms_[name]; }
  /// Create-or-find with an explicit storage kind.  The kind is fixed by
  /// whichever call creates the histogram; a later lookup with a different
  /// kind returns the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name, Histogram::Kind kind) {
    return histograms_.try_emplace(name, kind).first->second;
  }

  /// Read-only lookups for report code: 0 / empty when never touched.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name) const;
  /// nullptr when never touched — or when the histogram is sketch-backed
  /// (no sample set exists); use histogram_stats() for kind-agnostic reads.
  [[nodiscard]] const util::Summary* histogram_summary(const std::string& name) const;
  [[nodiscard]] const Histogram* histogram_stats(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    sync(Sync::read);
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    sync(Sync::read);
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept { return histograms_; }

  /// "name value" lines sorted by name; histograms render count/mean/p50/p99.
  [[nodiscard]] std::string render_text() const;

  void reset();

  /// Why a lagging source is asked to catch up.
  enum class Sync : std::uint8_t {
    read,     ///< a reader wants counters and gauges as of now
    tracing,  ///< tracing is switching on: record every event from here
  };
  /// Register a source whose counters and gauges lag behind simulated time
  /// (the cell fast path counts a train's cells lazily).  Every read
  /// accessor runs `fn(Sync::read)` first.  `owner` keys removal.
  void add_sync(const void* owner, std::function<void(Sync)> fn);
  void remove_sync(const void* owner);
  void sync(Sync why) const;

 private:
  std::vector<std::pair<const void*, std::function<void(Sync)>>> syncs_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace xunet::obs
