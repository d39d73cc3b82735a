// Process-wide observability instruments (DESIGN.md Sec. 8): named
// counters, gauges, and log-bucketed histograms collected in a Registry
// and exported as Prometheus text exposition or a JSON dump.
//
// Hot-path discipline: Inc/Observe are wait-free — a relaxed atomic
// fetch_add on a per-thread shard (cache-line padded, so concurrent query
// threads never bounce a line). Registration (GetCounter / GetGauge /
// GetHistogram) takes a mutex and is meant for construction time; callers
// on the query path cache the returned instrument pointers, which are
// stable for the registry's lifetime.

#ifndef NEWSLINK_COMMON_METRICS_H_
#define NEWSLINK_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace newslink {
namespace metrics {

/// Number of independent atomic shards per hot instrument. 16 covers the
/// container-scale thread counts this repo benches; the cost is 1KiB per
/// counter.
inline constexpr size_t kShards = 16;

/// Stable per-thread shard index in [0, kShards).
size_t ThisThreadShard();

/// \brief Monotonically increasing counter (wait-free, sharded).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// \brief A value that can go up and down (epoch number, cache entries).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Geometric ("log") bucket layout of a Histogram: finite bucket i covers
/// (min * growth^(i-1), min * growth^i]; one overflow bucket catches the
/// rest. The defaults resolve latencies from 1us to ~10s at 25% relative
/// bucket width — callers that feed percentile gates (the benches) pass a
/// finer growth.
struct HistogramOptions {
  double min = 1e-6;
  double growth = 1.25;
  size_t num_buckets = 72;
};

/// \brief Log-bucketed histogram with percentile estimation.
///
/// Observe is wait-free (one relaxed fetch_add on a sharded bucket plus a
/// sharded sum accumulation). Readers sum the shards for a consistent-
/// enough snapshot; percentiles interpolate linearly inside the resolved
/// bucket, so their relative error is bounded by `growth - 1`.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }

  /// Estimated p-quantile (p in [0, 1]) of everything observed so far.
  /// 0 when empty; the overflow bucket reports its lower bound.
  double Percentile(double p) const;

  /// Bucket counts summed across shards; size num_buckets() + 1 (overflow
  /// last).
  std::vector<uint64_t> BucketCounts() const;

  size_t num_buckets() const { return options_.num_buckets; }

  /// Inclusive upper bound of finite bucket i (i < num_buckets()).
  double BucketUpperBound(size_t i) const;

  const HistogramOptions& options() const { return options_; }

 private:
  size_t BucketFor(double value) const;

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;  // num_buckets + 1
    std::atomic<double> sum{0.0};
  };

  HistogramOptions options_;
  double inv_log_growth_ = 0.0;
  std::array<Shard, kShards> shards_;
};

/// \brief A named collection of instruments with text/JSON exposition.
///
/// Get* registers on first use and returns the existing instrument on
/// every later call with the same name; returned pointers stay valid for
/// the registry's lifetime. Instruments are exported in registration
/// order. One engine owns one registry (so per-engine tests see exact
/// counts).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, HistogramOptions options = {},
                          std::string_view help = "");

  /// Read-side lookups; null / zero when the instrument was never created.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;

  /// Prometheus text exposition format (one # TYPE line per instrument;
  /// histograms expand to _bucket{le=...}/_sum/_count series).
  std::string RenderPrometheus() const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p90, p99, buckets}}}.
  std::string RenderJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  const Entry* Find(std::string_view name, Kind kind) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

}  // namespace metrics
}  // namespace newslink

#endif  // NEWSLINK_COMMON_METRICS_H_
