#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/trace.h"

namespace newslink {
namespace metrics {

size_t ThisThreadShard() {
  // One counter assigns shard slots round-robin as threads first touch an
  // instrument; thread_local caches the assignment for the thread's life.
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1, std::memory_order_relaxed) %
                              kShards;
  return shard;
}

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.min <= 0.0) options_.min = 1e-9;
  if (options_.growth <= 1.0) options_.growth = 1.0001;
  if (options_.num_buckets == 0) options_.num_buckets = 1;
  inv_log_growth_ = 1.0 / std::log(options_.growth);
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<uint64_t>[]>(
        options_.num_buckets + 1);
    for (size_t i = 0; i <= options_.num_buckets; ++i) {
      s.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

size_t Histogram::BucketFor(double value) const {
  if (!(value > options_.min)) return 0;  // also catches NaN
  // Finite bucket i covers (min * growth^(i-1), min * growth^i].
  const double exact = std::log(value / options_.min) * inv_log_growth_;
  size_t i = static_cast<size_t>(std::ceil(exact - 1e-9));
  if (i == 0) i = 1;
  return std::min(i, options_.num_buckets);  // == num_buckets => overflow
}

void Histogram::Observe(double value) {
  Shard& shard = shards_[ThisThreadShard()];
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  double cur = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(cur, cur + value,
                                          std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i <= options_.num_buckets; ++i) {
      total += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(options_.num_buckets + 1, 0);
  for (const Shard& s : shards_) {
    for (size_t i = 0; i <= options_.num_buckets; ++i) {
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::BucketUpperBound(size_t i) const {
  return options_.min * std::pow(options_.growth, static_cast<double>(i));
}

double Histogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double rank = p * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == options_.num_buckets) {
      // Overflow: no upper bound to interpolate toward.
      return BucketUpperBound(options_.num_buckets - 1);
    }
    const double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
    const double upper = BucketUpperBound(i);
    // Linear interpolation within the bucket (uniform assumption).
    const double within =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
  }
  return BucketUpperBound(options_.num_buckets - 1);
}

namespace {

/// Formats a double the way Prometheus clients do: shortest-ish decimal.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

Counter* Registry::GetCounter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->kind == Kind::kCounter) return e->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = Kind::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->kind == Kind::kGauge) return e->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = Kind::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  HistogramOptions options,
                                  std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->kind == Kind::kHistogram) {
      return e->histogram.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = Kind::kHistogram;
  entry->histogram = std::make_unique<Histogram>(options);
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

const Registry::Entry* Registry::Find(std::string_view name, Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->kind == kind) return e.get();
  }
  return nullptr;
}

const Counter* Registry::FindCounter(std::string_view name) const {
  const Entry* e = Find(name, Kind::kCounter);
  return e == nullptr ? nullptr : e->counter.get();
}

const Gauge* Registry::FindGauge(std::string_view name) const {
  const Entry* e = Find(name, Kind::kGauge);
  return e == nullptr ? nullptr : e->gauge.get();
}

const Histogram* Registry::FindHistogram(std::string_view name) const {
  const Entry* e = Find(name, Kind::kHistogram);
  return e == nullptr ? nullptr : e->histogram.get();
}

uint64_t Registry::CounterValue(std::string_view name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

double Registry::GaugeValue(std::string_view name) const {
  const Gauge* g = FindGauge(name);
  return g == nullptr ? 0.0 : g->Value();
}

std::string Registry::RenderPrometheus() const {
  // Snapshot entry pointers under the lock; instrument reads are atomic.
  std::vector<const Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }

  std::string out;
  for (const Entry* e : entries) {
    if (!e->help.empty()) {
      out += "# HELP " + e->name + " " + e->help + "\n";
    }
    switch (e->kind) {
      case Kind::kCounter:
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " " + std::to_string(e->counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + FormatDouble(e->gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        out += "# TYPE " + e->name + " histogram\n";
        const std::vector<uint64_t> counts = h.BucketCounts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.num_buckets(); ++i) {
          cumulative += counts[i];
          if (counts[i] == 0) continue;  // sparse exposition: skip empties
          out += e->name + "_bucket{le=\"" +
                 FormatDouble(h.BucketUpperBound(i)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += counts[h.num_buckets()];
        out += e->name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
        out += e->name + "_sum " + FormatDouble(h.Sum()) + "\n";
        out += e->name + "_count " + std::to_string(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::vector<const Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }

  std::string counters, gauges, histograms;
  for (const Entry* e : entries) {
    switch (e->kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += JsonEscape(e->name) + ":" + std::to_string(e->counter->Value());
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += JsonEscape(e->name) + ":" + FormatDouble(e->gauge->Value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        if (!histograms.empty()) histograms += ",";
        histograms += JsonEscape(e->name) + ":{\"count\":" + std::to_string(h.Count()) +
                      ",\"sum\":" + FormatDouble(h.Sum()) +
                      ",\"mean\":" + FormatDouble(h.Mean()) +
                      ",\"p50\":" + FormatDouble(h.Percentile(0.50)) +
                      ",\"p90\":" + FormatDouble(h.Percentile(0.90)) +
                      ",\"p99\":" + FormatDouble(h.Percentile(0.99)) +
                      ",\"buckets\":[";
        const std::vector<uint64_t> counts = h.BucketCounts();
        bool first = true;
        for (size_t i = 0; i < counts.size(); ++i) {
          if (counts[i] == 0) continue;
          if (!first) histograms += ",";
          first = false;
          const bool overflow = i == h.num_buckets();
          histograms += "[" +
                        (overflow ? std::string("\"+Inf\"")
                                  : FormatDouble(h.BucketUpperBound(i))) +
                        "," + std::to_string(counts[i]) + "]";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace metrics
}  // namespace newslink
