// Federation-wide metrics core: named counters, gauges, and
// log2-bucketed histograms behind a registry with deterministic
// (name-sorted) export order.
//
// Concurrency model — none, on purpose. A MetricRegistry is
// single-writer: each simulator shard owns one and only events on that
// shard touch it. The coordinator merges shard registries at epoch
// barriers, after every mailbox drained, and because the round
// schedule is deterministic the merged values are bit-identical run to
// run.
//
// Wall-clock-derived metrics (merge wall time) are registered
// `volatile`: they appear in the full human-facing export but are
// excluded from the deterministic export the pinned transcripts
// compare byte-for-byte.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/stats.h"
#include "common/units.h"

namespace catapult::obs {

/** How a gauge combines across shard registries. */
enum class GaugeMerge : std::uint8_t {
    kSum,  ///< Additive (queue depths, in-flight totals).
    kMax,  ///< High-water marks (mailbox depth, ring occupancy).
};

/** Monotone event count. Merge is addition. */
class Counter {
  public:
    void Inc(std::uint64_t n = 1) { value_ += n; }
    /** Absolute overwrite — for pull-collectors mirroring an existing
     *  layer counter into the registry at a barrier. */
    void Set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Point-in-time level. Merge mode chosen at registration. */
class Gauge {
  public:
    void Set(std::int64_t v) { value_ = v; }
    void Add(std::int64_t d) { value_ += d; }
    void SetMax(std::int64_t v) {
        if (v > value_) value_ = v;
    }
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

/**
 * Log2-bucketed histogram (bucket i counts values in [2^i, 2^(i+1)),
 * sub-1 values land in the underflow bin — common/stats.h semantics).
 * Latencies are observed in simulated microseconds.
 */
class Histogram {
  public:
    void Observe(double x) { h_.Add(x); }
    void ObserveLatency(Time t) { h_.Add(ToMicroseconds(t)); }
    const Log2Histogram& data() const { return h_; }
    Log2Histogram& data() { return h_; }

  private:
    Log2Histogram h_;
};

/**
 * Named metrics, one writer. Lookup returns stable pointers (hot paths
 * resolve a metric once and cache the pointer); iteration/export order
 * is the map's lexicographic name order, so two registries holding the
 * same values serialize identically.
 */
class MetricRegistry {
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    /** Find-or-create. The volatile/merge options are fixed by the
     *  first registration; later lookups ignore them. */
    Counter* counter(const std::string& name, bool volatile_metric = false);
    Gauge* gauge(const std::string& name, GaugeMerge merge = GaugeMerge::kSum,
                 bool volatile_metric = false);
    Histogram* histogram(const std::string& name,
                         bool volatile_metric = false);

    /** Fold another registry in: counters/histograms add, gauges
     *  combine per their registered merge mode. Commutative and
     *  associative, so shard merge order cannot leak into the result
     *  (tests/test_observability.cc pins this). */
    void MergeFrom(const MetricRegistry& other);

    std::size_t size() const { return entries_.size(); }

    /**
     * One-line JSON object: {"counters":{...},"gauges":{...},
     * "histograms":{name:{"total":n,"underflow":u,"buckets":[...]}}}.
     * `include_volatile` false gives the deterministic view the pinned
     * transcripts compare byte-for-byte.
     */
    std::string ToJson(bool include_volatile) const;

    /** Prometheus text exposition (histograms as cumulative le-buckets
     *  on the power-of-two edges). Volatile metrics are included and
     *  marked with a `# volatile` comment. */
    std::string ToPrometheus() const;

  private:
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
    struct Entry {
        Kind kind;
        bool volatile_metric = false;
        GaugeMerge merge = GaugeMerge::kSum;
        Counter counter;
        Gauge gauge;
        Histogram histogram;
    };

    Entry* FindOrCreate(const std::string& name, Kind kind,
                        bool volatile_metric, GaugeMerge merge);

    /** unique_ptr for pointer stability across rehash-free map growth
     *  (std::map nodes are stable, the indirection keeps Entry cheap to
     *  move if the container ever changes). */
    std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace catapult::obs
