// ObservabilityPlane: the federation-wide umbrella over the three
// pillars — per-shard metric registries, per-shard trace recorders, and
// the cadence-driven MetricsHub.
//
// Ownership and wiring (FederationTestbed::Config.observability flips
// it all on):
//
//   shard 0 (coordinator)   ShardObs ── dispatcher / scatter / sessions
//   shard 1..N (pods)       ShardObs ── RankingService / StageRole /
//                                       HealthMonitor (FDR postmortems)
//
// Each ShardObs is written only by events on its shard. AdvanceTo —
// called from the SimulatorGroup barrier hook (sharded) or a
// self-scheduled daemon event (single simulator) — merges shard
// registries in shard-id order, runs the registered pull-collectors
// (which mirror
// pre-existing layer counters such as FederatedDispatcher::Counters
// into the registry), and lets the hub snapshot. Exports:
//
//   MetricsJson(false)  deterministic view (volatile metrics dropped) —
//                       byte-identical run to run, hashed by the pinned
//                       transcripts
//   MetricsJson(true)   full view incl. wall-clock metrics
//   PrometheusText()    text exposition of the full view
//   TraceJson()         stitched Chrome trace-event timeline

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metric_registry.h"
#include "obs/metrics_hub.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace catapult::obs {

/** One shard's single-writer observability surface. */
struct ShardObs {
    ShardObs(int shard, std::size_t trace_capacity, bool tracing)
        : tracer(shard, trace_capacity, tracing) {}

    bool tracing() const { return tracer.enabled(); }

    MetricRegistry registry;
    TraceRecorder tracer;
};

class ObservabilityPlane {
  public:
    struct Config {
        bool enabled = false;
        /** Record spans/instants (metrics stay on regardless). */
        bool tracing = true;
        /** Per-shard trace ring capacity (records). */
        std::size_t trace_capacity = 1u << 16;
        MetricsHub::Config hub;
    };

    ObservabilityPlane(int shard_count, const Config& config);

    const Config& config() const { return config_; }
    int shard_count() const { return static_cast<int>(shards_.size()); }
    ShardObs* shard(int i) { return shards_[static_cast<std::size_t>(i)].get(); }

    /**
     * Register a pull-collector, run on the driving thread at every
     * merge. Collectors mirror existing layer counters into the
     * registry with absolute writes (Counter::Set / Gauge::Set), so
     * re-running one is idempotent.
     */
    void AddCollector(std::function<void(MetricRegistry&)> fn);

    /** Merge shard registries (shard-id order) + run collectors. */
    void BuildMerged(MetricRegistry* out) const;

    /**
     * Advance the hub to `frontier` (a barrier frontier or Now()).
     * Must run on the driving thread with no round in flight.
     */
    void AdvanceTo(Time frontier);

    /**
     * Single-simulator mode: self-drive the hub with a repeating daemon
     * event at the snapshot cadence. The plane must outlive `sim`'s
     * runs.
     */
    void AttachSimulator(sim::Simulator* sim);

    MetricsHub& hub() { return hub_; }
    const MetricsHub& hub() const { return hub_; }

    /** {"sim_time_ps":N,"metrics":{...}} for one-line embedding. */
    std::string SnapshotJson(Time now, bool include_volatile) const;
    std::string MetricsJson(bool include_volatile) const;
    std::string PrometheusText() const;
    std::string TraceJson() const;

  private:
    void ScheduleTick(sim::Simulator* sim);

    Config config_;
    std::vector<std::unique_ptr<ShardObs>> shards_;
    std::vector<std::function<void(MetricRegistry&)>> collectors_;
    MetricsHub hub_;
};

}  // namespace catapult::obs
