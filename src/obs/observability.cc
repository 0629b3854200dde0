#include "obs/observability.h"

#include <cassert>
#include <sstream>
#include <utility>

namespace catapult::obs {

ObservabilityPlane::ObservabilityPlane(int shard_count, const Config& config)
    : config_(config), hub_(config.hub) {
    assert(shard_count >= 1);
    shards_.reserve(static_cast<std::size_t>(shard_count));
    for (int i = 0; i < shard_count; ++i) {
        shards_.push_back(std::make_unique<ShardObs>(
            i, config_.trace_capacity, config_.enabled && config_.tracing));
    }
}

void ObservabilityPlane::AddCollector(std::function<void(MetricRegistry&)> fn) {
    collectors_.push_back(std::move(fn));
}

void ObservabilityPlane::BuildMerged(MetricRegistry* out) const {
    for (const auto& shard : shards_) {
        out->MergeFrom(shard->registry);
    }
    for (const auto& collector : collectors_) {
        collector(*out);
    }
}

void ObservabilityPlane::AdvanceTo(Time frontier) {
    hub_.AdvanceTo(frontier, [this, frontier] {
        // Hub snapshots keep the deterministic view, so they reproduce
        // run to run.
        MetricRegistry merged;
        BuildMerged(&merged);
        std::ostringstream out;
        out << "{\"sim_time_ps\":" << frontier
            << ",\"metrics\":" << merged.ToJson(/*include_volatile=*/false)
            << "}";
        return out.str();
    });
}

void ObservabilityPlane::AttachSimulator(sim::Simulator* sim) {
    if (!config_.enabled || config_.hub.cadence <= 0) return;
    ScheduleTick(sim);
}

void ObservabilityPlane::ScheduleTick(sim::Simulator* sim) {
    // Daemon, so an idle hub never keeps Run() alive. kTimeout priority
    // orders the snapshot after same-instant deliveries, matching the
    // barrier hook's after-the-round semantics.
    sim->ScheduleDaemonAt(
        hub_.next_boundary(),
        [this, sim] {
            AdvanceTo(sim->Now());
            ScheduleTick(sim);
        },
        sim::EventPriority::kTimeout);
}

std::string ObservabilityPlane::SnapshotJson(Time now,
                                             bool include_volatile) const {
    std::ostringstream out;
    out << "{\"sim_time_ps\":" << now
        << ",\"metrics\":" << MetricsJson(include_volatile) << "}";
    return out.str();
}

std::string ObservabilityPlane::MetricsJson(bool include_volatile) const {
    MetricRegistry merged;
    BuildMerged(&merged);
    return merged.ToJson(include_volatile);
}

std::string ObservabilityPlane::PrometheusText() const {
    MetricRegistry merged;
    BuildMerged(&merged);
    return merged.ToPrometheus();
}

std::string ObservabilityPlane::TraceJson() const {
    std::vector<const TraceRecorder*> recorders;
    recorders.reserve(shards_.size());
    for (const auto& shard : shards_) {
        recorders.push_back(&shard->tracer);
    }
    return StitchChromeTrace(recorders);
}

}  // namespace catapult::obs
