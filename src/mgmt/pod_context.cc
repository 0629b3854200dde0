#include "mgmt/pod_context.h"

#include <cassert>
#include <string>

namespace catapult::mgmt {

PodContext::PodContext(sim::Simulator* simulator, Config config)
    : config_(std::move(config)), simulator_(simulator) {
    assert(simulator_ != nullptr);
    assert(config_.pod_id >= 0);

    // Thread the pod id through every layer unless the caller pinned
    // the fabric identity explicitly: global node ids partition into
    // per-pod ranges, the name prefix tags logs/host names, and the
    // telemetry bus and Health Monitor stamp their events/reports.
    if (config_.fabric.pod_id == 0) config_.fabric.pod_id = config_.pod_id;
    if (config_.fabric.node_base == 0 && config_.pod_id > 0) {
        config_.fabric.node_base =
            config_.pod_id * config_.fabric.topology.node_count();
    }
    if (config_.fabric.name_prefix == "pod0" && config_.pod_id > 0) {
        // Built up with += rather than `"pod" + std::to_string(...)`:
        // GCC 12's -Wrestrict false-positives on operator+(const char*,
        // string&&) when it inlines deeply (PR 105329).
        config_.fabric.name_prefix = "pod";
        config_.fabric.name_prefix += std::to_string(config_.pod_id);
    }
    config_.health.pod_id = config_.pod_id;
    // Stride the trace-id space per pod (ServicePool strides per ring
    // below it): federation-unique ids make cross-pod FDR replay
    // unambiguous. An explicit base set by the caller wins.
    if (config_.service.trace_id_base == 0) {
        config_.service.trace_id_base =
            static_cast<std::uint64_t>(config_.pod_id) << 48;
    }

    Rng rng(config_.seed);
    telemetry_ =
        std::make_unique<TelemetryBus>(simulator_, config_.pod_id);
    fabric_ = std::make_unique<fabric::CatapultFabric>(simulator_, rng.Fork(),
                                                       config_.fabric);
    std::string host_prefix = "srv";
    if (config_.pod_id > 0) {
        host_prefix = "p";
        host_prefix += std::to_string(config_.pod_id);
        host_prefix += ".srv";
    }
    for (int i = 0; i < fabric_->node_count(); ++i) {
        hosts_storage_.push_back(std::make_unique<host::HostServer>(
            simulator_, host_prefix + std::to_string(i), &fabric_->shell(i),
            config_.host));
        hosts_.push_back(hosts_storage_.back().get());
        hosts_storage_.back()->driver().AssignThreads(config_.driver_threads);
    }
    mapping_manager_ = std::make_unique<MappingManager>(
        simulator_, fabric_.get(), hosts_);
    health_monitor_ = std::make_unique<HealthMonitor>(
        simulator_, fabric_.get(), hosts_, config_.health);
    failure_injector_ = std::make_unique<FailureInjector>(
        simulator_, fabric_.get(), hosts_);
    scheduler_ = std::make_unique<PodScheduler>(fabric_->topology());
    service::ServicePool::Config pool_config;
    pool_config.ring_count = config_.ring_count;
    pool_config.policy = config_.policy;
    pool_config.max_in_flight_per_ring = config_.max_in_flight_per_ring;
    pool_config.ring = config_.service;
    if (config_.service.archive_traces) {
        // One archive per pod: every ring records into it (ids are
        // pod+ring strided), so a cross-pod replay needs one archive
        // lookup per pod, not one per ring.
        trace_archive_ = std::make_unique<service::TraceArchive>(
            config_.service.trace_archive_capacity);
        pool_config.ring.shared_archive = trace_archive_.get();
    }
    pool_ = std::make_unique<service::ServicePool>(
        simulator_, fabric_.get(), hosts_, mapping_manager_.get(),
        scheduler_.get(), std::move(pool_config));
    forecaster_ = std::make_unique<HealthForecaster>(
        simulator_, &health_feed_,
        HealthForecaster::Config{.pod_id = config_.pod_id});
    if (config_.obs != nullptr) {
        pool_->SetObservability(config_.obs);
        health_monitor_->SetObservability(config_.obs);
    }

    if (!config_.autonomic) return;
    // The autonomic loop (§3.3, §3.5): components publish faults, the
    // watchdog turns missed heartbeats and event bursts into
    // investigations, and confirmed reports heal the pod — the pool
    // recovers rings whose active stages are hit; anything else with a
    // mapped role (idle spares, stranded reboots) is reconfigured in
    // place by the Mapping Manager.
    fabric_->AttachTelemetry(telemetry_.get());
    health_monitor_->AttachTelemetry(telemetry_.get());
    healing_ = health_monitor_->failures().Subscribe(
        [this](const MachineReport& report) {
            if (pool_->HandleMachineReport(report)) return;
            switch (report.fault) {
              case FaultType::kUnresponsiveRecovered:
              case FaultType::kStrandedRxHalt:
              case FaultType::kApplicationError:
                // In-place reconfiguration clears corrupted role state
                // and re-releases RX Halt (§3.5) — only for nodes that
                // actually hold a mapped role; an idle node has no
                // application image to restore.
                if (!mapping_manager_->RoleAtNode(report.node).empty()) {
                    mapping_manager_->ReconfigureInPlace(report.node,
                                                         [](bool) {});
                }
                break;
              default:
                // Fatal (manual service), cable-class and thermal
                // faults are not fixable by reconfiguration.
                break;
            }
        });
    health_monitor_->StartWatchdog();

    if (!config_.predictive) return;
    // The predictive plane rides on the reactive one's signals: fault
    // events from the bus, watchdog miss/dead counters, and the pool's
    // recovery churn, folded into the pod's published health score.
    forecaster_->AttachTelemetry(telemetry_.get());
    forecaster_->AttachHealthMonitor(health_monitor_.get());
    forecaster_->set_recovery_churn_probe(
        [pool = pool_.get()] { return pool->counters().recoveries; });
    forecaster_->Start();
}

void PodContext::Deploy(std::function<void(bool)> on_done) {
    pool_->Deploy(std::move(on_done));
}

}  // namespace catapult::mgmt
