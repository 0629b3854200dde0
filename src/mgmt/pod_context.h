// PodContext: one pod's complete stack as a first-class object.
//
// The paper's deployment is 1,632 servers composed of 48-node 6x8-torus
// pods (§2); everything above the torus — mapping, health, scheduling,
// the ranking-service pool — is pod-scoped. This class is that scope
// made explicit: one fabric, its host servers, a Mapping Manager, a
// Health Monitor, a Failure Injector, a PodScheduler, a TelemetryBus
// and a ServicePool, all sharing one pod id that is threaded through
// node ids (the fabric's global node base), telemetry events and
// machine reports. A federation (service::FederationTestbed) owns 1..N
// of these on one simulator and fronts them with a
// service::FederatedDispatcher; the single-pod PodTestbed is now a thin
// wrapper over a 1-pod federation.
//
// The class lives in the mgmt namespace — it is management-plane API,
// the federation's unit of placement and failure — but compiles into
// catapult_service: it owns a ServicePool, which sits *above* the
// management plane in the link graph (service -> mgmt -> fabric), the
// same reason the TelemetryBus builds *below* it as catapult_telemetry.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "mgmt/failure_injector.h"
#include "mgmt/health_forecaster.h"
#include "mgmt/health_monitor.h"
#include "mgmt/mapping_manager.h"
#include "mgmt/pod_scheduler.h"
#include "mgmt/telemetry_bus.h"
#include "obs/observability.h"
#include "service/ranking_service.h"
#include "service/service_pool.h"
#include "service/trace_replay.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

class PodContext {
  public:
    struct Config {
        fabric::CatapultFabric::Config fabric;
        host::HostServer::Config host;
        /** Per-ring configuration (shared by every ring of the pool). */
        service::RankingService::Config service;
        /** Rings the scheduler places onto the pod. */
        int ring_count = 1;
        service::DispatchPolicy policy = service::DispatchPolicy::kLeastInFlight;
        /** Per-ring admission cap forwarded to the pool (0 = off). */
        int max_in_flight_per_ring = 0;
        std::uint64_t seed = 0xBED5EEDull;
        /** Threads per host pre-registered with the slot driver. */
        int driver_threads = 32;
        /** Health Monitor tuning (watchdog cadence, query timeout). */
        HealthMonitor::Config health;
        /**
         * Run the closed loop: telemetry bus attached, heartbeat
         * watchdog started, MachineReports fanned out to the pool and
         * the Mapping Manager. Off restores the pull-only plane where
         * Investigate / RecoverRing run only when called.
         */
        bool autonomic = true;
        /**
         * Run the predictive plane on top of the reactive one: the
         * HealthForecaster samples this pod's fault-signal trends and
         * publishes a health score on the pod's HealthScoreFeed, which
         * a FederatedDispatcher uses for score-weighted routing and
         * shed-before-failure. Requires `autonomic` (the forecaster
         * taps the watchdog and the telemetry bus); off leaves the
         * feed silent, so subscribers see a default-healthy pod.
         */
        bool predictive = true;
        /** Forecaster tuning (sampling cadence, weights, bands). */
        HealthForecaster::Config forecast;
        /**
         * Pod index within a federation. Unless the fabric config pins
         * them explicitly, the node base (global ids), fabric name
         * prefix, telemetry stamp and MachineReport stamp all derive
         * from it, so a federation's pods are distinguishable at every
         * layer.
         */
        int pod_id = 0;
        /**
         * SimulatorGroup shard this pod's stack is pinned to, -1 when
         * the pod shares the classic single simulator. Informational:
         * the `simulator` passed to the constructor is already the
         * shard's; this records the pinning for logs and asserts.
         */
        int shard_index = -1;
        /**
         * This pod's observability shard (written only by events on
         * the pod's simulator). Wired through the ring pool
         * (per-document "doc"/"stage" spans) and the Health Monitor
         * ("fault" instants + FDR postmortem streaming). Null =
         * observability off; the pointee must outlive the pod.
         */
        obs::ShardObs* obs = nullptr;
    };

    /** Builds the whole pod on `simulator`; does not deploy the pool. */
    PodContext(sim::Simulator* simulator, Config config);

    PodContext(const PodContext&) = delete;
    PodContext& operator=(const PodContext&) = delete;

    /** Deploy every ring of the pool (`on_done(true)` when all up). */
    void Deploy(std::function<void(bool)> on_done);

    int pod_id() const { return config_.pod_id; }
    /** Group shard the pod is pinned to (-1 = shared simulator). */
    int shard_index() const { return config_.shard_index; }
    const Config& config() const { return config_; }

    sim::Simulator& simulator() { return *simulator_; }
    fabric::CatapultFabric& fabric() { return *fabric_; }
    host::HostServer& host(int node) { return *hosts_storage_[
        static_cast<std::size_t>(node)]; }
    std::vector<host::HostServer*>& hosts() { return hosts_; }
    MappingManager& mapping_manager() { return *mapping_manager_; }
    HealthMonitor& health_monitor() { return *health_monitor_; }
    FailureInjector& failure_injector() { return *failure_injector_; }
    PodScheduler& scheduler() { return *scheduler_; }
    TelemetryBus& telemetry() { return *telemetry_; }
    service::ServicePool& pool() { return *pool_; }

    /**
     * The pod's health-score feed. Always constructed (so a dispatcher
     * can subscribe unconditionally); silent unless the forecaster
     * runs, in which case subscribers see a default-healthy pod.
     */
    HealthScoreFeed& health_feed() { return *health_feed_; }
    HealthForecaster& forecaster() { return *forecaster_; }

    /**
     * Pod-level FDR trace archive: every ring of the pool records here
     * when `service.archive_traces` is on (trace ids are pod+ring
     * strided, so entries never collide). Null when archiving is off.
     */
    const service::TraceArchive* trace_archive() const {
        return trace_archive_.get();
    }

  private:
    Config config_;
    sim::Simulator* simulator_;
    std::unique_ptr<TelemetryBus> telemetry_;
    std::unique_ptr<fabric::CatapultFabric> fabric_;
    std::vector<std::unique_ptr<host::HostServer>> hosts_storage_;
    std::vector<host::HostServer*> hosts_;
    std::unique_ptr<MappingManager> mapping_manager_;
    std::unique_ptr<HealthMonitor> health_monitor_;
    std::unique_ptr<FailureInjector> failure_injector_;
    std::unique_ptr<PodScheduler> scheduler_;
    std::unique_ptr<service::TraceArchive> trace_archive_;
    std::unique_ptr<service::ServicePool> pool_;
    std::unique_ptr<HealthScoreFeed> health_feed_;
    std::unique_ptr<HealthForecaster> forecaster_;
};

}  // namespace catapult::mgmt
