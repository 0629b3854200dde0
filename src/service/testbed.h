// One-stop single-pod testbed: kept as the entry point for every
// integration test, example and bench harness that predates the
// federation.
//
// Since the federated control plane landed, the per-pod stack (fabric,
// hosts, management services, service pool, autonomic wiring) lives in
// mgmt::PodContext and the multi-pod front end in FederationTestbed;
// PodTestbed is now a thin wrapper over a 1-pod federation. Its Config
// *is* the PodContext config and every accessor forwards to pod 0, so
// the whole pre-federation surface — `service()` as ring 0 of the
// pool, the health plane wired by default, `autonomic=false` opting
// out — behaves exactly as before.

#pragma once

#include "mgmt/pod_context.h"
#include "service/federation_testbed.h"

namespace catapult::service {

class PodTestbed {
  public:
    using Config = mgmt::PodContext::Config;

    explicit PodTestbed(Config config);
    PodTestbed() : PodTestbed(Config()) {}

    /** Deploy every ring and run until configuration settles. */
    bool DeployAndSettle() { return federation_.DeployAndSettle(); }

    sim::Simulator& simulator() { return federation_.simulator(); }
    fabric::CatapultFabric& fabric() { return pod().fabric(); }
    host::HostServer& host(int node) { return pod().host(node); }
    std::vector<host::HostServer*>& hosts() { return pod().hosts(); }
    mgmt::MappingManager& mapping_manager() { return pod().mapping_manager(); }
    mgmt::HealthMonitor& health_monitor() { return pod().health_monitor(); }
    mgmt::FailureInjector& failure_injector() {
        return pod().failure_injector();
    }
    mgmt::PodScheduler& scheduler() { return pod().scheduler(); }
    mgmt::TelemetryBus& telemetry() { return pod().telemetry(); }
    ServicePool& pool() { return pod().pool(); }
    /** Ring 0 of the pool: the legacy single-ring surface. */
    RankingService& service() { return pool().ring(0); }

    /** The wrapped 1-pod federation's pod (pod id 0). */
    mgmt::PodContext& pod() { return federation_.pod(0); }

  private:
    FederationTestbed federation_;
};

}  // namespace catapult::service
