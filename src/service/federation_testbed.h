// Federation testbed: 1..N pods behind one FederatedDispatcher.
//
// The cross-pod analogue of PodTestbed: one simulator carries every
// pod's fabric, hosts and management plane (mgmt::PodContext per pod),
// and a FederatedDispatcher fronts them with the same Inject surface a
// single pool offers. Pod k's node ids live in [k*48, (k+1)*48), its
// telemetry events and machine reports carry pod id k, and its service
// deploys as "<service_name>/pod<k>" — so logs, traces and reports
// from a 3-pod federation never collide.
//
// PodTestbed is a thin wrapper over a 1-pod instance of this class,
// which is what keeps the entire pre-federation test/bench surface
// compiling unchanged.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mgmt/pod_context.h"
#include "obs/observability.h"
#include "service/federated_dispatcher.h"
#include "service/session_front_end.h"
#include "sim/simulator.h"
#include "sim/simulator_group.h"

namespace catapult::service {

class FederationTestbed {
  public:
    struct Config {
        /** Pods to build, 1..64 (each a full 48-node torus by default). */
        int pod_count = 1;
        /**
         * Template for every pod; pod_id, node base, name prefix and
         * per-pod seed are derived per pod. Pod 0 uses the template
         * verbatim, so a 1-pod federation is bit-for-bit the old
         * single-pod testbed.
         */
        mgmt::PodContext::Config pod;
        FederatedDispatcher::Config dispatcher;
        /**
         * Session front end fronting the dispatcher. `driver_threads`
         * is overwritten from the pod template so session connection
         * pools always index real slot-driver threads.
         */
        SessionFrontEnd::Config front_end;

        /**
         * Sharded federation runtime. Off (default), every pod shares
         * the classic single simulator and attaches directly — the
         * reference mode. On, every pod runs on its own SimulatorGroup
         * shard and the dispatcher/front-end/injector tier on a
         * coordinator shard; cross-pod traffic crosses explicit hop
         * latencies through deterministic mailboxes. One thread runs
         * every shard, lock-step.
         */
        struct Sharding {
            bool enabled = false;
            /**
             * Accepted only when false; true aborts. perfbench's
             * blackout workload still assigns it; the field goes with
             * the next change to perfbench/.
             */
            bool parallel = false;
        } sharding;

        /**
         * Observability plane (metrics registry + distributed tracing +
         * round-schedule profiling). Off by default — zero overhead
         * beyond untaken branches. On: one ShardObs per simulator shard
         * (the coordinator's feeds the dispatcher/scatter/session tier,
         * each pod's feeds its rings and Health Monitor), merged at
         * epoch barriers (or by a cadence daemon when unsharded). The
         * deterministic exports are byte-identical run to run.
         */
        obs::ObservabilityPlane::Config observability;
    };

    explicit FederationTestbed(Config config);
    FederationTestbed() : FederationTestbed(Config()) {}

    /** Deploy every pod's pool and run until configuration settles. */
    bool DeployAndSettle();

    /**
     * Live pod re-admission: bring a serviced pod back into a running
     * federation with zero disruption to in-flight queries on the
     * surviving pods. The full sequence, all on simulated time
     * (ServiceAndRedeploy): field-service every host (boot path
     * repaired, hard-reboot-long power cycle), clear the Health
     * Monitor's dead list so watchdog coverage resumes, reset the
     * forecaster's trend (cold-start grace restarts) and redeploy the
     * pod's rings. Once they are up, FederatedDispatcher::ReadmitPod —
     * breaker reset plus a warm-up ramp so the rejoining pod earns
     * traffic gradually. `on_done`
     * fires with the joined redeploy verdict; on failure the pod stays
     * out of rotation. Call while the simulator runs (or Run() after).
     */
    void ReattachPod(int index, std::function<void(bool)> on_done);

    /**
     * The simulator the dispatcher/front-end tier runs on: the classic
     * shared simulator, or the coordinator shard when sharding is on.
     * Injectors and tests drive this one; in sharded mode use Run() /
     * RunUntil() below so pod shards advance too.
     */
    sim::Simulator& simulator() { return *coordinator_; }
    /** Non-null when Config::sharding.enabled. */
    sim::SimulatorGroup* group() { return group_.get(); }
    bool sharded() const { return group_ != nullptr; }

    /** Mode-dispatched drive: group epochs when sharded, else direct. */
    std::uint64_t Run() { return group_ ? group_->Run() : simulator_.Run(); }
    std::uint64_t RunUntil(Time horizon) {
        return group_ ? group_->RunUntil(horizon)
                      : simulator_.RunUntil(horizon);
    }
    Time Now() const { return coordinator_->Now(); }

    int pod_count() const { return static_cast<int>(pods_.size()); }
    mgmt::PodContext& pod(int index) {
        return *pods_[static_cast<std::size_t>(index)];
    }
    FederatedDispatcher& dispatcher() { return *dispatcher_; }
    /** The session-oriented scatter-gather door over the dispatcher. */
    SessionFrontEnd& front_end() { return *front_end_; }
    /** Null unless Config::observability.enabled. */
    obs::ObservabilityPlane* observability() { return plane_.get(); }

  private:
    /** Build pod `pod_index` and attach it. */
    void BuildPod(int pod_index);
    /** ReattachPod's pod-local sequence, up to redeploy. */
    void ServiceAndRedeploy(mgmt::PodContext& pod,
                            std::function<void(bool)> on_deployed);
    /** Register the layer-counter pull-collectors + cadence driver. */
    void InstallObservability();

    Config config_;
    sim::Simulator simulator_;
    /** Destroyed after pods_/dispatcher_ (declared before them). */
    std::unique_ptr<sim::SimulatorGroup> group_;
    sim::Simulator* coordinator_ = nullptr;
    /** Declared before pods_/dispatcher_: they hold ShardObs*. */
    std::unique_ptr<obs::ObservabilityPlane> plane_;
    std::vector<std::unique_ptr<mgmt::PodContext>> pods_;
    std::unique_ptr<FederatedDispatcher> dispatcher_;
    std::unique_ptr<SessionFrontEnd> front_end_;
};

}  // namespace catapult::service
