// Service pool: N ranking rings behind one dispatcher (§2, §4.2).
//
// The paper's elasticity story has services allocating groups of FPGAs
// on the torus; the Service Manager keeps the service healthy and
// available. The pool is that pod-level view: it asks the PodScheduler
// for one ring-shaped region per ring, owns the resulting
// RankingService instances, shards Inject traffic across them through a
// QueryDispatcher, and on a ring failure drains the ring out of
// rotation — new documents redirect to survivors — while the §4.2 spare
// rotation recovers it. A pool of one ring behaves exactly like the old
// single-ring service, which keeps the whole pre-pool test surface
// green.
//
// Failure handling is autonomic (§3.3, §3.5): the pool subscribes to
// the Health Monitor's confirmed MachineReports, maps a failed node to
// its owning ring through the PodScheduler placement, and triggers the
// drain / spare-rotation / redeploy / rejoin sequence itself — with
// hysteresis (one recovery in flight per ring, a cooldown after
// rejoin, bounded redeploy retries) so a transient fault cannot thrash
// a ring out of rotation. RecoverRing remains callable by hand and is
// the same code path the subscriber uses.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/feed.h"
#include "common/slot_table.h"
#include "mgmt/health_monitor.h"
#include "mgmt/pod_scheduler.h"
#include "service/query_dispatcher.h"
#include "service/ranking_service.h"

namespace catapult::service {

class ServicePool {
  public:
    struct Config {
        /** Rings to place and deploy (1..torus rows on a default pod). */
        int ring_count = 1;
        DispatchPolicy policy = DispatchPolicy::kLeastInFlight;
        /**
         * Per-ring admission cap: pool-dispatched documents in flight
         * on one ring; 0 = unbounded. A ring at its cap drops out of
         * the dispatch rotation for the next pick, and when every
         * in-rotation ring is at cap the document is rejected — never
         * queued — so open-loop overload is bounded *below* the pod
         * level (the federation's per-pod cap bounds it above).
         */
        int max_in_flight_per_ring = 0;
        /**
         * Per-ring configuration shared by every ring. Its
         * `service_name` names the pool; rings deploy as
         * "<service_name>/ring<k>".
         */
        RankingService::Config ring;
    };

    /**
     * Places `ring_count` rings through `scheduler` (asserting the pod
     * has capacity) and wires a RankingService onto each grant. Deploy
     * separately — construction is placement only.
     */
    ServicePool(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                std::vector<host::HostServer*> hosts,
                mgmt::MappingManager* mapping_manager,
                mgmt::PodScheduler* scheduler, Config config);

    ServicePool(const ServicePool&) = delete;
    ServicePool& operator=(const ServicePool&) = delete;

    /** Releases every scheduler grant. */
    ~ServicePool();

    /**
     * Deploy every ring (serialized: the Mapping Manager holds one
     * in-flight spec at a time). `on_done(true)` only when all rings
     * configured.
     */
    void Deploy(std::function<void(bool)> on_done);

    /**
     * Inject one document through the dispatcher. The target ring is
     * picked by policy; the injecting server rotates around the chosen
     * ring so no single host's DMA slots become the bottleneck.
     * Returns kTimeout when no ring is in rotation.
     */
    host::SendStatus Inject(int thread, const rank::CompressedRequest& request,
                            CompletionFn on_complete);

    /**
     * Inject from a specific pod node (the server the query arrived
     * on): locality-aware policies prefer rings near that node's torus
     * row, and the document enters the chosen ring at that node's
     * column.
     */
    host::SendStatus InjectFrom(int injector_node, int thread,
                                const rank::CompressedRequest& request,
                                CompletionFn on_complete);

    /**
     * Ring failure handling: immediately drain ring `ring_id` out of
     * dispatch rotation, rotate its spare over `failed_ring_index`
     * (§4.2) and redeploy; the ring rejoins rotation on success.
     * Traffic keeps flowing to surviving rings throughout. Idempotent
     * on the rotation: if the failed position already holds the spare
     * (a retry, or a second report for the same incident) only the
     * redeploy runs.
     */
    void RecoverRing(int ring_id, int failed_ring_index,
                     std::function<void(bool)> on_done);

    /**
     * Health-plane entry point: a confirmed MachineReport from the
     * Health Monitor. Maps the node to its owning ring via the
     * scheduler placement and starts an automatic recovery (with
     * hysteresis and bounded retries). Returns true when the report
     * concerned a node holding an active stage of one of this pool's
     * rings — i.e. this pool owns the response — false when the node
     * is not the pool's to handle (unplaced, or already rotated out as
     * the spare) and the caller should fall back to re-mapping.
     */
    bool HandleMachineReport(const mgmt::MachineReport& report);

    /** Ring owning `node`, or -1; `position` gets the ring index. */
    int RingOfNode(int node, int* position) const;

    /** Observability hooks for benches/tests (ring id argument). */
    void set_on_ring_drained(std::function<void(int)> cb) {
        on_ring_drained_ = std::move(cb);
    }
    void set_on_ring_recovered(std::function<void(int)> cb) {
        on_ring_recovered_ = std::move(cb);
    }
    /**
     * Publishes available_rings() after every rotation change (deploy
     * completion, drain, recovery rejoin, manual flip). The sharded
     * federation dispatcher mirrors the pod's capacity on its
     * coordinator shard through this — it cannot poll the pool
     * synchronously across the shard boundary.
     */
    Feed<int>& ring_availability() { return ring_availability_; }

    /**
     * Pod re-admission support: forget deferred health reports and
     * recovery grudges accumulated while the pod was dark, and orphan
     * any scheduled auto-recovery retries (their positions refer to
     * hardware the field service just replaced — a stale retry firing
     * after the redeploy would rotate a healthy ring around nothing).
     * Call before redeploying onto serviced hardware.
     */
    void ClearRecoveryBacklog();

    /** Manual drain / rejoin (maintenance). */
    void SetRingAvailable(int ring_id, bool available);
    bool ring_available(int ring_id) const {
        return rings_[static_cast<std::size_t>(ring_id)].available;
    }

    int ring_count() const { return static_cast<int>(rings_.size()); }
    /** Rings currently in dispatch rotation (not drained/recovering). */
    int available_rings() const { return ring_count() - DrainedRings(); }
    RankingService& ring(int ring_id) {
        return *rings_[static_cast<std::size_t>(ring_id)].service;
    }
    const mgmt::RingPlacement& placement(int ring_id) const {
        return rings_[static_cast<std::size_t>(ring_id)].placement;
    }
    int in_flight(int ring_id) const {
        return rings_[static_cast<std::size_t>(ring_id)].in_flight;
    }
    int total_in_flight() const;

    QueryDispatcher& dispatcher() { return dispatcher_; }
    sim::Simulator* simulator() { return simulator_; }
    fabric::CatapultFabric* fabric() { return fabric_; }

    struct Counters {
        std::uint64_t dispatched = 0;
        /** Documents dispatched while at least one ring was drained. */
        std::uint64_t redirected = 0;
        /** Rejected because no ring was in rotation. */
        std::uint64_t rejected = 0;
        /**
         * Subset of `rejected` refused only because every in-rotation
         * ring sat at max_in_flight_per_ring (admission control, not
         * failure).
         */
        std::uint64_t cap_rejected = 0;
        std::uint64_t recoveries = 0;
        /** Recoveries initiated by the health plane (no explicit call). */
        std::uint64_t auto_recoveries = 0;
        /** Reports absorbed by hysteresis (in flight / cooldown). */
        std::uint64_t suppressed_reports = 0;
    };
    const Counters& counters() const { return counters_; }

    /** Sum of the per-ring service counters. */
    RankingService::Counters AggregateRingCounters() const;

    /** Attach the pod's observability shard to every ring. */
    void SetObservability(obs::ShardObs* obs);

  private:
    struct RingSlot {
        mgmt::RingPlacement placement;
        std::unique_ptr<RankingService> service;
        bool available = false;  ///< enters rotation once deployed
        int in_flight = 0;
        int next_inject_position = 0;
        // Auto-recovery hysteresis state.
        bool recovering = false;
        bool ever_recovered = false;
        Time last_recovery_done = 0;
        /**
         * Positions whose reports were absorbed mid-recovery/cooldown;
         * re-examined once the ring settles (a different node of the
         * same ring can fail inside the hysteresis window, and its
         * stage would otherwise time out forever).
         */
        std::vector<int> deferred_positions;
        bool deferred_flush_scheduled = false;
    };

    host::SendStatus InjectOnRing(int ring_id, int ring_position, int thread,
                                  const rank::CompressedRequest& request,
                                  CompletionFn on_complete);
    /** A ring completed pool document `doc`. */
    void OnRingResult(int ring_id, std::uint32_t doc, const ScoreResult& result);
    host::SendStatus RejectPick();
    int NextResponsivePosition(RingSlot& slot);
    void AutoRecover(int ring_id, int failed_ring_index, int attempt);
    void StartAutoRecovery(int ring_id, int position, const std::string& why);
    void ScheduleDeferredFlush(int ring_id);
    void FlushDeferredReports(int ring_id);
    const std::vector<RingView>& Snapshot();
    int DrainedRings() const;

    /** Serialize (re)deployments through the shared Mapping Manager. */
    void EnqueueDeployment(std::function<void(std::function<void(bool)>)> op,
                           std::function<void(bool)> on_done);
    void PumpDeployments();

    const std::string& name() const { return config_.ring.service_name; }

    sim::Simulator* simulator_;
    fabric::CatapultFabric* fabric_;
    mgmt::PodScheduler* scheduler_;
    Config config_;
    QueryDispatcher dispatcher_;
    std::vector<RingSlot> rings_;
    /** Bumped by ClearRecoveryBacklog to orphan stale recovery chains. */
    std::uint64_t recovery_epoch_ = 0;
    std::vector<RingView> snapshot_;  ///< reused per dispatch (hot path)
    /**
     * Callers' completions of the documents in flight; the ring gets a
     * wrapper carrying the slot index.
     */
    SlotTable<CompletionFn> doc_callbacks_;
    std::queue<std::function<void()>> deployment_queue_;
    bool deployment_in_flight_ = false;
    std::function<void(int)> on_ring_drained_;
    std::function<void(int)> on_ring_recovered_;
    Feed<int> ring_availability_;
    Counters counters_;
};

}  // namespace catapult::service
