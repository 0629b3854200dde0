#include "service/service_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/log.h"

namespace catapult::service {

namespace {

// --- Auto-recovery hysteresis ----------------------------------------

/**
 * Quiet period per ring after a recovery rejoins rotation; reports
 * confirming the same incident are absorbed instead of rotating the
 * ring again.
 */
constexpr Time kRecoveryCooldown = Milliseconds(500);
/** Redeploy attempts per recovery before giving up. */
constexpr int kRecoveryMaxAttempts = 3;
/** Delay between redeploy attempts. */
constexpr Time kRecoveryRetryDelay = Milliseconds(100);

// Ring-relative column offset of `col` in `placement` (rings wrap the
// torus row), or -1 when the column falls outside the placement's span.
// The dispatcher and the health plane must agree on node ownership, so
// this is the one place the geometry lives.
int ColumnOffsetInRing(const mgmt::RingPlacement& placement, int col,
                       int cols) {
    const int offset = ((col - placement.head_col) % cols + cols) % cols;
    return offset < placement.length ? offset : -1;
}

}  // namespace

ServicePool::ServicePool(sim::Simulator* simulator,
                         fabric::CatapultFabric* fabric,
                         std::vector<host::HostServer*> hosts,
                         mgmt::MappingManager* mapping_manager,
                         mgmt::PodScheduler* scheduler, Config config)
    : simulator_(simulator),
      fabric_(fabric),
      scheduler_(scheduler),
      config_(std::move(config)),
      dispatcher_(config_.policy, fabric->topology().rows()) {
    assert(simulator_ != nullptr && fabric_ != nullptr);
    assert(scheduler_ != nullptr && mapping_manager != nullptr);
    if (config_.ring_count < 1) {
        FatalMisuse("ServicePool: ring_count %d < 1", config_.ring_count);
    }

    rings_.reserve(static_cast<std::size_t>(config_.ring_count));
    for (int k = 0; k < config_.ring_count; ++k) {
        RingSlot slot;
        slot.placement = scheduler_->PlaceRing(RankingService::kRingLength);
        if (!slot.placement.valid()) {
            // Out of pod capacity: a runtime resource condition, not a
            // programming error. The shortfall is surfaced when Deploy
            // reports failure.
            LOG_ERROR("service_pool")
                << name() << ": pod out of capacity — placed " << k
                << " of " << config_.ring_count << " requested rings";
            break;
        }
        RankingService::Config ring_config = config_.ring;
        ring_config.service_name =
            name() + "/ring" + std::to_string(k);
        // Stride the trace-id space per ring (the pod's base arrives in
        // config_.ring.trace_id_base): ids stay unique across every
        // ring of every pod, which is what lets a federation-level FDR
        // replay resolve a trace to the archive that holds it.
        ring_config.trace_id_base =
            config_.ring.trace_id_base +
            (static_cast<std::uint64_t>(k) << 40);
        slot.service = std::make_unique<RankingService>(
            simulator_, fabric_, hosts, mapping_manager, slot.placement,
            std::move(ring_config));
        rings_.push_back(std::move(slot));
    }
    LOG_INFO("service_pool")
        << name() << ": placed " << rings_.size() << " ring(s), policy "
        << ToString(config_.policy);
}

ServicePool::~ServicePool() {
    for (auto& slot : rings_) scheduler_->Release(slot.placement);
}

void ServicePool::EnqueueDeployment(
    std::function<void(std::function<void(bool)>)> op,
    std::function<void(bool)> on_done) {
    deployment_queue_.push(
        [this, op = std::move(op), on_done = std::move(on_done)]() mutable {
            op([this, on_done = std::move(on_done)](bool ok) {
                deployment_in_flight_ = false;
                if (on_done) on_done(ok);
                PumpDeployments();
            });
        });
    PumpDeployments();
}

void ServicePool::PumpDeployments() {
    if (deployment_in_flight_ || deployment_queue_.empty()) return;
    deployment_in_flight_ = true;
    auto run = std::move(deployment_queue_.front());
    deployment_queue_.pop();
    run();
}

void ServicePool::Deploy(std::function<void(bool)> on_done) {
    if (ring_count() < config_.ring_count) {
        // Placement fell short at construction (pod out of capacity):
        // fail the deployment instead of silently serving fewer rings.
        if (on_done) on_done(false);
        return;
    }
    // The Mapping Manager holds a single in-flight spec, so ring
    // deployments are serialized through the queue; each ring joins the
    // dispatch rotation the moment it is configured.
    auto all_ok = std::make_shared<bool>(true);
    auto remaining = std::make_shared<int>(ring_count());
    auto done = std::make_shared<std::function<void(bool)>>(std::move(on_done));
    for (int k = 0; k < ring_count(); ++k) {
        EnqueueDeployment(
            [this, k](std::function<void(bool)> cb) {
                rings_[static_cast<std::size_t>(k)].service->Deploy(
                    std::move(cb));
            },
            [this, k, all_ok, remaining, done](bool ok) {
                rings_[static_cast<std::size_t>(k)].available = ok;
                ring_availability_.Publish(available_rings());
                *all_ok = *all_ok && ok;
                if (--*remaining == 0 && *done) (*done)(*all_ok);
            });
    }
}

const std::vector<RingView>& ServicePool::Snapshot() {
    // Rebuilt in place: Inject runs once per document, so the snapshot
    // buffer is reused rather than reallocated on every dispatch. A
    // ring at its admission cap leaves the rotation for this pick only
    // (slot.available is untouched — the cap is congestion, not
    // failure, so it must not count as a drain).
    snapshot_.clear();
    for (const auto& slot : rings_) {
        const bool capped = config_.max_in_flight_per_ring > 0 &&
                            slot.in_flight >= config_.max_in_flight_per_ring;
        snapshot_.push_back(RingView{slot.available && !capped,
                                     slot.in_flight, slot.placement.row});
    }
    return snapshot_;
}

int ServicePool::DrainedRings() const {
    int drained = 0;
    for (const auto& slot : rings_) {
        if (!slot.available) ++drained;
    }
    return drained;
}

int ServicePool::total_in_flight() const {
    int total = 0;
    for (const auto& slot : rings_) total += slot.in_flight;
    return total;
}

host::SendStatus ServicePool::InjectOnRing(
    int ring_id, int ring_position, int thread,
    const rank::CompressedRequest& request, CompletionFn on_complete) {
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    const std::uint32_t doc = doc_callbacks_.Acquire();
    doc_callbacks_[doc] = std::move(on_complete);
    const auto status = slot.service->Inject(
        ring_position, thread, request,
        [this, ring_id, doc](const ScoreResult& result) {
            OnRingResult(ring_id, doc, result);
        });
    if (status == host::SendStatus::kOk) {
        ++slot.in_flight;
        ++counters_.dispatched;
        if (DrainedRings() > 0) ++counters_.redirected;
    } else {
        doc_callbacks_[doc] = nullptr;
        doc_callbacks_.Release(doc);
    }
    return status;
}

void ServicePool::OnRingResult(int ring_id, std::uint32_t doc,
                               const ScoreResult& result) {
    --rings_[static_cast<std::size_t>(ring_id)].in_flight;
    CompletionFn on_complete = std::move(doc_callbacks_[doc]);
    doc_callbacks_.Release(doc);
    if (on_complete) on_complete(result);
}

int ServicePool::NextResponsivePosition(RingSlot& slot) {
    // Rotate the injection point around the ring, skipping servers that
    // are down (e.g. the rebooting machine a spare rotation mapped out):
    // any of the eight servers can inject (§4.1), so a dead one just
    // drops out of the rotation.
    for (int tries = 0; tries < RankingService::kRingLength; ++tries) {
        const int position = slot.next_inject_position;
        slot.next_inject_position =
            (position + 1) % RankingService::kRingLength;
        if (slot.service->host(position)->responsive()) return position;
    }
    return -1;
}

host::SendStatus ServicePool::RejectPick() {
    ++counters_.rejected;
    // Rings in rotation but nothing picked: the refusal came from the
    // per-ring admission caps alone (bounded open-loop overload), not
    // from drains.
    if (config_.max_in_flight_per_ring > 0 && available_rings() > 0) {
        ++counters_.cap_rejected;
    }
    return host::SendStatus::kTimeout;
}

host::SendStatus ServicePool::Inject(int thread,
                                     const rank::CompressedRequest& request,
                                     CompletionFn on_complete) {
    const int ring_id = dispatcher_.Pick(Snapshot(), /*preferred_row=*/-1);
    if (ring_id < 0) return RejectPick();
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    const int position = NextResponsivePosition(slot);
    if (position < 0) {
        ++counters_.rejected;
        return host::SendStatus::kTimeout;
    }
    return InjectOnRing(ring_id, position, thread, request,
                        std::move(on_complete));
}

host::SendStatus ServicePool::InjectFrom(
    int injector_node, int thread, const rank::CompressedRequest& request,
    CompletionFn on_complete) {
    const auto coord = fabric_->topology().CoordOf(injector_node);
    const int ring_id = dispatcher_.Pick(Snapshot(), coord.row);
    if (ring_id < 0) return RejectPick();
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    const int cols = fabric_->topology().cols();
    int position = ColumnOffsetInRing(slot.placement, coord.col, cols);
    if (position < 0 ||
        !slot.service->host(position)->responsive()) {
        // The injector's column is outside this ring's span (possible
        // on non-full-row rings), or that server is down: fall back to
        // the rotating cursor.
        position = NextResponsivePosition(slot);
        if (position < 0) {
            ++counters_.rejected;
            return host::SendStatus::kTimeout;
        }
    }
    return InjectOnRing(ring_id, position, thread, request,
                        std::move(on_complete));
}

void ServicePool::RecoverRing(int ring_id, int failed_ring_index,
                              std::function<void(bool)> on_done) {
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    // Drain first: from this instant the dispatcher routes every new
    // document to the surviving rings; in-flight documents on the
    // broken ring surface as timeouts through the normal §3.2 path.
    slot.available = false;
    ring_availability_.Publish(available_rings());
    ++counters_.recoveries;
    LOG_INFO("service_pool")
        << name() << ": ring " << ring_id
        << " drained for recovery (failed position " << failed_ring_index
        << "); " << ring_count() - DrainedRings() << " ring(s) serving";
    if (on_ring_drained_) on_ring_drained_(ring_id);
    // Idempotent rotation: a redeploy retry (or a second report for the
    // same incident) finds the spare already over the failed position
    // and must not rotate the pipeline back onto the dead node.
    const bool already_rotated =
        slot.service->StageAt(failed_ring_index) == rank::PipelineStage::kSpare;
    EnqueueDeployment(
        [this, ring_id, failed_ring_index,
         already_rotated](std::function<void(bool)> cb) {
            RankingService* service =
                rings_[static_cast<std::size_t>(ring_id)].service.get();
            if (already_rotated) {
                service->Deploy(std::move(cb));
            } else {
                service->RotateRingAround(failed_ring_index, std::move(cb));
            }
        },
        [this, ring_id, on_done = std::move(on_done)](bool ok) {
            if (ok) {
                RingSlot& recovered = rings_[static_cast<std::size_t>(ring_id)];
                recovered.available = true;
                ring_availability_.Publish(available_rings());
                recovered.ever_recovered = true;
                recovered.last_recovery_done = simulator_->Now();
                LOG_INFO("service_pool") << name() << ": ring "
                                         << ring_id << " rejoined rotation";
                if (on_ring_recovered_) on_ring_recovered_(ring_id);
            }
            if (on_done) on_done(ok);
        });
}

int ServicePool::RingOfNode(int node, int* position) const {
    const auto coord = fabric_->topology().CoordOf(node);
    const int cols = fabric_->topology().cols();
    for (int k = 0; k < ring_count(); ++k) {
        const mgmt::RingPlacement& placement =
            rings_[static_cast<std::size_t>(k)].placement;
        if (placement.row != coord.row) continue;
        const int offset = ColumnOffsetInRing(placement, coord.col, cols);
        if (offset < 0) continue;
        if (position != nullptr) *position = offset;
        return k;
    }
    return -1;
}

bool ServicePool::HandleMachineReport(const mgmt::MachineReport& report) {
    if (report.fault == mgmt::FaultType::kNone) return false;
    int position = -1;
    const int ring_id = RingOfNode(report.node, &position);
    if (ring_id < 0) return false;
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    if (slot.service->StageAt(position) == rank::PipelineStage::kSpare) {
        // The node is already rotated out of the pipeline; nothing to
        // drain. Let the caller re-map it in place so it can serve as a
        // healthy spare again.
        return false;
    }
    // Hysteresis: one recovery in flight per ring, and a quiet period
    // after a rejoin so confirmations of the same incident (a second
    // investigation, a lingering symptom) do not thrash the ring.
    if (slot.recovering ||
        (slot.ever_recovered &&
         simulator_->Now() - slot.last_recovery_done <
             kRecoveryCooldown)) {
        ++counters_.suppressed_reports;
        // Absorb, don't drop: this can be a *different* node of the same
        // ring failing inside the hysteresis window, and its stage would
        // time out forever if the report vanished. Re-examine the
        // position once the ring settles; same-incident duplicates find
        // the spare there by then and evaporate.
        std::vector<int>& deferred = slot.deferred_positions;
        if (std::find(deferred.begin(), deferred.end(), position) ==
            deferred.end()) {
            deferred.push_back(position);
        }
        ScheduleDeferredFlush(ring_id);
        return true;
    }
    StartAutoRecovery(ring_id, position,
                      "health plane reports node " +
                          std::to_string(report.node) + " (" +
                          mgmt::ToString(report.fault) + ")");
    return true;
}

void ServicePool::StartAutoRecovery(int ring_id, int position,
                                    const std::string& why) {
    rings_[static_cast<std::size_t>(ring_id)].recovering = true;
    ++counters_.auto_recoveries;
    LOG_INFO("service_pool")
        << name() << ": " << why << " -> recovering ring " << ring_id
        << " around position " << position;
    AutoRecover(ring_id, position, /*attempt=*/0);
}

void ServicePool::AutoRecover(int ring_id, int failed_ring_index,
                              int attempt) {
    // Epoch capture: ClearRecoveryBacklog (pod re-admission) orphans
    // this chain — the failed position refers to hardware the field
    // service replaced, and the re-admission's own redeploy supersedes
    // any retry still scheduled here.
    const std::uint64_t epoch = recovery_epoch_;
    RecoverRing(ring_id, failed_ring_index, [this, ring_id, failed_ring_index,
                                             attempt, epoch](bool ok) {
        if (epoch != recovery_epoch_) return;
        RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
        if (ok) {
            slot.recovering = false;
            FlushDeferredReports(ring_id);
            return;
        }
        if (attempt + 1 >= kRecoveryMaxAttempts) {
            slot.recovering = false;
            LOG_ERROR("service_pool")
                << name() << ": ring " << ring_id << " recovery abandoned "
                << "after " << kRecoveryMaxAttempts << " attempts";
            FlushDeferredReports(ring_id);
            return;
        }
        // The redeploy can race a host still mid-reboot; back off and
        // retry (the rotation half is idempotent).
        simulator_->ScheduleAfter(
            kRecoveryRetryDelay, [this, ring_id, failed_ring_index,
                                           attempt, epoch] {
                if (epoch != recovery_epoch_) return;
                AutoRecover(ring_id, failed_ring_index, attempt + 1);
            });
    });
}

void ServicePool::ScheduleDeferredFlush(int ring_id) {
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    // A recovery in flight flushes on completion; only the cooldown
    // needs a timer.
    if (slot.deferred_flush_scheduled || slot.recovering) return;
    const Time elapsed = simulator_->Now() - slot.last_recovery_done;
    const Time remaining =
        std::max<Time>(kRecoveryCooldown - elapsed, 0);
    slot.deferred_flush_scheduled = true;
    simulator_->ScheduleAfter(remaining, [this, ring_id] {
        rings_[static_cast<std::size_t>(ring_id)].deferred_flush_scheduled =
            false;
        FlushDeferredReports(ring_id);
    });
}

void ServicePool::FlushDeferredReports(int ring_id) {
    RingSlot& slot = rings_[static_cast<std::size_t>(ring_id)];
    if (slot.deferred_positions.empty() || slot.recovering) return;
    if (slot.ever_recovered &&
        simulator_->Now() - slot.last_recovery_done <
            kRecoveryCooldown) {
        ScheduleDeferredFlush(ring_id);
        return;
    }
    while (!slot.deferred_positions.empty()) {
        const int position = slot.deferred_positions.front();
        slot.deferred_positions.erase(slot.deferred_positions.begin());
        if (slot.service->StageAt(position) == rank::PipelineStage::kSpare) {
            // Same-incident duplicate: the recovery already rotated the
            // failed node out and the redeploy reconfigured it.
            continue;
        }
        StartAutoRecovery(ring_id, position, "deferred health report");
        return;
    }
}

void ServicePool::ClearRecoveryBacklog() {
    // Orphan every scheduled retry and pending recovery completion:
    // their epoch no longer matches, so they no-op instead of touching
    // the rings the re-admission is about to redeploy. The recovering
    // flags are cleared here because those orphaned callbacks were the
    // only thing that would have cleared them.
    ++recovery_epoch_;
    for (auto& slot : rings_) {
        slot.recovering = false;
        slot.deferred_positions.clear();
        // A scheduled flush finds the empty list and no-ops; the flag
        // clears itself when it fires.
    }
}

void ServicePool::SetRingAvailable(int ring_id, bool available) {
    rings_[static_cast<std::size_t>(ring_id)].available = available;
    ring_availability_.Publish(available_rings());
}

RankingService::Counters ServicePool::AggregateRingCounters() const {
    RankingService::Counters total;
    for (const auto& slot : rings_) {
        const auto& c = slot.service->counters();
        total.injected += c.injected;
        total.completed += c.completed;
        total.timeouts += c.timeouts;
        total.model_reloads += c.model_reloads;
    }
    return total;
}

void ServicePool::SetObservability(obs::ShardObs* obs) {
    for (auto& slot : rings_) {
        slot.service->SetObservability(obs);
    }
}

}  // namespace catapult::service
