#include "service/federation_testbed.h"

#include <algorithm>
#include <string>

#include "common/log.h"

namespace catapult::service {

namespace {

/**
 * A query (or completion) crossing the pod boundary of a sharded
 * federation pays the coordinator <-> pod network leg plus the pod-edge
 * DMA doorbell/interrupt — the same constants the in-pod shell models
 * use. It is the shards' epoch (lookahead) too, so no message can land
 * inside the epoch that produced it.
 */
constexpr Time kCrossPodHop =
    Microseconds(7) + shell::DmaEngine::kInterruptLatency;

}  // namespace

FederationTestbed::FederationTestbed(Config config)
    : config_(std::move(config)) {
    // The dispatcher's rotation holds 64 pods (its per-query tried-set
    // is a 64-bit mask): a 65th would be built but never attached.
    if (config_.pod_count < 1 || config_.pod_count > 64) {
        FatalMisuse("FederationTestbed: pod_count %d outside [1, 64]",
                    config_.pod_count);
    }
    if (config_.sharding.parallel) {
        FatalMisuse("FederationTestbed: sharding.parallel is set; shards "
                    "run lock-step on the calling thread, so the field "
                    "accepts only false");
    }
    coordinator_ = &simulator_;
    if (config_.sharding.enabled) {
        sim::SimulatorGroup::Config group_config;
        // Shard 0 = coordinator; pod k runs on shard 1 + k.
        group_config.shards = 1 + config_.pod_count;
        group_config.epoch = kCrossPodHop;
        group_ = std::make_unique<sim::SimulatorGroup>(group_config);
        coordinator_ = &group_->shard(0);
    }
    if (config_.observability.enabled) {
        // One ShardObs per simulator shard; the whole plane collapses
        // to a single shard when every layer shares one simulator.
        const int obs_shards = group_ ? 1 + config_.pod_count : 1;
        plane_ = std::make_unique<obs::ObservabilityPlane>(
            obs_shards, config_.observability);
    }
    dispatcher_ = std::make_unique<FederatedDispatcher>(coordinator_,
                                                        config_.dispatcher);
    if (plane_) dispatcher_->SetObservability(plane_->shard(0));
    if (group_) {
        FederatedDispatcher::ShardBinding bind;
        bind.group = group_.get();
        bind.coordinator_shard = 0;
        bind.inject_hop = kCrossPodHop;
        bind.completion_hop = kCrossPodHop;
        dispatcher_->BindShardGroup(bind);
    }
    for (int k = 0; k < config_.pod_count; ++k) BuildPod(k);
    SessionFrontEnd::Config fe_config = config_.front_end;
    fe_config.driver_threads = config_.pod.driver_threads;
    front_end_ = std::make_unique<SessionFrontEnd>(coordinator_,
                                                   dispatcher_.get(),
                                                   fe_config);
    if (plane_) {
        front_end_->SetObservability(plane_->shard(0));
        InstallObservability();
    }
}

void FederationTestbed::BuildPod(int pod_index) {
    // Pod `pod_index` runs the template config under its own identity.
    // Sharded, it runs on shard 1 + pod_index; the per-pod seed stream
    // does not depend on the layout, so a pod's internal behavior does
    // not either.
    mgmt::PodContext::Config pc = config_.pod;
    pc.pod_id = pod_index;
    if (pod_index > 0) {
        // De-correlate the pods' fabrics and injectors by a
        // golden-ratio stream split while pod 0 keeps the template
        // seed (single-pod reproducibility).
        pc.seed = config_.pod.seed + 0x9E3779B97F4A7C15ull *
                                         static_cast<std::uint64_t>(pod_index);
    }
    if (config_.pod_count > 1) {
        pc.service.service_name += "/pod" + std::to_string(pod_index);
    }
    const int shard = group_ ? 1 + pod_index : -1;
    pc.shard_index = shard;
    if (plane_) pc.obs = plane_->shard(group_ ? shard : 0);
    pods_.push_back(std::make_unique<mgmt::PodContext>(
        group_ ? &group_->shard(shard) : &simulator_, std::move(pc)));
    if (group_) {
        dispatcher_->AttachShardedPod(pods_.back().get(), shard);
    } else {
        dispatcher_->AttachPod(pods_.back().get());
    }
}

void FederationTestbed::InstallObservability() {
    // Cadence driver: the group's epoch barrier is the merge point
    // (every mailbox drained); the classic single simulator self-drives
    // with a daemon tick instead.
    if (group_) {
        group_->SetBarrierHook(
            [p = plane_.get()](Time frontier) { p->AdvanceTo(frontier); });
    } else {
        plane_->AttachSimulator(&simulator_);
    }
    // Pull-collector mirroring pre-existing layer counters into the
    // merged registry at every merge. Absolute writes (Set) keep it
    // idempotent; every value here is simulated-time-deterministic
    // except the wall-clock one, registered volatile so the
    // deterministic export stays reproducible.
    plane_->AddCollector([this](obs::MetricRegistry& reg) {
        const auto& d = dispatcher_->counters();
        reg.counter("federation.accepted")->Set(d.accepted);
        reg.counter("federation.rejected")->Set(d.rejected);
        reg.counter("federation.completed")->Set(d.completed);
        reg.counter("federation.lost")->Set(d.lost);
        reg.counter("federation.failovers")->Set(d.failovers);
        reg.counter("federation.affinity_hits")->Set(d.affinity_hits);
        reg.counter("federation.breaker_trips")->Set(d.breaker_trips);
        reg.counter("federation.sheds")->Set(d.sheds);
        reg.counter("federation.readmissions")->Set(d.readmissions);
        const auto& s = front_end_->scatter().counters();
        reg.counter("frontend.gathers_submitted")->Set(s.submitted);
        reg.counter("frontend.gathers_delivered")->Set(s.delivered);
        reg.counter("frontend.gathers_partial")->Set(s.partial);
        reg.counter("frontend.docs_scattered")->Set(s.docs_scattered);
        reg.counter("frontend.docs_answered")->Set(s.docs_answered);
        reg.counter("frontend.docs_failed")->Set(s.docs_failed);
        reg.counter("frontend.stragglers")->Set(s.stragglers);
        reg.counter("frontend.merges")->Set(s.merges);
        reg.counter("frontend.merge_wall_ns", true)->Set(s.merge_wall_ns);
        const auto& fe = front_end_->counters();
        reg.counter("frontend.sessions_opened")->Set(fe.sessions_opened);
        reg.counter("frontend.sessions_closed")->Set(fe.sessions_closed);
        reg.counter("frontend.submitted")->Set(fe.submitted);
        reg.counter("frontend.refused")->Set(fe.refused);
        for (int k = 0; k < pod_count(); ++k) {
            mgmt::PodContext& p = pod(k);
            const auto& pc = p.pool().counters();
            const auto rc = p.pool().AggregateRingCounters();
            const auto& hc = p.health_monitor().counters();
            std::string prefix = "pod";
            prefix += std::to_string(k);
            prefix += ".";
            reg.counter(prefix + "dispatched")->Set(pc.dispatched);
            reg.counter(prefix + "recoveries")->Set(pc.recoveries);
            reg.counter(prefix + "injected")->Set(rc.injected);
            reg.counter(prefix + "completed")->Set(rc.completed);
            reg.counter(prefix + "timeouts")->Set(rc.timeouts);
            reg.counter(prefix + "investigations")->Set(hc.investigations);
            reg.counter(prefix + "fdr_postmortem_records")
                ->Set(hc.fdr_postmortem_records);
            reg.gauge(prefix + "rings_available")
                ->Set(p.pool().available_rings());
        }
        if (group_ != nullptr) {
            // Round schedule: round/message/frontier counts and mailbox
            // high-water marks.
            const auto& prof = group_->profile();
            reg.counter("exec.rounds")->Set(prof.rounds);
            reg.counter("exec.round_items")->Set(prof.round_items);
            reg.counter("exec.messages_drained")->Set(prof.messages_drained);
            reg.gauge("exec.frontier_advance_ps")
                ->Set(prof.frontier_advance);
            const int n = group_->shard_count();
            for (int f = 0; f < n; ++f) {
                for (int t = 0; t < n; ++t) {
                    const std::uint32_t hwm = prof.edge_mailbox_hwm
                        [static_cast<std::size_t>(f * n + t)];
                    if (hwm == 0) continue;
                    std::string name = "exec.mailbox_hwm.";
                    name += std::to_string(f);
                    name += ".";
                    name += std::to_string(t);
                    reg.gauge(name, obs::GaugeMerge::kMax)
                        ->Set(static_cast<std::int64_t>(hwm));
                }
            }
        }
    });
}

void FederationTestbed::ServiceAndRedeploy(
    mgmt::PodContext& pod, std::function<void(bool)> on_deployed) {
    // 1. Field service: every host repaired and power-cycled. The
    //    servicing runs concurrently across the pod's machines; the
    //    rest of the sequence waits for the last one.
    auto pending = std::make_shared<int>(static_cast<int>(pod.hosts().size()));
    auto resume = [&pod, on_deployed = std::move(on_deployed)]() mutable {
        // 2. The health plane forgives: every node was just field-
        //    serviced, so every watchdog grudge goes — dead flags
        //    (heartbeat coverage resumes), but also miss streaks,
        //    cooldowns and parked critical suspicions on nodes that
        //    had not escalated to dead yet; a leftover suspicion would
        //    investigate freshly replaced hardware and re-flag it. The
        //    pool's deferred blackout-era reports are dropped for the
        //    same reason.
        for (int node = 0; node < pod.fabric().node_count(); ++node) {
            pod.health_monitor().MarkNodeServiced(node);
        }
        pod.pool().ClearRecoveryBacklog();
        // 3. The forecaster forgets: blackout-era fault rates must not
        //    poison the serviced pod's fresh score (cold-start grace
        //    restarts, so the pod cannot be re-shed on a stale trend).
        pod.forecaster().ResetForReadmission();
        // 4. Redeploy the rings onto the serviced hardware.
        pod.pool().Deploy(std::move(on_deployed));
    };
    for (host::HostServer* host : pod.hosts()) {
        host->Service([pending, resume]() mutable {
            if (--*pending == 0) resume();
        });
    }
}

void FederationTestbed::ReattachPod(int index,
                                    std::function<void(bool)> on_done) {
    // The pod runs the service sequence on its own simulator and
    // re-enters the dispatcher's rotation once it redeployed. The
    // verdict lands on the coordinator: sharded, one hop out carries
    // the mgmt-plane command to the pod's shard and one hop back
    // carries its redeploy verdict. Unsharded, nothing hops: the
    // sequence and its verdict run on the shared simulator.
    auto verdict = [this, index, on_done = std::move(on_done)](bool ok) {
        if (ok) dispatcher_->ReadmitPod(index);
        if (on_done) on_done(ok);
    };
    mgmt::PodContext* target = &pod(index);
    if (!group_) {
        ServiceAndRedeploy(*target, std::move(verdict));
        return;
    }
    const int shard = target->shard_index();
    group_->Post(0, shard, coordinator_->Now() + kCrossPodHop,
                 [this, target, shard, verdict] {
                     ServiceAndRedeploy(*target, [this, shard,
                                                  verdict](bool ok) {
                         group_->Post(shard, 0,
                                      group_->shard(shard).Now() +
                                          kCrossPodHop,
                                      [verdict, ok] { verdict(ok); });
                     });
                 });
}

bool FederationTestbed::DeployAndSettle() {
    // Pods deploy concurrently: each owns its Mapping Manager, so only
    // rings within one pod serialize.
    int pending = pod_count();
    bool all_ok = true;
    for (auto& pod : pods_) {
        pod->Deploy([&](bool ok) {
            if (!ok) all_ok = false;
            --pending;
        });
    }
    Run();
    return all_ok && pending == 0;
}

}  // namespace catapult::service
