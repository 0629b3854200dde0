#include "service/federation_testbed.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/log.h"

namespace catapult::service {

FederationTestbed::FederationTestbed(Config config)
    : config_(std::move(config)) {
    // The dispatcher's rotation holds 64 pods (its per-query tried-set
    // is a 64-bit mask): a 65th would be built but never attached.
    if (config_.pod_count < 1 || config_.pod_count > 64) {
        FatalMisuse("FederationTestbed: pod_count %d outside [1, 64]",
                    config_.pod_count);
    }
    if (config_.sharding.ring_subshards) {
        if (!config_.sharding.enabled) {
            FatalMisuse("FederationTestbed: sharding.ring_subshards is set "
                        "but sharding.enabled is not");
        }
        // Each ring slice is a 1 x cols torus strip, so a full ring
        // must fit along the column dimension.
        const int cols = config_.pod.fabric.topology.cols();
        if (cols < RankingService::kRingLength) {
            FatalMisuse("FederationTestbed: sharding.ring_subshards needs a "
                        "torus at least one ring wide (cols=%d < ring "
                        "length %d)",
                        cols, RankingService::kRingLength);
        }
        slices_per_pod_ = std::max(1, config_.pod.ring_count);
    }
    coordinator_ = &simulator_;
    if (config_.sharding.enabled) {
        // Lookahead derivation: a query (or completion) crossing the
        // pod boundary pays the front-door network transit plus the
        // pod-edge DMA doorbell/interrupt — the same constants the
        // in-pod shell models use. The epoch is the smaller hop, so
        // no message can land inside the epoch that produced it.
        const Time leg = config_.sharding.front_door_network +
                         config_.pod.fabric.shell.dma.interrupt_latency;
        inject_hop_ =
            config_.sharding.inject_hop > 0 ? config_.sharding.inject_hop
                                            : leg;
        completion_hop_ = config_.sharding.completion_hop > 0
                              ? config_.sharding.completion_hop
                              : leg;
        sim::SimulatorGroup::Config group_config;
        // Shard 0 = coordinator; pod k's slices follow pod-major,
        // slice-minor (see BuildPod).
        group_config.shards = 1 + config_.pod_count * slices_per_pod_;
        group_config.epoch = std::min(inject_hop_, completion_hop_);
        group_config.parallel = config_.sharding.parallel;
        group_config.max_threads = config_.sharding.max_threads;
        group_ = std::make_unique<sim::SimulatorGroup>(group_config);
        coordinator_ = &group_->shard(0);
    }
    if (config_.observability.enabled) {
        // One ShardObs per simulator shard; the whole plane collapses
        // to a single shard when every layer shares one simulator.
        const int obs_shards =
            group_ ? 1 + config_.pod_count * slices_per_pod_ : 1;
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
        bind.inject_hop = inject_hop_;
        bind.completion_hop = completion_hop_;
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
    // Pod `pod_index` is R slices (R = 1 unless ring_subshards). R = 1
    // is the whole pod under the template config. R > 1 splits it into
    // self-contained single-ring slices, each a 1 x cols torus strip;
    // identity is pinned per slice — node base, name prefix, host
    // names, trace-id stride — so the R slices present as one pod
    // (same pod id on telemetry and reports, slice-local node ids
    // remapped into pod node space by the dispatcher's seams) without
    // any layer's names or ids colliding. Sharded, slice r runs on
    // shard 1 + pod_index * R + r; the per-slice seed stream does not
    // depend on the layout, so a pod's internal behavior does not
    // either.
    const int R = slices_per_pod_;
    const int cols = config_.pod.fabric.topology.cols();
    const int pod_nodes = config_.pod.fabric.topology.node_count();
    std::vector<FederatedDispatcher::PodSlice> slices;
    for (int r = 0; r < R; ++r) {
        const int g = pod_index * R + r;  // global slice index
        mgmt::PodContext::Config sc = config_.pod;
        sc.pod_id = pod_index;
        if (g > 0) {
            // De-correlate the slices' fabrics and injectors by a
            // golden-ratio stream split while slice 0 of pod 0 keeps
            // the template seed (single-pod reproducibility).
            sc.seed = config_.pod.seed +
                      0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(g);
        }
        if (config_.pod_count > 1) {
            sc.service.service_name += "/pod" + std::to_string(pod_index);
        }
        if (R > 1) {
            sc.ring_count = 1;
            sc.fabric.topology = fabric::TorusTopology(1, cols);
            sc.fabric.pod_id = pod_index;
            sc.fabric.node_base = pod_index * pod_nodes + r * cols;
            // Built with += in a fresh string: assigning into the copied
            // template trips GCC 12's -Wrestrict false positive.
            const auto slice_name = [&](std::string out, const char* ring) {
                out += std::to_string(pod_index);
                out += ring;
                out += std::to_string(r);
                return out;
            };
            sc.fabric.name_prefix = slice_name("pod", ".ring");
            sc.host_name_prefix = slice_name("p", ".r") + ".srv";
            // Pod-strided then ring-strided, matching the unsliced
            // pool's per-ring stride — cross-slice FDR trace ids never
            // collide.
            sc.service.trace_id_base =
                (static_cast<std::uint64_t>(pod_index) << 48) |
                (static_cast<std::uint64_t>(r) << 40);
            sc.service.service_name += "/ring" + std::to_string(r);
        }
        const int shard = group_ ? 1 + g : -1;
        sc.shard_index = shard;
        if (plane_) sc.obs = plane_->shard(group_ ? shard : 0);
        pods_.push_back(std::make_unique<mgmt::PodContext>(
            group_ ? &group_->shard(shard) : &simulator_, std::move(sc)));
        slices.push_back({pods_.back().get(), shard, r * cols});
    }
    if (group_) {
        dispatcher_->AttachPodSlices(slices);
    } else {
        dispatcher_->AttachPod(pods_.back().get());
    }
}

void FederationTestbed::InstallObservability() {
    // Cadence driver: the group's epoch barrier is the race-free merge
    // point (workers provably idle on the driving thread); the classic
    // single simulator self-drives with a daemon tick instead.
    if (group_) {
        group_->SetBarrierHook(
            [p = plane_.get()](Time frontier) { p->AdvanceTo(frontier); });
    } else {
        plane_->AttachSimulator(&simulator_);
    }
    // Pull-collector mirroring pre-existing layer counters into the
    // merged registry at every merge. Absolute writes (Set) keep it
    // idempotent; every value here is simulated-time-deterministic
    // except the wall-clock ones, registered volatile so the
    // deterministic export stays mode-identical.
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
            // Ring sub-shard slices present as one pod: sum across them.
            std::uint64_t dispatched = 0, recoveries = 0, injected = 0,
                          completed = 0, timeouts = 0, investigations = 0,
                          fdr_postmortem = 0;
            std::int64_t rings_available = 0;
            for (int r = 0; r < slices_per_pod_; ++r) {
                mgmt::PodContext& p = pod_slice(k, r);
                const auto& pc = p.pool().counters();
                dispatched += pc.dispatched;
                recoveries += pc.recoveries;
                rings_available += p.pool().available_rings();
                const auto rc = p.pool().AggregateRingCounters();
                injected += rc.injected;
                completed += rc.completed;
                timeouts += rc.timeouts;
                const auto& hc = p.health_monitor().counters();
                investigations += hc.investigations;
                fdr_postmortem += hc.fdr_postmortem_records;
            }
            std::string prefix = "pod";
            prefix += std::to_string(k);
            prefix += ".";
            reg.counter(prefix + "dispatched")->Set(dispatched);
            reg.counter(prefix + "recoveries")->Set(recoveries);
            reg.counter(prefix + "injected")->Set(injected);
            reg.counter(prefix + "completed")->Set(completed);
            reg.counter(prefix + "timeouts")->Set(timeouts);
            reg.counter(prefix + "investigations")->Set(investigations);
            reg.counter(prefix + "fdr_postmortem_records")
                ->Set(fdr_postmortem);
            reg.gauge(prefix + "rings_available")->Set(rings_available);
        }
        if (group_ != nullptr) {
            // Executor profiling. Round/message/frontier counts and
            // mailbox high-water marks are mode-identical (the rounds
            // are); per-worker item/wall-time split depends on the
            // work-stealing interleave, so those are volatile.
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
            for (std::size_t e = 0; e < prof.executors.size(); ++e) {
                const auto& ex = prof.executors[e];
                std::string prefix = "exec.worker";
                prefix += std::to_string(e);
                prefix += ".";
                reg.counter(prefix + "items", true)->Set(ex.items);
                reg.counter(prefix + "busy_ns", true)->Set(ex.busy_ns);
                reg.counter(prefix + "wait_ns", true)->Set(ex.wait_ns);
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
    // Every slice runs the service sequence on its own simulator; the
    // pod re-enters the dispatcher's rotation only once every slice
    // redeployed. The join lives on the coordinator: sharded, one hop
    // out carries the mgmt-plane command to each slice's shard and one
    // hop back carries its redeploy verdict, and the coordinator's
    // canonical drain keeps the join single-writer. Unsharded, nothing
    // hops: the sequence and its verdict run on the shared simulator.
    struct Join {
        int pending = 0;
        bool all_ok = true;
        std::function<void(bool)> on_done;
    };
    auto join = std::make_shared<Join>();
    join->pending = slices_per_pod_;
    join->on_done = std::move(on_done);
    auto verdict = [this, index, join](bool ok) {
        if (!ok) join->all_ok = false;
        if (--join->pending > 0) return;
        if (join->all_ok) dispatcher_->ReadmitPod(index);
        if (join->on_done) join->on_done(join->all_ok);
    };
    for (int r = 0; r < slices_per_pod_; ++r) {
        mgmt::PodContext* slice = &pod_slice(index, r);
        if (!group_) {
            ServiceAndRedeploy(*slice, verdict);
            continue;
        }
        const int shard = slice->shard_index();
        group_->Post(0, shard, coordinator_->Now() + inject_hop_,
                     [this, slice, shard, verdict] {
                         ServiceAndRedeploy(*slice, [this, shard,
                                                     verdict](bool ok) {
                             group_->Post(shard, 0,
                                          group_->shard(shard).Now() +
                                              completion_hop_,
                                          [verdict, ok] { verdict(ok); });
                         });
                     });
    }
}

bool FederationTestbed::DeployAndSettle() {
    // Pods deploy concurrently: each owns its Mapping Manager, so only
    // rings within one pod serialize. Atomics because in sharded
    // parallel mode each pod's completion fires on its shard's worker
    // thread; the values are only read after Run() returns.
    std::atomic<int> pending{static_cast<int>(pods_.size())};
    std::atomic<bool> all_ok{true};
    for (auto& pod : pods_) {
        pod->Deploy([&](bool ok) {
            if (!ok) all_ok.store(false, std::memory_order_relaxed);
            pending.fetch_sub(1, std::memory_order_relaxed);
        });
    }
    Run();
    return all_ok.load() && pending.load() == 0;
}

}  // namespace catapult::service
