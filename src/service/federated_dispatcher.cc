#include "service/federated_dispatcher.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>

#include "common/log.h"
#include "common/object_pool.h"

namespace catapult::service {

const char* ToString(FederationPolicy policy) {
    switch (policy) {
      case FederationPolicy::kRoundRobin: return "round_robin";
      case FederationPolicy::kLeastInFlight: return "least_in_flight";
      case FederationPolicy::kModelAffinity: return "model_affinity";
      case FederationPolicy::kScoreWeighted: return "score_weighted";
    }
    return "?";
}

FederatedDispatcher::FederatedDispatcher(sim::Simulator* simulator,
                                         Config config)
    : simulator_(simulator), config_(config) {
    if (simulator_ == nullptr) FatalMisuse("FederatedDispatcher: null simulator");
    if (config_.max_retries < 0) {
        FatalMisuse("FederatedDispatcher: max_retries %d < 0",
                    config_.max_retries);
    }
}

void FederatedDispatcher::SetObservability(obs::ShardObs* obs) {
    obs_ = obs;
    obs_latency_us_ =
        obs_ ? obs_->registry.histogram("federation.query_latency_us")
             : nullptr;
}

FederatedDispatcher::~FederatedDispatcher() {
    for (auto& slot : pods_) {
        slot.context->health_monitor().RemoveFailureSubscriber(
            slot.health_subscription);
        if (slot.shard >= 0) {
            slot.context->pool().set_on_rings_available_changed(nullptr);
        }
    }
}

void FederatedDispatcher::BindShardGroup(const ShardBinding& binding) {
    if (!pods_.empty()) {
        FatalMisuse("FederatedDispatcher::BindShardGroup: called after %d "
                    "pod attach(es); bind before the first attach",
                    pod_count());
    }
    if (binding.group == nullptr) {
        FatalMisuse("FederatedDispatcher::BindShardGroup: null group");
    }
    if (binding.coordinator_shard < 0 ||
        binding.coordinator_shard >= binding.group->shard_count()) {
        FatalMisuse("FederatedDispatcher::BindShardGroup: coordinator shard "
                    "%d outside [0, %d)",
                    binding.coordinator_shard, binding.group->shard_count());
    }
    // The per-edge lookahead contract replaces the old hop >= epoch
    // check: each attach declares its actual hop latencies as the
    // group's edge lookaheads (DeclareShardEdges), so hops narrower
    // than the uniform default are legal — the group's bounds simply
    // tighten on those edges instead of the whole federation slowing.
    if (binding.inject_hop <= 0 || binding.completion_hop <= 0) {
        FatalMisuse("FederatedDispatcher::BindShardGroup: hops must be "
                    "positive (inject_hop=%lld ps, completion_hop=%lld ps)",
                    static_cast<long long>(binding.inject_hop),
                    static_cast<long long>(binding.completion_hop));
    }
    binding_ = binding;
}

void FederatedDispatcher::DeclareShardEdges(const char* caller, int shard) {
    sim::SimulatorGroup* group = binding_.group;
    const int coord = binding_.coordinator_shard;
    // The real hop costs, declared at attach and re-declared on
    // re-admission. The group refuses a hop narrower than an edge it
    // already ran with (someone widened the edge through group() after
    // a run): honoring it now could deliver into a shard's past.
    const auto declare = [group, caller](int from, int to, Time hop) {
        if (group->SetEdgeLookahead(from, to, hop)) return;
        FatalMisuse("FederatedDispatcher::%s: hop %lld ps on edge %d->%d is "
                    "narrower than the %lld ps the group already ran with",
                    caller, static_cast<long long>(hop), from, to,
                    static_cast<long long>(group->edge_lookahead(from, to)));
    };
    declare(coord, shard, binding_.inject_hop);
    declare(shard, coord, binding_.completion_hop);
    // Pods never message each other directly — everything crosses the
    // coordinator — so those edges are unreachable, and a shard's
    // advance is bounded only by its real inbound paths.
    for (const int other : attached_shards_) {
        if (other == shard) return;  // re-assertion (ReadmitPod)
        group->SetEdgeLookahead(shard, other,
                                sim::SimulatorGroup::kUnreachable);
        group->SetEdgeLookahead(other, shard,
                                sim::SimulatorGroup::kUnreachable);
    }
    attached_shards_.push_back(shard);
}

int FederatedDispatcher::AttachPod(mgmt::PodContext* pod) {
    assert(pod != nullptr);
    // Direct seams call into dispatcher state synchronously: on a pod
    // shard they would write coordinator state from another shard.
    if (sharded()) {
        FatalMisuse("FederatedDispatcher::AttachPod: dispatcher is bound to "
                    "a shard group (coordinator shard %d); attach through "
                    "AttachShardedPod",
                    binding_.coordinator_shard);
    }
    if (pod_count() >= 64) {
        // The per-query tried-set is a 64-bit mask; a 65th pod would
        // alias bit 0 (shift UB). Enforced in release builds too — the
        // pod is refused, not silently mis-tracked.
        LOG_ERROR("federation")
            << "rotation full: 64 pods per dispatcher; pod "
            << pod->pod_id() << " refused";
        return -1;
    }
    const int index = pod_count();
    PodSlot slot;
    slot.context = pod;
    slot.node_dead.assign(
        static_cast<std::size_t>(pod->fabric().node_count()), 0);
    // The health plane is the fast path for whole-pod loss: once every
    // node of a pod is flagged for manual service the pod can never
    // return without operator action, so the breaker latches open and
    // the pod is skipped without probing — no query has to die to
    // rediscover it. Partial failures stay the pool's business (it
    // drains only the hit ring) and only feed the stats here.
    //
    // The predictive plane: every published score updates the slot and
    // drives the shed/unshed hysteresis. Pods without a running
    // forecaster never publish, so they stay default-healthy here.
    slot.health_subscription = pod->health_monitor().AddFailureSubscriber(
        [this, index](const mgmt::MachineReport& report) {
            ApplyMachineReport(index, report);
        });
    slot.score_subscription = pod->health_feed().SubscribeScoped(
        [this, index](const mgmt::HealthScoreSample& sample) {
            OnHealthSample(index, sample);
        });
    pods_.push_back(std::move(slot));
    return index;
}

int FederatedDispatcher::AttachShardedPod(mgmt::PodContext* pod,
                                          int shard) {
    if (!sharded()) {
        FatalMisuse("FederatedDispatcher::AttachShardedPod: no shard group "
                    "bound; call BindShardGroup first");
    }
    if (pod == nullptr) {
        FatalMisuse("FederatedDispatcher::AttachShardedPod: null pod");
    }
    const int shards = binding_.group->shard_count();
    if (shard < 0 || shard >= shards || shard == binding_.coordinator_shard) {
        FatalMisuse("FederatedDispatcher::AttachShardedPod: pod on shard %d; "
                    "pod shards are [0, %d) except the coordinator's %d",
                    shard, shards, binding_.coordinator_shard);
    }
    if (pod_count() >= 64) {
        LOG_ERROR("federation")
            << "rotation full: 64 pods per dispatcher; pod "
            << pod->pod_id() << " refused";
        return -1;
    }
    const int index = pod_count();
    PodSlot slot;
    slot.context = pod;
    slot.shard = shard;
    slot.rings_view = pod->pool().available_rings();
    slot.node_dead.assign(
        static_cast<std::size_t>(pod->fabric().node_count()), 0);
    DeclareShardEdges("AttachShardedPod", shard);
    sim::SimulatorGroup* group = binding_.group;
    const int coord = binding_.coordinator_shard;
    const Time hop = binding_.completion_hop;
    // The seams fire on the pod's shard and must not touch dispatcher
    // state there: each ships a plain copy of its payload one completion
    // hop to the coordinator, the return path completions take.
    slot.health_subscription = pod->health_monitor().AddFailureSubscriber(
        [this, group, coord, hop, index,
         shard](const mgmt::MachineReport& report) {
            group->Post(shard, coord, group->shard(shard).Now() + hop,
                        [this, index, report] {
                            ApplyMachineReport(index, report);
                        });
        });
    // Daemon: periodic score publishing must not keep the group's Run()
    // alive once foreground work drains.
    slot.score_subscription = pod->health_feed().SubscribeScoped(
        [this, group, coord, hop, index,
         shard](const mgmt::HealthScoreSample& sample) {
            group->Post(shard, coord, group->shard(shard).Now() + hop,
                        [this, index, sample] {
                            OnHealthSample(index, sample);
                        },
                        sim::EventPriority::kDeliver, /*daemon=*/true);
        });
    // Ring availability: seeded above, then pushed on every rotation
    // change — one hop stale by construction, the optimistic-admission
    // window the pod-side reject path covers.
    pod->pool().set_on_rings_available_changed(
        [this, group, coord, hop, index, shard](int rings) {
            group->Post(shard, coord, group->shard(shard).Now() + hop,
                        [this, index, rings] {
                            pods_[static_cast<std::size_t>(index)]
                                .rings_view = rings;
                        });
        });
    pods_.push_back(std::move(slot));
    return index;
}

void FederatedDispatcher::ApplyMachineReport(
    int pod_index, const mgmt::MachineReport& report) {
    PodSlot& hit = pods_[static_cast<std::size_t>(pod_index)];
    ++hit.fault_reports;
    if (report.fault != mgmt::FaultType::kUnresponsiveFatal) return;
    // Distinct nodes only: a re-investigation of an already-fatal node
    // emits a duplicate report, which must not push a partially-alive
    // pod over the latch threshold.
    if (report.node < 0 ||
        report.node >= static_cast<int>(hit.node_dead.size()) ||
        hit.node_dead[static_cast<std::size_t>(report.node)] != 0) {
        return;
    }
    hit.node_dead[static_cast<std::size_t>(report.node)] = 1;
    ++hit.dead_nodes;
    if (hit.dead_nodes >= static_cast<int>(hit.node_dead.size())) {
        if (simulator_->Now() >= hit.breaker_open_until) {
            ++counters_.breaker_trips;
        }
        hit.breaker_open_until = std::numeric_limits<Time>::max();
        LOG_WARN("federation")
            << "pod " << hit.context->pod_id()
            << " lost (every node fatal); latched out of rotation";
    }
}

void FederatedDispatcher::OnHealthSample(
    int pod_index, const mgmt::HealthScoreSample& sample) {
    PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    slot.health_score = sample.score;
    slot.health_band = sample.band;
    // Cold-start grace: a pod still warming up (fresh attach or fresh
    // re-admission) is never shed on a half-filled trend window.
    if (sample.band == mgmt::HealthBand::kWarmingUp) return;
    if (!slot.shed && sample.score < config_.shed_floor) {
        slot.shed = true;
        ++shed_pod_count_;
        ++slot.stat_shed_transitions;
        ++counters_.sheds;
        LOG_WARN("federation")
            << "pod " << slot.context->pod_id() << " shed (score "
            << sample.score << " < floor " << config_.shed_floor
            << "); probing one query at a time";
    } else if (slot.shed && sample.score >= config_.shed_exit) {
        // Hysteresis: rejoin only once the score clears the exit
        // threshold, so a score hovering at the floor cannot flap the
        // pod in and out of rotation.
        slot.shed = false;
        --shed_pod_count_;
        LOG_INFO("federation")
            << "pod " << slot.context->pod_id()
            << " recovered past shed hysteresis (score " << sample.score
            << " >= " << config_.shed_exit << "); back in rotation";
    }
}

void FederatedDispatcher::ReadmitPod(int index) {
    PodSlot& slot = pods_[static_cast<std::size_t>(index)];
    const Time now = simulator_->Now();
    // Re-declare the pod's edge lookaheads: servicing must not have
    // shortened any hop the group already ran with (the group rejects
    // a narrowed edge; widening or re-stating the same hop is a no-op).
    if (slot.shard >= 0) DeclareShardEdges("ReadmitPod", slot.shard);
    // Breaker reset, fatal latch included: the dead-node ledger
    // restarts from zero, so a fresh fatal fault on the serviced pod
    // re-counts toward a new latch instead of inheriting the old one.
    slot.breaker_open_until = 0;
    slot.breaker_opened_at = now;  // pre-readmission stragglers ignored
    slot.failure_streak = 0;
    slot.probe_in_flight = false;
    std::fill(slot.node_dead.begin(), slot.node_dead.end(), 0);
    slot.dead_nodes = 0;
    if (slot.shed) --shed_pod_count_;
    slot.shed = false;
    slot.health_score = 1.0;
    slot.health_band = mgmt::HealthBand::kWarmingUp;
    slot.warmup_start = now;
    slot.warmup_until = now + config_.readmission_warmup;
    ++slot.stat_readmitted;
    ++counters_.readmissions;
    LOG_INFO("federation")
        << "pod " << slot.context->pod_id()
        << " re-admitted; warm-up ramp "
        << ToMicroseconds(config_.readmission_warmup) << " us";
}

FederatedDispatcher::PodStats FederatedDispatcher::pod_stats(
    int index) const {
    const PodSlot& slot = pods_[static_cast<std::size_t>(index)];
    PodStats stats;
    stats.in_flight = slot.in_flight;
    stats.eligible = Eligible(slot);
    stats.shed = slot.shed;
    stats.health_score = slot.health_score;
    stats.band = slot.health_band;
    stats.shed_queries = slot.stat_shed_queries;
    stats.shed_transitions = slot.stat_shed_transitions;
    stats.rejected = slot.stat_rejected;
    stats.readmitted = slot.stat_readmitted;
    stats.fault_reports = slot.fault_reports;
    stats.dead_nodes = slot.dead_nodes;
    return stats;
}

bool FederatedDispatcher::Eligible(const PodSlot& slot) const {
    // Breaker first: the fatal-pod latch must win even over a
    // stale-good health score (a forecaster that stopped publishing —
    // or never ran — leaves score 1.0 behind).
    if (simulator_->Now() < slot.breaker_open_until) return false;
    // Probation expired but the breaker has not closed yet: the pod is
    // half-open and admits exactly one probe query at a time — the
    // full traffic share returns only once a probe succeeds.
    if (slot.breaker_open_until != 0 && slot.probe_in_flight) return false;
    // Proactively shed by the predictive plane: out of the normal
    // rotation (PickShedProbe trickles one query at a time through).
    if (slot.shed) return false;
    int cap = config_.max_in_flight_per_pod;
    if (cap > 0) {
        // Graceful shed-before-failure: a declining pod's admission
        // cap drains with its score — in every band past the grace
        // window, so a Critical-but-unshed pod never gets a *larger*
        // cap than a Degraded one — and a freshly re-admitted pod's
        // cap ramps up with its warm-up, so pressure moves off (or
        // back onto) a pod gradually instead of at the breaker's edge.
        if (slot.health_band != mgmt::HealthBand::kWarmingUp) {
            cap = std::max(
                1, static_cast<int>(static_cast<double>(cap) *
                                    slot.health_score));
        }
        cap = std::max(1, static_cast<int>(static_cast<double>(cap) *
                                           WarmupRamp(slot)));
        if (slot.in_flight >= cap) return false;
    }
    // A sharded pod reads the pushed availability proxy — its pool
    // lives on another shard and must not be touched synchronously.
    if (slot.shard >= 0) return slot.rings_view > 0;
    return slot.context->pool().available_rings() > 0;
}

double FederatedDispatcher::WarmupRamp(const PodSlot& slot) const {
    // Linear re-admission ramp from the configured floor to full over
    // [warmup_start, warmup_until); 1.0 outside the window.
    const Time now = simulator_->Now();
    if (now >= slot.warmup_until || slot.warmup_until <= slot.warmup_start) {
        return 1.0;
    }
    const double ramp =
        static_cast<double>(now - slot.warmup_start) /
        static_cast<double>(slot.warmup_until - slot.warmup_start);
    return config_.warmup_weight_floor +
           (1.0 - config_.warmup_weight_floor) * ramp;
}

double FederatedDispatcher::EffectiveWeight(const PodSlot& slot) const {
    // A warming-up pod has no verdict yet and weighs as healthy; a
    // banded pod weighs by its score, floored so a degraded-but-unshed
    // pod still sees trickle traffic (the signal the breaker and the
    // forecaster both need).
    const double weight = slot.health_band == mgmt::HealthBand::kWarmingUp
                              ? 1.0
                              : std::max(slot.health_score, 0.05);
    return weight * WarmupRamp(slot);
}

bool FederatedDispatcher::pod_eligible(int index) const {
    return Eligible(pods_[static_cast<std::size_t>(index)]);
}

int FederatedDispatcher::PickPod(std::uint32_t model_id,
                                 std::uint64_t tried) {
    last_wrr_debit_ = 0.0;  // only the WRR branch charges credit
    const int n = pod_count();
    if (n == 0) return -1;
    const auto skipped = [tried](int i) {
        return (tried >> static_cast<unsigned>(i)) & 1u;
    };

    if (config_.policy == FederationPolicy::kModelAffinity) {
        // Home pod by model hash: every query for one model lands on
        // one pod, so the federation's pods cache disjoint model
        // working sets and cross-pod reload churn drops. Failover (or
        // an ineligible home) falls back to least-in-flight below.
        const int home = static_cast<int>(model_id % static_cast<std::uint32_t>(n));
        if (!skipped(home) && Eligible(pods_[static_cast<std::size_t>(home)])) {
            ++counters_.affinity_hits;
            return home;
        }
    }

    if (config_.policy == FederationPolicy::kRoundRobin) {
        for (int step = 0; step < n; ++step) {
            const std::size_t at = (rr_cursor_ + static_cast<std::size_t>(step)) %
                                   static_cast<std::size_t>(n);
            if (skipped(static_cast<int>(at))) continue;
            if (Eligible(pods_[at])) {
                rr_cursor_ = at + 1;
                return static_cast<int>(at);
            }
        }
        return PickShedProbe(tried);
    }

    if (config_.policy == FederationPolicy::kScoreWeighted) {
        // Smooth weighted round-robin (deterministic, no RNG): every
        // eligible pod accrues credit equal to its weight, the richest
        // pod wins and pays the round's total back — over time each
        // pod's share converges to weight / sum(weights), without the
        // bursts a quantized scheme would produce. The health score is
        // a *trend* signal and lags a fresh failure by a window, so
        // the instantaneous weight also divides by outstanding load:
        // a pod whose queries have stopped returning (in-flight piling
        // up) loses share immediately, before the forecaster has seen
        // enough to shed it — while an idle warming-up pod still gets
        // its guaranteed ramp share (credit accrual cannot starve).
        int best = -1;
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
            if (skipped(i)) continue;
            PodSlot& slot = pods_[static_cast<std::size_t>(i)];
            if (!Eligible(slot)) continue;
            const double weight = EffectiveWeight(slot) /
                                  (1.0 + static_cast<double>(slot.in_flight));
            slot.wrr_credit += weight;
            total += weight;
            if (best < 0 ||
                slot.wrr_credit >
                    pods_[static_cast<std::size_t>(best)].wrr_credit) {
                best = i;
            }
        }
        if (best >= 0) {
            pods_[static_cast<std::size_t>(best)].wrr_credit -= total;
            last_wrr_debit_ = total;
            return best;
        }
        return PickShedProbe(tried);
    }

    // Least-in-flight (also the affinity fallback).
    int best = -1;
    for (int i = 0; i < n; ++i) {
        if (skipped(i)) continue;
        const PodSlot& slot = pods_[static_cast<std::size_t>(i)];
        if (!Eligible(slot)) continue;
        if (best < 0 ||
            slot.in_flight < pods_[static_cast<std::size_t>(best)].in_flight) {
            best = i;
        }
    }
    if (best >= 0) return best;
    return PickShedProbe(tried);
}

void FederatedDispatcher::RefundFailedPick(int pod_index) {
    if (last_wrr_debit_ == 0.0) return;
    pods_[static_cast<std::size_t>(pod_index)].wrr_credit += last_wrr_debit_;
    last_wrr_debit_ = 0.0;
}

int FederatedDispatcher::PickShedProbe(std::uint64_t tried) {
    // No pod is in normal rotation: a shed pod beats a reject. Shed is
    // precautionary (the predictive plane may be wrong, or the fault
    // may have cleared), so admit one probe query at a time — the
    // half-open pattern — rather than writing the capacity off.
    const int n = pod_count();
    for (int i = 0; i < n; ++i) {
        if ((tried >> static_cast<unsigned>(i)) & 1u) continue;
        const PodSlot& slot = pods_[static_cast<std::size_t>(i)];
        if (!slot.shed || slot.probe_in_flight) continue;
        if (simulator_->Now() < slot.breaker_open_until) continue;
        if (config_.max_in_flight_per_pod > 0 &&
            slot.in_flight >= config_.max_in_flight_per_pod) {
            continue;
        }
        const int rings = slot.shard >= 0
                              ? slot.rings_view
                              : slot.context->pool().available_rings();
        if (rings > 0) return i;
    }
    return -1;
}

host::SendStatus FederatedDispatcher::Inject(
    int thread, const rank::CompressedRequest& request,
    std::function<void(const ScoreResult&)> on_complete) {
    return InjectPreferring(-1, thread, request, std::move(on_complete));
}

host::SendStatus FederatedDispatcher::InjectPreferring(
    int preferred_pod, int thread, const rank::CompressedRequest& request,
    std::function<void(const ScoreResult&)> on_complete) {
    // Walk distinct picks until one pod accepts. An immediate pod-level
    // reject (all rings mid-recovery, slot contention on the chosen
    // host) is not a pod failure — just try the next pod this instant.
    // The query context (request copy + callback) is only materialized
    // once a pod is actually eligible, so the admission-cap reject
    // path — the open-loop hot path under overload — stays
    // allocation-free.
    std::shared_ptr<QueryContext> query;
    std::uint64_t tried = 0;
    const auto materialize = [&] {
        if (query) return;
        query = MakePooled<QueryContext>();
        query->thread = thread;
        query->request = request;
        query->on_complete = std::move(on_complete);
        query->accepted_at = simulator_->Now();
        query->retries_left = config_.max_retries;
        query->obs_trace = 0;
        query->obs_span = 0;
        query->obs_parent = 0;
        if (obs_ != nullptr && obs_->tracing()) {
            // Join the caller's timeline (a scatter gather stamped the
            // request) or open a fresh one; pod-side document spans
            // parent on this query span through the forwarded request.
            query->obs_parent = request.query.obs_parent;
            query->obs_trace = request.query.obs_trace != 0
                                   ? request.query.obs_trace
                                   : obs_->tracer.NextTraceId();
            query->obs_span = obs_->tracer.NextSpanId();
            query->request.query.obs_trace = query->obs_trace;
            query->request.query.obs_parent = query->obs_span;
        }
    };
    const auto note_accepted = [&](int pick) {
        ++counters_.accepted;
        // Attribution for the shed stats: this accepted query was
        // routed around every pod currently shed (the numeric
        // evidence benches assert instead of scraping logs). The
        // scan is skipped outright in the healthy steady state.
        if (shed_pod_count_ > 0) {
            for (int i = 0; i < pod_count(); ++i) {
                PodSlot& slot = pods_[static_cast<std::size_t>(i)];
                if (slot.shed && i != pick) ++slot.stat_shed_queries;
            }
        }
    };
    if (preferred_pod >= 0 && preferred_pod < pod_count() &&
        Eligible(pods_[static_cast<std::size_t>(preferred_pod)])) {
        // The caller's placement preference (a scatter shard's assigned
        // pod) beats the policy pick; a refusal falls through to the
        // normal walk. No WRR credit moves here — the preference never
        // went through PickPod, so there is nothing to refund.
        materialize();
        if (TryInject(preferred_pod, query) == host::SendStatus::kOk) {
            note_accepted(preferred_pod);
            return host::SendStatus::kOk;
        }
        tried |= std::uint64_t{1} << static_cast<unsigned>(preferred_pod);
    }
    for (int attempts = 0; attempts < pod_count(); ++attempts) {
        const int pick = PickPod(request.query.model_id, tried);
        if (pick < 0) break;
        materialize();
        if (TryInject(pick, query) == host::SendStatus::kOk) {
            note_accepted(pick);
            return host::SendStatus::kOk;
        }
        RefundFailedPick(pick);
        tried |= std::uint64_t{1} << static_cast<unsigned>(pick);
    }
    ++counters_.rejected;
    return host::SendStatus::kTimeout;
}

std::vector<int> FederatedDispatcher::EligiblePods() const {
    std::vector<int> eligible;
    eligible.reserve(pods_.size());
    for (int i = 0; i < pod_count(); ++i) {
        if (Eligible(pods_[static_cast<std::size_t>(i)])) {
            eligible.push_back(i);
        }
    }
    return eligible;
}

host::SendStatus FederatedDispatcher::TryInject(
    int pod_index, std::shared_ptr<QueryContext> query) {
    PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    const Time injected_at = simulator_->Now();
    // Admission through a half-open breaker — or into a shed pod — is
    // a probe: exactly one at a time (Eligible / PickShedProbe gate
    // the rest), and its outcome alone decides whether the breaker
    // closes or re-opens.
    const bool is_probe = slot.shed ||
                          (slot.breaker_open_until != 0 &&
                           slot.breaker_open_until !=
                               std::numeric_limits<Time>::max() &&
                           injected_at >= slot.breaker_open_until);
    if (slot.shard >= 0) {
        // Mailbox mode: admit optimistically and ship the inject one
        // hop to the pod's shard. The pool's verdict (completion or
        // refusal) comes back a completion hop later; a refusal is
        // handled as a failover, not re-walked synchronously — the
        // admission decision here was made on a one-hop-stale view and
        // that latency is real.
        if (slot.rings_view <= 0) {
            // Every ring is out of rotation on the mirror: synchronous
            // refusal, like a direct-mode pool reject — the caller
            // walks on without spending a retry.
            ++slot.stat_rejected;
            return host::SendStatus::kTimeout;
        }
        const std::uint64_t query_id = next_query_id_++;
        PendingInject pending;
        pending.query = query;
        pending.injected_at = injected_at;
        pending.was_probe = is_probe;
        pending_.emplace(query_id, std::move(pending));
        const int thread = query->thread;
        const rank::CompressedRequest request = query->request;
        binding_.group->Post(
            binding_.coordinator_shard, slot.shard,
            injected_at + binding_.inject_hop,
            [this, pod_index, query_id, thread, request] {
                PodInjectOnShard(pod_index, query_id, thread, request);
            });
        ++slot.in_flight;
        if (is_probe) slot.probe_in_flight = true;
        if (query->obs_span != 0) {
            obs_->tracer.Instant("inject", query->obs_trace, query->obs_span,
                                 0, injected_at, pod_index, /*a2=*/0);
        }
        return host::SendStatus::kOk;
    }
    const auto status = slot.context->pool().Inject(
        query->thread, query->request,
        [this, pod_index, query, injected_at,
         is_probe](const ScoreResult& result) {
            OnPodResult(pod_index, query, injected_at, is_probe, result);
        });
    if (status == host::SendStatus::kOk) {
        ++slot.in_flight;
        if (is_probe) slot.probe_in_flight = true;
        if (query->obs_span != 0) {
            obs_->tracer.Instant("inject", query->obs_trace, query->obs_span,
                                 0, injected_at, pod_index, /*a2=*/-1);
        }
    } else {
        ++slot.stat_rejected;
    }
    return status;
}

void FederatedDispatcher::PodInjectOnShard(
    int pod_index, std::uint64_t query_id, int thread,
    const rank::CompressedRequest& request) {
    // Runs on the pod's shard. Only the pod's immutable identity
    // (context pointer, shard index) may be read here — every mutable
    // dispatcher field belongs to the coordinator shard.
    const PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    mgmt::PodContext* target = slot.context;
    const int shard = slot.shard;
    sim::SimulatorGroup* group = binding_.group;
    const int coord = binding_.coordinator_shard;
    const Time hop = binding_.completion_hop;
    const auto status = target->pool().Inject(
        thread, request,
        [this, group, coord, hop, shard, pod_index,
         query_id](const ScoreResult& result) {
            group->Post(shard, coord, group->shard(shard).Now() + hop,
                        [this, pod_index, query_id, result] {
                            OnShardResult(pod_index, query_id, result);
                        });
        });
    if (status != host::SendStatus::kOk) {
        group->Post(shard, coord, group->shard(shard).Now() + hop,
                    [this, pod_index, query_id] {
                        OnShardReject(pod_index, query_id);
                    });
    }
}

void FederatedDispatcher::OnShardResult(int pod_index, std::uint64_t query_id,
                                        const ScoreResult& result) {
    auto it = pending_.find(query_id);
    if (it == pending_.end()) return;  // torn down mid-flight
    PendingInject pending = std::move(it->second);
    pending_.erase(it);
    OnPodResult(pod_index, std::move(pending.query), pending.injected_at,
                pending.was_probe, result);
}

void FederatedDispatcher::OnShardReject(int pod_index,
                                        std::uint64_t query_id) {
    auto it = pending_.find(query_id);
    if (it == pending_.end()) return;
    PendingInject pending = std::move(it->second);
    pending_.erase(it);
    PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    --slot.in_flight;
    if (pending.was_probe) slot.probe_in_flight = false;
    ++slot.stat_rejected;
    // A pool-level refusal is not a pod failure (no breaker input, as
    // in direct mode) — but unlike direct mode the query was already
    // accepted on the stale view, so the re-route consumes one of its
    // retries instead of continuing the original synchronous walk.
    std::shared_ptr<QueryContext> query = std::move(pending.query);
    if (query->retries_left > 0) {
        --query->retries_left;
        ++counters_.failovers;
        if (query->obs_span != 0) {
            obs_->tracer.Instant("failover", query->obs_trace,
                                 query->obs_span, 0, simulator_->Now(),
                                 pod_index, query->retries_left);
        }
        const int failed_pod = pod_index;
        simulator_->ScheduleAfter(
            config_.retry_backoff, [this, failed_pod, query]() mutable {
                Failover(std::move(query), failed_pod);
            });
        return;
    }
    ScoreResult result;
    result.ok = false;
    Deliver(std::move(query), result);
}

void FederatedDispatcher::OnPodResult(int pod_index,
                                      std::shared_ptr<QueryContext> query,
                                      Time injected_at, bool was_probe,
                                      const ScoreResult& result) {
    PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    --slot.in_flight;
    if (was_probe) slot.probe_in_flight = false;
    if (result.ok) {
        // A success only vouches for the pod's present health when the
        // query was injected after the breaker last opened; a
        // straggler accepted before the trip says nothing and must not
        // cut the probation short.
        if (slot.breaker_open_until == 0 ||
            (slot.breaker_open_until != std::numeric_limits<Time>::max() &&
             injected_at >= slot.breaker_opened_at)) {
            slot.failure_streak = 0;
            if (slot.breaker_open_until != std::numeric_limits<Time>::max()) {
                slot.breaker_open_until = 0;
            }
        }
        // Stamp the pod that actually served the document (failover
        // included) so the scatter-gather tier can attribute answers.
        ScoreResult stamped = result;
        stamped.pod = pod_index;
        Deliver(std::move(query), stamped);
        return;
    }
    RecordFailure(pod_index);
    if (query->retries_left <= 0) {
        Deliver(std::move(query), result);
        return;
    }
    // Zero dropped in-flight retries: the accepted query outlives its
    // pod. Back off a beat (the failed pod's breaker is counting; the
    // survivors need no warm-up) and re-inject away from the failure.
    --query->retries_left;
    ++counters_.failovers;
    if (query->obs_span != 0) {
        obs_->tracer.Instant("failover", query->obs_trace, query->obs_span, 0,
                             simulator_->Now(), pod_index,
                             query->retries_left);
    }
    simulator_->ScheduleAfter(
        config_.retry_backoff, [this, pod_index, query]() mutable {
            Failover(std::move(query), pod_index);
        });
}

void FederatedDispatcher::Failover(std::shared_ptr<QueryContext> query,
                                   int failed_pod) {
    const std::uint64_t failed_bit =
        failed_pod >= 0 && failed_pod < pod_count()
            ? std::uint64_t{1} << static_cast<unsigned>(failed_pod)
            : 0;
    std::uint64_t tried = failed_bit;
    for (int attempts = 0; attempts < pod_count(); ++attempts) {
        int pick = PickPod(query->request.query.model_id, tried);
        if (pick < 0 && (tried & failed_bit) != 0) {
            // Nothing else is eligible; the failed pod itself (a ring
            // may have rejoined) beats losing the query.
            tried &= ~failed_bit;
            pick = PickPod(query->request.query.model_id, tried);
        }
        if (pick < 0) break;
        if (TryInject(pick, query) == host::SendStatus::kOk) return;
        RefundFailedPick(pick);
        tried |= std::uint64_t{1} << static_cast<unsigned>(pick);
    }
    // No pod accepted right now; spend another retry waiting for one
    // to come back, or give up.
    if (query->retries_left > 0) {
        --query->retries_left;
        simulator_->ScheduleAfter(
            config_.retry_backoff, [this, failed_pod, query]() mutable {
                Failover(std::move(query), failed_pod);
            });
        return;
    }
    ScoreResult result;
    result.ok = false;
    Deliver(std::move(query), result);
}

void FederatedDispatcher::RecordFailure(int pod_index) {
    PodSlot& slot = pods_[static_cast<std::size_t>(pod_index)];
    ++slot.failure_streak;
    if (slot.failure_streak < config_.breaker_threshold) return;
    if (slot.breaker_open_until == std::numeric_limits<Time>::max()) return;
    const Time now = simulator_->Now();
    if (now >= slot.breaker_open_until) ++counters_.breaker_trips;
    slot.breaker_open_until = now + config_.breaker_probation;
    slot.breaker_opened_at = now;
}

void FederatedDispatcher::Deliver(std::shared_ptr<QueryContext> query,
                                  ScoreResult result) {
    // User-level latency spans accept to final completion, failover
    // hops included.
    result.latency = simulator_->Now() - query->accepted_at;
    if (result.ok) {
        ++counters_.completed;
    } else {
        ++counters_.lost;
    }
    if (obs_latency_us_ != nullptr) {
        obs_latency_us_->ObserveLatency(result.latency);
    }
    if (query->obs_span != 0) {
        obs_->tracer.Span("query", query->obs_trace, query->obs_span,
                          query->obs_parent, 0, query->accepted_at,
                          simulator_->Now(), result.ok ? 1 : 0, result.pod);
    }
    if (query->on_complete) query->on_complete(result);
}

}  // namespace catapult::service
