// Federated dispatcher: the cross-pod sharding front end.
//
// The paper's bed is 1,632 servers — many 48-node pods — behind one
// ranking service (§2, §4.2): "the Service Manager ... makes the
// ranking service available to the rest of the datacenter". At
// datacenter level that means one query API fronting every pod. This
// dispatcher is that seam: it owns no hardware, it holds 1..N
// mgmt::PodContext instances, picks a pod per query with a pod-aware
// policy (round-robin, least-in-flight, model-affinity), enforces a
// per-pod admission cap (reject, never queue unboundedly), and
// subscribes to every pod's health plane.
//
// Failure handling composes with the pod-level plane: a draining or
// recovering ring simply drops out of its own pool's rotation, and the
// pool-level reject redirects the query here to another pod. A whole
// lost pod trips a per-pod circuit breaker — consecutive query
// failures open it, a probation window later one probe query may
// half-open it — and every accepted query that dies on a failing pod
// is re-injected onto a surviving pod rather than surfaced as a loss:
// an accepted query only fails to its caller when every retry is
// exhausted or no pod survives.
//
// The predictive plane acts *before* any of that: the dispatcher
// subscribes to each pod's HealthScoreFeed (mgmt::HealthForecaster's
// trend over fault-event rates, heartbeat misses, recovery churn and
// dead nodes). Under kScoreWeighted, traffic is proportional to each
// pod's score; a pod whose score sinks below the shed floor is
// proactively shed — out of normal rotation, still probed one query at
// a time — so a degrading pod stops eating retries before its first
// hard failure. ReadmitPod reverses a latch-out for a serviced pod
// with a warm-up ramp, so a rejoining pod earns its share gradually.
//
// A pod attaches direct (AttachPod: it shares the dispatcher's
// simulator — the unsharded reference) or sharded (AttachShardedPod:
// the whole pod on its own SimulatorGroup shard, every seam crossing
// the group's mailboxes with the declared hop latency). A pod is
// sharded exactly when it has a shard. Attach and bind misuse aborts in
// every build.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "host/slot_dma_channel.h"
#include "mgmt/health_forecaster.h"
#include "mgmt/pod_context.h"
#include "obs/observability.h"
#include "service/ranking_service.h"
#include "sim/simulator.h"
#include "sim/simulator_group.h"

namespace catapult::service {

/** How the dispatcher shards queries across pods. */
enum class FederationPolicy {
    kRoundRobin,     ///< Cycle through eligible pods.
    kLeastInFlight,  ///< Pod with the fewest dispatcher-accepted queries.
    kModelAffinity,  ///< model_id hashes to a home pod (disjoint model sets).
    /**
     * Traffic proportional to each pod's published health score
     * (smooth weighted round-robin — deterministic, no RNG): a
     * declining pod's share shrinks as its score does, long before the
     * shed floor or the breaker would act.
     */
    kScoreWeighted,
};

const char* ToString(FederationPolicy policy);

class FederatedDispatcher {
  public:
    struct Config {
        FederationPolicy policy = FederationPolicy::kLeastInFlight;
        /**
         * Admission cap: dispatcher-accepted queries in flight per pod;
         * 0 = unbounded. When every eligible pod is at its cap the
         * query is rejected (open-loop admission control — callers see
         * the reject immediately instead of queueing unboundedly).
         */
        int max_in_flight_per_pod = 0;
        /**
         * Cross-pod failover budget for one accepted query: how many
         * times a query whose pod failed it (timeout, drained rings)
         * is re-injected onto another pod before the caller sees the
         * failure.
         */
        int max_retries = 3;
        /** Back-off before a failed query re-injects elsewhere. */
        Time retry_backoff = Microseconds(50);
        /** Consecutive failures before a pod's breaker opens. */
        int breaker_threshold = 6;
        /** How long an open breaker holds the pod out of rotation. */
        Time breaker_probation = Milliseconds(20);

        // --- Predictive shed (health-score feed) ---------------------

        /**
         * Smoothed health score below which a pod is proactively shed:
         * it leaves the normal rotation (one probe query at a time
         * keeps testing it) before the first hard failure, so traffic
         * moves without burning in-flight retries. Hysteresis: the pod
         * rejoins full rotation only above `shed_exit`. A pod still in
         * its cold-start grace (band WarmingUp) is never shed.
         */
        double shed_floor = 0.30;
        double shed_exit = 0.55;
        /**
         * Re-admission warm-up: a pod hot-attached back into rotation
         * (ReadmitPod) earns traffic gradually — its routing weight
         * (and its admission cap, when configured) ramps from
         * `warmup_weight_floor` to full over this window.
         */
        Time readmission_warmup = Milliseconds(60);
        double warmup_weight_floor = 0.15;
    };

    /** Aborts on a null simulator or `max_retries` < 0. */
    FederatedDispatcher(sim::Simulator* simulator, Config config);

    FederatedDispatcher(const FederatedDispatcher&) = delete;
    FederatedDispatcher& operator=(const FederatedDispatcher&) = delete;

    /** Detaches every health-plane subscription. */
    ~FederatedDispatcher();

    /**
     * Front `pod`: it joins the dispatch rotation and its health plane
     * (confirmed MachineReports) feeds the per-pod failure stats. The
     * pod must outlive this dispatcher. Returns the pod's index in the
     * rotation, or -1 when the rotation is full (64 pods — the
     * per-query tried-set is a 64-bit mask). Aborts on a dispatcher
     * bound to a shard group.
     */
    int AttachPod(mgmt::PodContext* pod);

    /**
     * Sharded-federation binding: the dispatcher lives on a
     * SimulatorGroup coordinator shard and every pod lives on its own
     * shard. Cross-shard traffic — injects, completions, pod-level
     * rejects, health telemetry — travels through the group's mailboxes
     * with these hop latencies. Each pod attach declares its hops as
     * the group's per-edge lookaheads (coordinator <-> pod edges carry
     * the real hop; pod <-> pod edges are unreachable, nothing ever
     * crosses them directly), and ReadmitPod re-declares them. The
     * dispatcher's own `simulator` must be the coordinator shard's.
     * Aborts when called after the first attach, with a null group, a
     * coordinator shard outside the group, or a hop <= 0.
     */
    struct ShardBinding {
        sim::SimulatorGroup* group = nullptr;
        int coordinator_shard = 0;
        /** Coordinator -> pod: front-door network + pod DMA doorbell. */
        Time inject_hop = 0;
        /** Pod -> coordinator: completion interrupt + network. */
        Time completion_hop = 0;
    };
    void BindShardGroup(const ShardBinding& binding);

    /**
     * Attach one sharded pod whose whole stack runs on group shard
     * `shard`, reached only through mailbox messages. Admission is
     * optimistic: ring availability is a pushed mirror, one hop stale,
     * and a pod-side refusal comes back as a failover consuming one
     * retry — the price of the hop a real front door pays. Returns the
     * pod's index in the rotation, or -1 when the rotation is full.
     * Aborts before BindShardGroup, with a null pod, or with a shard
     * outside the group or equal to the coordinator's.
     */
    int AttachShardedPod(mgmt::PodContext* pod, int shard);

    /** True when BindShardGroup routed this dispatcher through mailboxes. */
    bool sharded() const { return binding_.group != nullptr; }

    /**
     * Inject one query through the federation. kOk means accepted:
     * `on_complete` will eventually fire, and a failure on the chosen
     * pod transparently retries on surviving pods first (the reported
     * latency spans accept to final completion, retries included).
     * Non-kOk means rejected up front: every eligible pod refused the
     * query (admission caps, no ring in rotation anywhere).
     */
    host::SendStatus Inject(int thread, const rank::CompressedRequest& request,
                            std::function<void(const ScoreResult&)> on_complete);

    /**
     * Inject with a placement preference: try `preferred_pod` first
     * (when it is a valid, eligible rotation index) and fall back to
     * the normal policy walk when it refuses. The scatter-gather tier
     * partitions a document set with this — the preference pins the
     * shard's accounting, while failover and retry semantics stay
     * exactly Inject's. `preferred_pod` < 0 is plain Inject.
     */
    host::SendStatus InjectPreferring(
        int preferred_pod, int thread, const rank::CompressedRequest& request,
        std::function<void(const ScoreResult&)> on_complete);

    /**
     * Rotation indices that would be considered for the next query
     * (breaker closed, not shed, under cap, rings in rotation) — the
     * scatter set a front end partitions a document set across.
     */
    std::vector<int> EligiblePods() const;

    sim::Simulator* simulator() { return simulator_; }
    int pod_count() const { return static_cast<int>(pods_.size()); }
    mgmt::PodContext& pod(int index) {
        return *pods_[static_cast<std::size_t>(index)].context;
    }

    /** Dispatcher-accepted queries currently in flight on `index`. */
    int pod_in_flight(int index) const {
        return pods_[static_cast<std::size_t>(index)].in_flight;
    }
    /** True when `index` would be considered for the next query. */
    bool pod_eligible(int index) const;
    /** Confirmed health-plane fault reports attributed to `index`. */
    std::uint64_t pod_fault_reports(int index) const {
        return pods_[static_cast<std::size_t>(index)].fault_reports;
    }
    /** Nodes of `index` flagged for manual service (fatal faults). */
    int pod_dead_nodes(int index) const {
        return pods_[static_cast<std::size_t>(index)].dead_nodes;
    }

    /**
     * Hot-attach a serviced pod back into rotation: breaker reset (the
     * fatal-pod latch included), dead-node ledger cleared, shed state
     * lifted, and a warm-up ramp started so the rejoining pod earns
     * traffic gradually. In-flight queries on surviving pods are
     * untouched. The caller is responsible for the pod actually being
     * healthy again (hosts serviced, pool redeployed) — see
     * FederationTestbed::ReattachPod for the full sequence. Aborts
     * when a sharded pod's hop is now narrower than an edge the group
     * already ran with (widened through the group after a run).
     */
    void ReadmitPod(int index);

    /** Per-pod observability snapshot (benches/tests assert on this). */
    struct PodStats {
        int in_flight = 0;
        bool eligible = false;
        /** Proactively shed by the predictive plane right now. */
        bool shed = false;
        /** Latest published health score / band seen on the feed. */
        double health_score = 1.0;
        mgmt::HealthBand band = mgmt::HealthBand::kWarmingUp;
        /** Accepted queries routed elsewhere while this pod was shed. */
        std::uint64_t shed_queries = 0;
        std::uint64_t shed_transitions = 0;
        /** Pod-level refusals observed by the dispatcher. */
        std::uint64_t rejected = 0;
        /** Times this pod was re-admitted via ReadmitPod. */
        std::uint64_t readmitted = 0;
        std::uint64_t fault_reports = 0;
        int dead_nodes = 0;
    };
    PodStats pod_stats(int index) const;

    FederationPolicy policy() const { return config_.policy; }

    struct Counters {
        /** Queries accepted (kOk returned). */
        std::uint64_t accepted = 0;
        /** Queries rejected up front (caps / no eligible pod). */
        std::uint64_t rejected = 0;
        /** Completions delivered with ok=true. */
        std::uint64_t completed = 0;
        /** Completions delivered with ok=false (every retry exhausted). */
        std::uint64_t lost = 0;
        /** Re-injections of accepted queries onto another pod. */
        std::uint64_t failovers = 0;
        /** Pod picks that honored a model-affinity preference. */
        std::uint64_t affinity_hits = 0;
        /** Breaker state transitions closed -> open. */
        std::uint64_t breaker_trips = 0;
        /** Pods proactively shed by the predictive plane. */
        std::uint64_t sheds = 0;
        /** Pods hot-attached back into rotation (ReadmitPod). */
        std::uint64_t readmissions = 0;
    };
    const Counters& counters() const { return counters_; }

    /**
     * Attach the coordinator shard's observability surface: accepted
     * queries get a "query" span (parenting any incoming gather
     * context, and stamping their own span id into the request so
     * pod-side document spans nest under it), failovers and injects
     * emit instants, and completion latency feeds a histogram. Null
     * detaches. The dispatcher's Counters are mirrored separately by a
     * registry pull-collector (see FederationTestbed).
     */
    void SetObservability(obs::ShardObs* obs);

  private:
    struct PodSlot {
        mgmt::PodContext* context = nullptr;
        int in_flight = 0;
        /** Consecutive dispatcher-observed failures (breaker input). */
        int failure_streak = 0;
        /** Breaker open until this instant (0 = closed). */
        Time breaker_open_until = 0;
        /** When the breaker last opened; successes of queries injected
         *  before this instant are stragglers and must not close it. */
        Time breaker_opened_at = 0;
        /** A half-open probe query is outstanding (one at a time). */
        bool probe_in_flight = false;
        /** The pod's group shard; -1 for a direct attach. */
        int shard = -1;
        int health_subscription = -1;
        /**
         * Coordinator-side proxy of a sharded pod's available rings,
         * kept by pushed availability messages. A direct pod's pool is
         * read synchronously instead.
         */
        int rings_view = 0;
        std::uint64_t fault_reports = 0;
        /** Distinct nodes flagged fatal (duplicate reports ignored). */
        std::vector<char> node_dead;
        int dead_nodes = 0;

        // --- Predictive plane (health-score feed) --------------------
        double health_score = 1.0;
        mgmt::HealthBand health_band = mgmt::HealthBand::kWarmingUp;
        /** Below the shed floor: out of normal rotation, probed only. */
        bool shed = false;
        /** Re-admission warm-up window ([start, until), 0 = none). */
        Time warmup_start = 0;
        Time warmup_until = 0;
        /** Smooth-WRR credit for the score-weighted policy. */
        double wrr_credit = 0.0;
        mgmt::HealthScoreSubscription score_subscription;
        // Per-pod stats (see PodStats).
        std::uint64_t stat_shed_queries = 0;
        std::uint64_t stat_shed_transitions = 0;
        std::uint64_t stat_rejected = 0;
        std::uint64_t stat_readmitted = 0;
    };

    /** One accepted query's life across retries. */
    struct QueryContext {
        int thread = 0;
        rank::CompressedRequest request;
        std::function<void(const ScoreResult&)> on_complete;
        Time accepted_at = 0;
        int retries_left = 0;
        /** Tracing: this query's span and its timeline (0 = untraced). */
        std::uint64_t obs_trace = 0;
        std::uint64_t obs_span = 0;
        std::uint64_t obs_parent = 0;
    };

    /** One mailbox-mode inject awaiting its pod's verdict. */
    struct PendingInject {
        std::shared_ptr<QueryContext> query;
        Time injected_at = 0;
        bool was_probe = false;
    };

    /**
     * Policy pick among eligible pods, skipping indices whose bit is
     * set in `tried` (pods are capped at 64 per dispatcher so the
     * per-query tried-set stays an allocation-free bitmask). Returns
     * -1 when nothing fits.
     */
    int PickPod(std::uint32_t model_id, std::uint64_t tried);
    int PickShedProbe(std::uint64_t tried);
    /**
     * Undo the smooth-WRR debit of the most recent PickPod when the
     * picked pod's pool refused the query: a pick that served nothing
     * must not cost credit, or repeated pool-level rejects would
     * drive the pod's credit unboundedly negative and starve it long
     * after it recovers.
     */
    void RefundFailedPick(int pod_index);
    bool Eligible(const PodSlot& slot) const;
    /** Re-admission traffic ramp (floor..1 inside the warm-up window). */
    double WarmupRamp(const PodSlot& slot) const;
    /** Routing weight under kScoreWeighted (score x warm-up ramp). */
    double EffectiveWeight(const PodSlot& slot) const;
    void OnHealthSample(int pod_index, const mgmt::HealthScoreSample& sample);
    /** Declare one pod shard's hop lookaheads (aborts when narrowed). */
    void DeclareShardEdges(const char* caller, int shard);
    /** Confirmed MachineReport bookkeeping (direct call or mailbox hop). */
    void ApplyMachineReport(int pod_index, const mgmt::MachineReport& report);
    // --- Mailbox mode: the pod-shard half of an inject. ----------------
    /** Runs on the pod's shard: the actual pool Inject. */
    void PodInjectOnShard(int pod_index, std::uint64_t query_id, int thread,
                          const rank::CompressedRequest& request);
    /** Back on the coordinator: completion / pod-level refusal. */
    void OnShardResult(int pod_index, std::uint64_t query_id,
                       const ScoreResult& result);
    void OnShardReject(int pod_index, std::uint64_t query_id);
    host::SendStatus TryInject(int pod_index,
                               std::shared_ptr<QueryContext> query);
    void OnPodResult(int pod_index, std::shared_ptr<QueryContext> query,
                     Time injected_at, bool was_probe,
                     const ScoreResult& result);
    void Failover(std::shared_ptr<QueryContext> query, int failed_pod);
    void RecordFailure(int pod_index);
    void Deliver(std::shared_ptr<QueryContext> query, ScoreResult result);

    sim::Simulator* simulator_;
    Config config_;
    ShardBinding binding_;
    /** Every pod shard attached so far (pod <-> pod edges are declared
     *  unreachable pairwise as each new shard arrives). */
    std::vector<int> attached_shards_;
    /** Mailbox-mode injects awaiting a pod verdict, by query id. */
    std::unordered_map<std::uint64_t, PendingInject> pending_;
    std::uint64_t next_query_id_ = 1;
    std::vector<PodSlot> pods_;
    std::size_t rr_cursor_ = 0;
    /** Smooth-WRR round total debited by the last PickPod (for refunds). */
    double last_wrr_debit_ = 0.0;
    /** Pods currently shed (skips the per-query stats scan when 0). */
    int shed_pod_count_ = 0;
    Counters counters_;

    /** Coordinator-shard observability surface (null = off). */
    obs::ShardObs* obs_ = nullptr;
    /** Cached registry pointer — hot paths never do a name lookup. */
    obs::Histogram* obs_latency_us_ = nullptr;
};

}  // namespace catapult::service
