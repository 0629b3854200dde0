// Scatter-gather tier: cross-pod top-k merging with partial-result
// deadlines.
//
// The paper's ranking service is one slice of Bing's pipeline: a front
// end owns the user's query, fans the query's candidate document set
// out across many servers, and merges the per-server score lists into
// one ranked answer (§2: "the results of the feature-extraction and
// scoring pipeline feed the search engine's result selection"). The
// federation built in PR 4-5 still lands one document on one pod; this
// tier is the fan-out seam above it.
//
// Two pieces:
//
//  * ResultMerger — combines per-pod top-k score lists into one global
//    top-k, metasearch style (pazpar2's reclists heap-merge is the
//    exemplar shape): score descending, deterministic tie-breaking
//    (pod id, then doc id), and round-robin interleave across pods for
//    equal-score runs so one pod cannot monopolize a tied band.
//
//  * ScatterGatherDispatcher — Submit(query, doc_set, budget)
//    partitions the document set across the federation's currently
//    eligible pods, injects the shards in parallel through the
//    FederatedDispatcher, and gathers per-pod results. When the budget
//    expires the merge of whoever answered is returned, stamped
//    `partial`, with per-pod answered/missing accounting; stragglers
//    completing after the deadline are accounted (never merged, never
//    delivered twice, never leaked).
//
// This is the §5 lens applied to the front door: throughput at a
// latency target means answering *on time with what you have*, not
// answering late with everything.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slot_table.h"
#include "common/units.h"
#include "obs/observability.h"
#include "rank/document.h"
#include "service/federated_dispatcher.h"
#include "service/ranking_service.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::service {

/** One scored document in a per-pod (or merged) result list. */
struct RankedDoc {
    std::uint64_t doc_id = 0;
    float score = 0.0f;
    /** Pod that served the score (the final pod after any failover). */
    int pod = -1;

    bool operator==(const RankedDoc&) const = default;
};

/**
 * Merges per-pod top-k lists into one globally ranked top-k list.
 *
 * Order contract (deterministic — repeated merges of the same input
 * yield byte-identical output):
 *  * score descending;
 *  * an equal-score run interleaves round-robin across the pods tied
 *    at that score — first one doc from each tied pod in ascending
 *    pod-id order, then the next from each, until the run is spent —
 *    so no pod monopolizes a tied band;
 *  * within one pod's contribution to a run, doc id ascending.
 *
 * Input lists need not be pre-sorted; the merger canonicalizes each
 * (score desc, doc id asc) first.
 */
class ResultMerger {
  public:
    static std::vector<RankedDoc> Merge(
        std::vector<std::vector<RankedDoc>> per_pod, std::size_t k) {
        std::vector<RankedDoc> out;
        ResultMerger().MergeInPlace(per_pod, k, out);
        return out;
    }

    /**
     * Merge into `out` (replacing its contents), canonicalizing the
     * lists of `per_pod` in place. The merger's scratch and `out` keep
     * their storage, so repeated merges allocate nothing.
     */
    void MergeInPlace(std::vector<std::vector<RankedDoc>>& per_pod,
                      std::size_t k, std::vector<RankedDoc>& out);

  private:
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> tied_;
};

/**
 * Fans one query's document set out across the federation and gathers
 * the merged top-k, under an optional latency budget.
 */
class ScatterGatherDispatcher {
  public:
    struct Config {
        /**
         * Client-side retry for a document the federation refused up
         * front (slot contention, admission caps): how many times one
         * shard re-attempts, a fixed back-off apart, before it is counted
         * rejected. Bounded, so a permanently refusing federation
         * resolves every shard instead of spinning.
         */
        int max_reject_retries = 8;
    };

    /** Per-pod scatter accounting for one gather. */
    struct PodShard {
        int pod = -1;
        /** Shards this pod was assigned at scatter time. */
        int assigned = 0;
        /** Merged results this pod served (failovers count for the
         *  pod that finally answered, not the assignee). */
        int answered = 0;
        /** Assigned shards unanswered when the result was delivered
         *  (deadline expiry, up-front rejection, or retry exhaustion). */
        int missing = 0;
    };

    struct GatherResult {
        std::uint64_t gather_id = 0;
        /**
         * True when the merge covers less than the full document set —
         * the budget expired with shards outstanding, or shards were
         * rejected/lost. A complete on-time gather is not partial.
         */
        bool partial = false;
        std::size_t doc_count = 0;
        /** Shards the federation accepted before delivery. */
        std::size_t accepted = 0;
        /** Shards refused up front after every retry. */
        std::size_t rejected = 0;
        /** Shards whose scores made the merge. */
        std::size_t answered = 0;
        /** The merged global top-k (ResultMerger order contract). */
        std::vector<RankedDoc> top;
        /** Per-pod accounting, indexed by pod id. */
        std::vector<PodShard> pods;
        /** Submit to delivery. */
        Time latency = 0;
    };

    struct Counters {
        std::uint64_t submitted = 0;
        std::uint64_t delivered = 0;
        /** Gathers delivered partial. */
        std::uint64_t partial = 0;
        /** Shards accepted into the federation. */
        std::uint64_t docs_scattered = 0;
        /** Shards merged before delivery. */
        std::uint64_t docs_answered = 0;
        /** Shards that failed in the federation (retries exhausted). */
        std::uint64_t docs_failed = 0;
        /**
         * Accepted shards completing after their gather was delivered:
         * accounted here (and to the per-gather straggler hook), never
         * merged, never delivered twice.
         */
        std::uint64_t stragglers = 0;
        /** Merge cost, wall clock (bench_scatter_gather gates this). */
        std::uint64_t merges = 0;
        std::uint64_t merge_wall_ns = 0;
    };

    /** Gather completion; captures up to 48 bytes stay inline. */
    using GatherFn = sim::InlineFunction<void(const GatherResult&)>;

    ScatterGatherDispatcher(sim::Simulator* simulator,
                            FederatedDispatcher* dispatcher, Config config);

    ScatterGatherDispatcher(const ScatterGatherDispatcher&) = delete;
    ScatterGatherDispatcher& operator=(const ScatterGatherDispatcher&) = delete;

    /**
     * Scatter `docs` (each stamped with `query`) across the currently
     * eligible pods, round-robin; gather per-pod top-k lists and merge.
     * `on_complete` fires exactly once: when every shard resolves, or
     * at `budget` after submit (0 = no deadline) with whatever answered
     * by then. `connection_pool` is the session's driver-thread slice
     * (shards rotate over it); null rotates over
     * [0, Config::default_threads). `on_straggler` (optional) fires
     * once per accepted shard that completes after delivery.
     * Returns the gather id (always > 0; an empty document set
     * delivers an empty, complete result asynchronously).
     */
    std::uint64_t Submit(const rank::Query& query,
                         std::vector<rank::CompressedRequest> docs,
                         std::size_t top_k, Time budget, GatherFn on_complete,
                         const std::vector<int>* connection_pool = nullptr,
                         std::function<void()> on_straggler = nullptr);

    const Counters& counters() const { return counters_; }
    const Config& config() const { return config_; }

    /**
     * Attach the front door's observability shard. Each gather opens a
     * "gather" root span (joining the caller's trace context when the
     * query already carries one) and stamps its per-document requests
     * so downstream dispatcher/pod spans nest under it.
     */
    void SetObservability(obs::ShardObs* obs);

  private:
    /** One shard's life inside a gather. */
    enum class DocState : char {
        kPending,    ///< Not yet accepted (retrying a refusal).
        kInFlight,   ///< Accepted by the federation.
        kAnswered,   ///< Completed ok; score merged (or straggler).
        kFailed,     ///< Completed not-ok (federation retries spent).
        kRejected,   ///< Refused up front; retry budget spent.
    };

    /**
     * One gather, in a slot of `gathers_`. The slot is held until the
     * gather is delivered and every accepted shard has reported back
     * (a straggler still needs `on_straggler`); freeing it bumps
     * `generation`, which retries and deadlines check.
     */
    struct Gather {
        std::uint32_t generation = 0;
        /** Accepted shards that have not reported back yet. */
        std::size_t outstanding = 0;
        std::uint64_t id = 0;
        std::size_t top_k = 0;
        Time submitted_at = 0;
        sim::EventHandle deadline_event;
        bool delivered = false;
        std::vector<rank::CompressedRequest> docs;
        std::vector<DocState> doc_state;
        std::vector<int> doc_assigned;  ///< Pod each shard targets.
        std::vector<int> doc_thread;    ///< Driver thread per shard.
        std::size_t accepted = 0;
        std::size_t rejected = 0;
        std::size_t answered = 0;
        std::size_t failed = 0;
        /** Per-serving-pod result lists, indexed by pod id. */
        std::vector<std::vector<RankedDoc>> per_pod;
        std::vector<PodShard> shards;
        GatherFn on_complete;
        std::function<void()> on_straggler;
        /** Tracing context (0 when the gather is untraced). */
        std::uint64_t obs_trace = 0;
        std::uint64_t obs_span = 0;
        std::uint64_t obs_parent = 0;
    };

    void InjectShard(std::uint32_t slot, std::uint32_t index, int retries_left);
    void OnShardResult(std::uint32_t slot, std::uint32_t index,
                       const ScoreResult& result);
    bool AllResolved(const Gather& gather) const {
        return gather.answered + gather.failed + gather.rejected ==
               gather.docs.size();
    }
    /** The gather in `slot` while it still has `generation`, else null. */
    Gather* GatherAt(std::uint32_t slot, std::uint32_t generation);
    void DeliverGather(std::uint32_t slot);
    /** Free the slot once delivered with no shard outstanding. */
    void MaybeRelease(std::uint32_t slot);

    sim::Simulator* simulator_;
    FederatedDispatcher* dispatcher_;
    Config config_;
    std::uint64_t next_gather_id_ = 0;
    SlotTable<Gather> gathers_;
    // Scratch reused by every gather. A completion callback may submit
    // and deliver another gather before it returns, so each delivery
    // holds its own result slot.
    ResultMerger merger_;
    std::vector<int> eligible_;
    SlotTable<GatherResult> results_;
    Counters counters_;
    obs::ShardObs* obs_ = nullptr;
    obs::Histogram* obs_gather_latency_us_ = nullptr;
};

}  // namespace catapult::service
