// Conservative sharded discrete-event runtime: one Simulator shard per
// partition (pod, coordinator), advanced in bounded rounds and coupled
// through deterministic cross-shard mailboxes. One thread runs every
// shard; sharding exists for its hop-latency semantics — a message
// between shards pays the declared edge latency — not for parallelism.
//
// Synchronization is per-edge Chandy-Misra lookahead, not a global
// epoch. Every (source, destination) shard pair carries a declared
// lookahead L(s,d): a promise that a message posted by shard s at local
// time t delivers at or after t + L(s,d). From the raw edge matrix the
// group keeps a min-plus closure L*(s,d) — the cheapest relay path,
// diagonal = the cheapest round trip — and each round computes, per
// shard d, a conservative bound:
//
//     base(s)  = earliest pending event on shard s (daemons included),
//                or unreachable when s is empty
//     bound(d) = min over all s of base(s) + L*(s,d)
//
// Shard d may execute every event strictly before bound(d) — nothing
// can arrive earlier, even through multi-hop relays (the closure's
// triangle inequality covers a pod waking the coordinator waking
// another pod). Shards with slack run far ahead of the tightest edge;
// with the paper's asymmetric hops this is the difference between the
// federation crawling at the global minimum and each pod advancing at
// its own inbound latency. The uniform matrix (every edge = Config::
// epoch) degenerates to global-minimum epochs exactly.
//
// A round runs its ready shards in shard-id order, then drains the
// mailboxes: outbox 0 front to back, then outbox 1, and so on. That
// order is canonical without a sort. A destination fires its events in
// (time, priority, sequence) order, so among the messages one round
// delivers only those with equal (time, priority) at one destination
// compete, and the walk hands them sequence numbers in (source, posting
// order) — a function of the round schedule alone.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace catapult::sim {

class SimulatorGroup {
  public:
    struct Config {
        /** Number of shards (>= 1). Shard 0 is the coordinator by convention. */
        int shards = 1;
        /**
         * Default lookahead for every edge not declared through
         * SetEdgeLookahead: the minimum cross-shard hop latency. Every
         * Post() made while running must deliver at or after the
         * destination's current round bound (aborts otherwise).
         */
        Time epoch = 0;
    };

    /** Run-loop statistics; all deterministic. */
    struct GroupProfile {
        std::uint64_t rounds = 0;
        /** Total ready-shard entries across all rounds. */
        std::uint64_t round_items = 0;
        /** Cross-shard messages drained at barriers. */
        std::uint64_t messages_drained = 0;
        /** Sum of conservative-frontier advances (total epoch width);
         *  divide by `rounds` for the mean epoch. */
        Time frontier_advance = 0;
        /** Per-edge mailbox depth high-water marks, row-major
         *  [from][to]: the most messages one round ever drained across
         *  the edge. */
        std::vector<std::uint32_t> edge_mailbox_hwm;
    };

    /** "No path": an edge nothing is ever posted across. */
    static constexpr Time kUnreachable = std::numeric_limits<Time>::max();

    /** Aborts on `shards` < 1 or `epoch` <= 0. */
    explicit SimulatorGroup(const Config& config);

    SimulatorGroup(const SimulatorGroup&) = delete;
    SimulatorGroup& operator=(const SimulatorGroup&) = delete;

    int shard_count() const { return static_cast<int>(shards_.size()); }
    Simulator& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
    /** The default (undeclared-edge) lookahead. */
    Time epoch() const { return config_.epoch; }

    /**
     * Declare the lookahead of edge `from` -> `to`: every message
     * posted across it delivers at least `lookahead` after the source
     * shard's clock. kUnreachable declares that nothing is ever posted
     * across the edge (pods that only ever talk through the
     * coordinator), which frees the destination from the source's
     * frontier entirely — relay paths still constrain it through the
     * closure. Widening (or re-asserting the same value, the
     * ReattachPod path) is always allowed. Narrowing is allowed only
     * before the first Run/RunUntil: past bounds already exploited the
     * old guarantee, so a too-narrow re-assertion is rejected — the
     * call returns false and the matrix is unchanged. Aborts on a
     * shard out of range, `from == to` or `lookahead` <= 0.
     */
    bool SetEdgeLookahead(int from, int to, Time lookahead);
    /** The declared (raw) lookahead of one edge. */
    Time edge_lookahead(int from, int to) const;
    /**
     * The effective lookahead of the cheapest path `from` -> `to`
     * (min-plus closure over the declared edges; `from == to` gives
     * the cheapest round trip). What the per-round bounds use.
     */
    Time path_lookahead(int from, int to);

    /** Group time: the furthest frontier a completed run reached. */
    Time Now() const { return now_; }

    /**
     * Install a hook run after every barrier (mailboxes drained) with
     * the group's conservative frontier — the point where cross-shard
     * state is consistent. The observability plane merges shard
     * registries here.
     */
    void SetBarrierHook(std::function<void(Time)> hook) {
        barrier_hook_ = std::move(hook);
    }

    /** Run-loop statistics (see GroupProfile). Read between runs. */
    const GroupProfile& profile() const { return profile_; }

    /**
     * Post a cross-shard message: run `fn` on shard `to` at
     * `deliver_at`. Called from an event on shard `from` (or from
     * outside Run, where it applies directly). While running,
     * `deliver_at` must be at or after the destination's current round
     * bound — i.e. the hop that produced it must honor the declared
     * edge lookahead; a shorter hop aborts, as does a shard out of
     * range. Daemon messages (periodic telemetry) do not keep Run()
     * alive.
     */
    void Post(int from, int to, Time deliver_at, EventFn fn,
              EventPriority priority = EventPriority::kDeliver,
              bool daemon = false);

    /**
     * Run rounds until every shard is foreground-empty and no messages
     * are in flight. Daemon events stay pending, as with
     * Simulator::Run. Returns total events fired across shards.
     */
    std::uint64_t Run();

    /**
     * Run rounds until every shard reaches `horizon`. The final leg is
     * inclusive (events at exactly `horizon` fire), matching
     * Simulator::RunUntil. A shard whose bound clears the horizon
     * finishes early — no message can reach it at or before the
     * horizon — so laggard shards stop gating finished ones.
     */
    std::uint64_t RunUntil(Time horizon);

  private:
    struct PostedMsg {
        int to;
        Time deliver_at;
        EventPriority priority;
        bool daemon;
        EventFn fn;
    };

    /** How one ready shard executes its round. */
    enum class RunKind : std::uint8_t {
        kBefore,     ///< RunUntilBefore(bound): the normal round leg.
        kInclusive,  ///< RunUntil(bound): the final RunUntil leg.
        kAll,        ///< Run(): bound unreachable — nothing can arrive.
    };
    struct RoundItem {
        int shard;
        Time bound;
        RunKind kind;
    };

    static Time SatAdd(Time a, Time b);
    Time closure_at(int from, int to) const {
        return closure_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(shard_count()) +
                        static_cast<std::size_t>(to)];
    }
    /** Abort unless `shard` indexes a shard; `call` names the caller. */
    void CheckShard(const char* call, const char* what, int shard) const;
    /** Min-plus (Floyd-Warshall) closure of the raw edge matrix. */
    void RefreshClosure();
    bool AllShardsForegroundEmpty() const;
    /** Schedule every outbox onto its destinations, in shard order. */
    void DrainMailboxes();
    /**
     * Compute per-shard promises and bounds and fill round_items_ with
     * the shards that can advance; `horizon` != kUnreachable marks
     * shards whose bound clears it as done (RunUntil mode).
     */
    void BuildRound(Time horizon);
    /** Run round_items_ in shard order. */
    void ExecuteRound();
    /** Min round_end_ over unfinished shards (max shard clock when all
     *  are free-running or done). */
    Time CurrentFrontier() const;
    /** Bookkeeping + barrier hook after one round's mailbox drain. */
    void FinishRound();
    /** Reset per-run frontier bookkeeping. */
    void BeginRun();
    /** Sum shard EventsFired deltas since the last settle. */
    std::uint64_t SettleEventsFired();

    Config config_;
    std::vector<std::unique_ptr<Simulator>> shards_;
    /** Per-source mailbox: messages posted by shard s this round. */
    std::vector<std::vector<PostedMsg>> outboxes_;
    /** Per-shard EventsFired already folded into a run's return value. */
    std::vector<std::uint64_t> fired_settled_;

    /** Raw declared edge lookaheads, row-major [from][to]. */
    std::vector<Time> raw_lookahead_;
    /** Min-plus closure of raw_lookahead_ (diagonal = min round trip). */
    std::vector<Time> closure_;
    bool closure_dirty_ = true;
    bool has_run_ = false;

    // Per-round scratch, written between barriers.
    std::vector<Time> base_;
    std::vector<RoundItem> round_items_;
    /**
     * Per-shard conservative frontier: no message may deliver before
     * round_end_[s] (Post aborts otherwise). Monotone within a run —
     * the closure's triangle inequality makes every later round's bound
     * at least as large as any bound a shard already executed to.
     */
    std::vector<Time> round_end_;
    std::vector<char> done_;  ///< RunUntil: shard finished its final leg.

    Time now_ = 0;
    bool running_ = false;

    std::function<void(Time)> barrier_hook_;
    GroupProfile profile_;
    /** Frontier at the previous barrier (epoch-width accounting). */
    Time last_frontier_ = 0;
    /** Per-destination scratch for edge high-water counting. */
    std::vector<std::uint32_t> edge_count_scratch_;
};

}  // namespace catapult::sim
