#include "sim/simulator_group.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace catapult::sim {

SimulatorGroup::SimulatorGroup(const Config& config) : config_(config) {
    if (config_.shards < 1) {
        FatalMisuse("SimulatorGroup: shards %d < 1", config_.shards);
    }
    if (config_.epoch <= 0) {
        FatalMisuse("SimulatorGroup: epoch %lld ps; the default lookahead "
                    "must be positive",
                    static_cast<long long>(config_.epoch));
    }
    const auto n = static_cast<std::size_t>(config_.shards);
    shards_.reserve(n);
    for (int i = 0; i < config_.shards; ++i) {
        shards_.push_back(std::make_unique<Simulator>());
    }
    outboxes_.resize(n);
    fired_settled_.resize(n, 0);
    base_.resize(n, 0);
    round_end_.resize(n, 0);
    done_.resize(n, 0);
    // Undeclared edges default to the uniform lookahead; the diagonal
    // holds round trips and starts unreachable (no self-edge) so the
    // closure computes the cheapest actual cycle through other shards.
    raw_lookahead_.assign(n * n, config_.epoch);
    for (std::size_t i = 0; i < n; ++i) {
        raw_lookahead_[i * n + i] = kUnreachable;
    }
    closure_.assign(n * n, kUnreachable);

    profile_.edge_mailbox_hwm.assign(n * n, 0);
    edge_count_scratch_.assign(n, 0);
}

Time SimulatorGroup::SatAdd(Time a, Time b) {
    if (a == kUnreachable || b == kUnreachable) return kUnreachable;
    if (a > kUnreachable - b) return kUnreachable;
    return a + b;
}

void SimulatorGroup::CheckShard(const char* call, const char* what,
                                int shard) const {
    if (shard >= 0 && shard < shard_count()) return;
    FatalMisuse("SimulatorGroup::%s: %s shard %d outside [0, %d)", call, what,
                shard, shard_count());
}

bool SimulatorGroup::SetEdgeLookahead(int from, int to, Time lookahead) {
    CheckShard("SetEdgeLookahead", "from", from);
    CheckShard("SetEdgeLookahead", "to", to);
    if (from == to) {
        FatalMisuse("SimulatorGroup::SetEdgeLookahead: self-edge %d->%d; "
                    "round trips are derived, not declared",
                    from, to);
    }
    if (lookahead <= 0) {
        FatalMisuse("SimulatorGroup::SetEdgeLookahead: lookahead %lld ps on "
                    "edge %d->%d must be positive",
                    static_cast<long long>(lookahead), from, to);
    }
    Time& raw = raw_lookahead_[static_cast<std::size_t>(from) *
                                   static_cast<std::size_t>(shard_count()) +
                               static_cast<std::size_t>(to)];
    if (lookahead == raw) return true;
    if (has_run_ && lookahead < raw) {
        // Bounds already executed under the wider guarantee; honoring a
        // narrower promise now could deliver into a shard's past.
        return false;
    }
    raw = lookahead;
    closure_dirty_ = true;
    return true;
}

Time SimulatorGroup::edge_lookahead(int from, int to) const {
    CheckShard("edge_lookahead", "from", from);
    CheckShard("edge_lookahead", "to", to);
    return raw_lookahead_[static_cast<std::size_t>(from) *
                              static_cast<std::size_t>(shard_count()) +
                          static_cast<std::size_t>(to)];
}

Time SimulatorGroup::path_lookahead(int from, int to) {
    CheckShard("path_lookahead", "from", from);
    CheckShard("path_lookahead", "to", to);
    RefreshClosure();
    return closure_at(from, to);
}

void SimulatorGroup::RefreshClosure() {
    if (!closure_dirty_) return;
    closure_ = raw_lookahead_;
    const auto n = static_cast<std::size_t>(shard_count());
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const Time ik = closure_[i * n + k];
            if (ik == kUnreachable) continue;
            for (std::size_t j = 0; j < n; ++j) {
                const Time kj = closure_[k * n + j];
                if (kj == kUnreachable) continue;
                Time& ij = closure_[i * n + j];
                const Time via = SatAdd(ik, kj);
                if (via < ij) ij = via;
            }
        }
    }
    closure_dirty_ = false;
}

void SimulatorGroup::Post(int from, int to, Time deliver_at, EventFn fn,
                          EventPriority priority, bool daemon) {
    CheckShard("Post", "from", from);
    CheckShard("Post", "to", to);
    if (!running_) {
        // Setup/teardown path: apply directly.
        Simulator& dest = shard(to);
        if (daemon) {
            dest.ScheduleDaemonAt(deliver_at, std::move(fn), priority);
        } else {
            dest.ScheduleAt(deliver_at, std::move(fn), priority);
        }
        return;
    }
    const Time bound = round_end_[static_cast<std::size_t>(to)];
    if (deliver_at < bound) {
        // The one promise conservative synchronization rests on: shard
        // `to` may already have run past `deliver_at`.
        FatalMisuse("SimulatorGroup::Post: message %d->%d delivers at %lld "
                    "ps, before the destination's round bound %lld ps "
                    "(cross-shard hop shorter than the declared edge "
                    "lookahead)",
                    from, to, static_cast<long long>(deliver_at),
                    static_cast<long long>(bound));
    }
    outboxes_[static_cast<std::size_t>(from)].push_back(
        {to, deliver_at, priority, daemon, std::move(fn)});
}

bool SimulatorGroup::AllShardsForegroundEmpty() const {
    for (const auto& shard : shards_) {
        if (!shard->Empty()) return false;
    }
    return true;
}

void SimulatorGroup::DrainMailboxes() {
    const auto n = static_cast<std::size_t>(shard_count());
    // Shard order, each outbox front to back: the canonical order (see
    // the header), so destination sequence numbers need no sort.
    for (std::size_t from = 0; from < n; ++from) {
        std::vector<PostedMsg>& box = outboxes_[from];
        if (box.empty()) continue;
        std::fill(edge_count_scratch_.begin(), edge_count_scratch_.end(), 0u);
        for (PostedMsg& msg : box) {
            ++edge_count_scratch_[static_cast<std::size_t>(msg.to)];
            Simulator& dest = shard(msg.to);
            if (msg.daemon) {
                dest.ScheduleDaemonAt(msg.deliver_at, std::move(msg.fn),
                                      msg.priority);
            } else {
                dest.ScheduleAt(msg.deliver_at, std::move(msg.fn),
                                msg.priority);
            }
        }
        // Per-edge depth high-water: the deepest one-round backlog each
        // (source, destination) mailbox ever reached.
        for (std::size_t to = 0; to < n; ++to) {
            std::uint32_t& hwm = profile_.edge_mailbox_hwm[from * n + to];
            hwm = std::max(hwm, edge_count_scratch_[to]);
        }
        profile_.messages_drained += box.size();
        box.clear();
    }
}

void SimulatorGroup::BeginRun() {
    RefreshClosure();
    running_ = true;
    has_run_ = true;
    for (int i = 0; i < shard_count(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        done_[s] = 0;
        // A shard's clock is its true frontier between runs: messages
        // posted directly while stopped may land right at it.
        round_end_[s] = shards_[s]->Now();
    }
}

void SimulatorGroup::BuildRound(Time horizon) {
    const int n = shard_count();
    round_items_.clear();
    for (int i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(i);
        Time t;
        base_[s] =
            (!done_[s] && shards_[s]->PeekNextTime(&t)) ? t : kUnreachable;
    }
    for (int d = 0; d < n; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        if (done_[sd]) continue;
        // Earliest possible arrival into d: some shard s fires an event
        // no earlier than base(s), and the cheapest chain of hops from
        // s to d costs closure(s, d). The s == d term covers d's own
        // activity coming back around a cycle. Bounds are monotone
        // across rounds: an arrival that lowers a base(s) is itself no
        // earlier than bound(s), and bound(s) + closure(s, d) >=
        // bound(d) by the closure's triangle inequality.
        Time bound = kUnreachable;
        for (int s = 0; s < n; ++s) {
            bound = std::min(
                bound,
                SatAdd(base_[static_cast<std::size_t>(s)], closure_at(s, d)));
        }
        Simulator& sim = *shards_[sd];
        if (horizon != kUnreachable && bound > horizon) {
            // Nothing can reach this shard at or before the horizon:
            // run its inclusive final leg now and release it — laggard
            // shards no longer gate it.
            round_items_.push_back({d, horizon, RunKind::kInclusive});
            done_[sd] = 1;
            round_end_[sd] = SatAdd(horizon, 1);
        } else if (bound == kUnreachable) {
            // No finite path into d exists — were any shard d wakes
            // able to reach back, the closure round trip would be
            // finite and so would this bound. Run to completion.
            round_end_[sd] = kUnreachable;
            if (!sim.Empty()) {
                round_items_.push_back({d, kUnreachable, RunKind::kAll});
            }
        } else if (bound > sim.Now()) {
            round_end_[sd] = bound;
            // base(d) is d's own next event, peeked above.
            if (base_[sd] < bound) {
                round_items_.push_back({d, bound, RunKind::kBefore});
            }
        }
    }
}

void SimulatorGroup::ExecuteRound() {
    profile_.round_items += round_items_.size();
    if (round_items_.empty()) return;
    ++profile_.rounds;
    for (const RoundItem& item : round_items_) {
        Simulator& s = shard(item.shard);
        switch (item.kind) {
            case RunKind::kBefore:
                s.RunUntilBefore(item.bound);
                break;
            case RunKind::kInclusive:
                s.RunUntil(item.bound);
                break;
            case RunKind::kAll:
                s.Run();
                break;
        }
    }
}

Time SimulatorGroup::CurrentFrontier() const {
    Time frontier = kUnreachable;
    for (int i = 0; i < shard_count(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (done_[s]) continue;
        frontier = std::min(frontier, round_end_[s]);
    }
    if (frontier == kUnreachable) {
        // Every shard free-running (Run end-game) or finished
        // (RunUntil): the clocks themselves are the frontier.
        frontier = 0;
        for (const auto& s : shards_) frontier = std::max(frontier, s->Now());
    }
    return frontier;
}

void SimulatorGroup::FinishRound() {
    DrainMailboxes();
    const Time frontier = CurrentFrontier();
    if (frontier > last_frontier_) {
        profile_.frontier_advance += frontier - last_frontier_;
        last_frontier_ = frontier;
    }
    // Post-barrier: every message of the round is scheduled, so
    // cross-shard state is consistent, and the round schedule is
    // deterministic, so anything the hook derives is too.
    if (barrier_hook_) barrier_hook_(frontier);
}

std::uint64_t SimulatorGroup::SettleEventsFired() {
    std::uint64_t total = 0;
    for (int i = 0; i < shard_count(); ++i) {
        const std::uint64_t fired = shard(i).EventsFired();
        const std::uint64_t delta =
            fired - fired_settled_[static_cast<std::size_t>(i)];
        total += delta;
        fired_settled_[static_cast<std::size_t>(i)] = fired;
    }
    return total;
}

std::uint64_t SimulatorGroup::Run() {
    BeginRun();
    for (;;) {
        if (AllShardsForegroundEmpty()) break;
        BuildRound(/*horizon=*/kUnreachable);
        // The minimum-base shard always yields an item (its bound
        // exceeds its next event by at least the cheapest inbound
        // path), so every round makes progress.
        assert(!round_items_.empty());
        ExecuteRound();
        FinishRound();
    }
    running_ = false;
    for (const auto& s : shards_) now_ = std::max(now_, s->Now());
    return SettleEventsFired();
}

std::uint64_t SimulatorGroup::RunUntil(Time horizon) {
    BeginRun();
    for (;;) {
        BuildRound(horizon);
        ExecuteRound();
        FinishRound();
        if (std::find(done_.begin(), done_.end(), 0) == done_.end()) break;
    }
    running_ = false;
    now_ = std::max(now_, horizon);
    return SettleEventsFired();
}

}  // namespace catapult::sim
