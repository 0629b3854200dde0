#include "sim/simulator_group.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace catapult::sim {
namespace {

std::uint64_t MonotonicNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

SimulatorGroup::SimulatorGroup(const Config& config) : config_(config) {
    assert(config_.shards >= 1);
    assert(config_.epoch > 0 && "default lookahead must be positive");
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

    executors_ = 1;
    if (config_.parallel) {
        int cap = config_.max_threads > 0
                      ? config_.max_threads
                      : static_cast<int>(std::thread::hardware_concurrency());
        if (cap < 1) cap = 1;
        executors_ = std::min(cap, config_.shards);
    }
    // Executor 0 is the driving thread; spawn the rest. All executors
    // steal off the shared round work list, so there is no static
    // shard-to-executor assignment.
    profile_.executors.resize(static_cast<std::size_t>(executors_));
    for (int e = 1; e < executors_; ++e) {
        workers_.emplace_back([this, e] { WorkerLoop(e); });
    }
}

SimulatorGroup::~SimulatorGroup() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    cv_work_.notify_all();
    for (auto& worker : workers_) worker.join();
    // Outboxes may still hold undelivered messages (teardown with
    // in-flight traffic); their closures are destroyed, never invoked.
}

Time SimulatorGroup::SatAdd(Time a, Time b) {
    if (a == kUnreachable || b == kUnreachable) return kUnreachable;
    if (a > kUnreachable - b) return kUnreachable;
    return a + b;
}

bool SimulatorGroup::SetEdgeLookahead(int from, int to, Time lookahead) {
    assert(from >= 0 && from < shard_count());
    assert(to >= 0 && to < shard_count());
    assert(from != to && "self-edges are derived, not declared");
    assert(lookahead > 0 && "edge lookahead must be positive");
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
    assert(from >= 0 && from < shard_count());
    assert(to >= 0 && to < shard_count());
    return raw_lookahead_[static_cast<std::size_t>(from) *
                              static_cast<std::size_t>(shard_count()) +
                          static_cast<std::size_t>(to)];
}

Time SimulatorGroup::path_lookahead(int from, int to) {
    assert(from >= 0 && from < shard_count());
    assert(to >= 0 && to < shard_count());
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
    assert(from >= 0 && from < shard_count());
    assert(to >= 0 && to < shard_count());
    if (!running_) {
        // Setup/teardown path on the driving thread: apply directly.
        Simulator& dest = shard(to);
        if (daemon) {
            dest.ScheduleDaemonAt(deliver_at, std::move(fn), priority);
        } else {
            dest.ScheduleAt(deliver_at, std::move(fn), priority);
        }
        return;
    }
    assert(deliver_at >= round_end_[static_cast<std::size_t>(to)] &&
           "cross-shard hop shorter than the declared edge lookahead");
    Outbox& box = outboxes_[static_cast<std::size_t>(from)];
    PostedMsg msg;
    msg.to = to;
    msg.deliver_at = deliver_at;
    msg.priority = priority;
    msg.seq = box.next_seq++;
    msg.source = from;
    msg.daemon = daemon;
    msg.fn = std::move(fn);
    box.msgs.push_back(std::move(msg));
}

bool SimulatorGroup::AllShardsForegroundEmpty() const {
    for (const auto& shard : shards_) {
        if (!shard->Empty()) return false;
    }
    return true;
}

void SimulatorGroup::DrainMailboxes() {
    const auto n = static_cast<std::size_t>(shard_count());
    drain_scratch_.clear();
    for (std::size_t from = 0; from < n; ++from) {
        Outbox& box = outboxes_[from];
        if (box.msgs.empty()) continue;
        // Per-edge depth high-water: the deepest one-round backlog each
        // (source, destination) mailbox ever reached. Deterministic —
        // the outbox contents are a function of the round schedule.
        std::fill(edge_count_scratch_.begin(), edge_count_scratch_.end(), 0u);
        for (auto& msg : box.msgs) {
            ++edge_count_scratch_[static_cast<std::size_t>(msg.to)];
            drain_scratch_.push_back(std::move(msg));
        }
        for (std::size_t to = 0; to < n; ++to) {
            std::uint32_t& hwm = profile_.edge_mailbox_hwm[from * n + to];
            hwm = std::max(hwm, edge_count_scratch_[to]);
        }
        box.msgs.clear();
    }
    profile_.messages_drained += drain_scratch_.size();
    // Canonical delivery order. Destination-shard sequence numbers are
    // assigned in this order, so same-(time, priority) ties inside a
    // shard resolve identically no matter which thread produced them.
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const PostedMsg& a, const PostedMsg& b) {
                  if (a.deliver_at != b.deliver_at)
                      return a.deliver_at < b.deliver_at;
                  if (a.priority != b.priority) return a.priority < b.priority;
                  if (a.source != b.source) return a.source < b.source;
                  return a.seq < b.seq;
              });
    for (auto& msg : drain_scratch_) {
        Simulator& dest = shard(msg.to);
        if (msg.daemon) {
            dest.ScheduleDaemonAt(msg.deliver_at, std::move(msg.fn),
                                  msg.priority);
        } else {
            dest.ScheduleAt(msg.deliver_at, std::move(msg.fn), msg.priority);
        }
    }
    drain_scratch_.clear();
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

void SimulatorGroup::RunItem(const RoundItem& item, int executor) {
    ExecutorProfile& prof =
        profile_.executors[static_cast<std::size_t>(executor)];
    ++prof.items;
    const std::uint64_t t0 = config_.profile ? MonotonicNs() : 0;
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
    if (config_.profile) prof.busy_ns += MonotonicNs() - t0;
}

void SimulatorGroup::StealLoop(int executor, bool adopt_fired) {
    const int count = static_cast<int>(round_items_.size());
    for (;;) {
        const int i = next_item_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        const RoundItem& item = round_items_[static_cast<std::size_t>(i)];
        if (adopt_fired) {
            // Events fired on a worker thread land on its thread-local
            // counter; bank the delta so the driving thread can adopt
            // it at settle time regardless of who ran which shard.
            const std::uint64_t before = GlobalEventsFired();
            RunItem(item, executor);
            worker_fired_.fetch_add(GlobalEventsFired() - before,
                                    std::memory_order_relaxed);
        } else {
            RunItem(item, executor);
        }
    }
}

void SimulatorGroup::ExecuteRound() {
    profile_.round_items += round_items_.size();
    if (round_items_.empty()) return;
    ++profile_.rounds;
    if (executors_ == 1) {
        // Lock-step reference mode: shard-id order on the driving thread.
        for (const RoundItem& item : round_items_) RunItem(item, 0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        next_item_.store(0, std::memory_order_relaxed);
        remaining_ = executors_ - 1;
        ++generation_;
    }
    cv_work_.notify_all();
    StealLoop(/*executor=*/0, /*adopt_fired=*/false);
    const std::uint64_t w0 = config_.profile ? MonotonicNs() : 0;
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    if (config_.profile) profile_.executors[0].wait_ns += MonotonicNs() - w0;
}

void SimulatorGroup::WorkerLoop(int executor) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        {
            const std::uint64_t w0 = config_.profile ? MonotonicNs() : 0;
            std::unique_lock<std::mutex> lock(mu_);
            cv_work_.wait(lock, [this, seen_generation] {
                return shutdown_ || generation_ != seen_generation;
            });
            if (config_.profile) {
                profile_.executors[static_cast<std::size_t>(executor)]
                    .wait_ns += MonotonicNs() - w0;
            }
            if (shutdown_) return;
            seen_generation = generation_;
        }
        StealLoop(executor, /*adopt_fired=*/true);
        {
            std::lock_guard<std::mutex> lock(mu_);
            --remaining_;
        }
        cv_done_.notify_one();
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
    // Post-barrier: mailboxes drained on this (the driving) thread,
    // workers idle behind cv_done_ — cross-shard reads are race-free
    // and the round schedule is mode-identical, so anything the hook
    // derives is too.
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
    // Fold worker-thread counters into the driving thread's so
    // GlobalEventsFired() (the bench reporter) stays a
    // whole-simulation count.
    const std::uint64_t stolen =
        worker_fired_.exchange(0, std::memory_order_relaxed);
    if (stolen > 0) AdoptEventsFired(stolen);
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
