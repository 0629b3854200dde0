// Timing-wheel event-queue coverage: the ordering contract under wheel
// geometry edges (slice/slot/overflow boundaries, horizon stops,
// rollover), generation-stamped cancellation, callback lifetimes, and
// differential runs against a sorted-container reference queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::sim {
namespace {

/**
 * Reference queue for the differential tests: one ordered map keyed by
 * (time, priority, sequence) with the kernel's schedule, cancel, daemon
 * and epoch semantics, written for obviousness rather than speed.
 */
class OracleQueue {
  public:
    using Handle = std::uint64_t;

    Time Now() const { return now_; }

    Handle ScheduleAt(Time when, std::function<void()> fn,
                      EventPriority priority = EventPriority::kDefault) {
        return Add(when, std::move(fn), priority, /*daemon=*/false);
    }
    Handle ScheduleAfter(Time delay, std::function<void()> fn,
                         EventPriority priority = EventPriority::kDefault) {
        return Add(now_ + delay, std::move(fn), priority, /*daemon=*/false);
    }
    Handle ScheduleDaemonAt(Time when, std::function<void()> fn,
                            EventPriority priority = EventPriority::kDefault) {
        return Add(when, std::move(fn), priority, /*daemon=*/true);
    }
    Handle ScheduleDaemonAfter(Time delay, std::function<void()> fn,
                               EventPriority priority =
                                   EventPriority::kDefault) {
        return Add(now_ + delay, std::move(fn), priority, /*daemon=*/true);
    }

    void Cancel(Handle handle) {
        const auto it = index_.find(handle);
        if (it == index_.end()) return;
        auto node = queue_.extract(it->second);
        index_.erase(it);
        if (!node.mapped().daemon) --foreground_;
        // The callback is destroyed here, with both maps consistent: a
        // captured object's destructor may schedule.
    }

    std::uint64_t Run() {
        std::uint64_t fired = 0;
        for (; foreground_ > 0; ++fired) FireFirst();
        return fired;
    }

    std::uint64_t RunUntil(Time horizon) {
        std::uint64_t fired = 0;
        for (; !queue_.empty() && First().when <= horizon; ++fired) {
            FireFirst();
        }
        if (now_ < horizon) now_ = horizon;
        return fired;
    }

    std::uint64_t RunUntilBefore(Time bound) {
        std::uint64_t fired = 0;
        for (; !queue_.empty() && First().when < bound; ++fired) FireFirst();
        if (now_ < bound) now_ = bound;
        return fired;
    }

    bool PeekNextTime(Time* when) const {
        if (queue_.empty()) return false;
        *when = First().when;
        return true;
    }

    std::uint64_t PendingEvents() const { return queue_.size(); }

  private:
    struct Key {
        Time when;
        int priority;
        std::uint64_t sequence;
        auto operator<=>(const Key&) const = default;
    };
    struct Entry {
        std::function<void()> fn;
        bool daemon;
        Handle handle;
    };

    Handle Add(Time when, std::function<void()> fn, EventPriority priority,
               bool daemon) {
        const Key key{when, static_cast<int>(priority), next_sequence_++};
        const Handle handle = key.sequence;
        queue_.emplace(key, Entry{std::move(fn), daemon, handle});
        index_.emplace(handle, key);
        if (!daemon) ++foreground_;
        return handle;
    }

    const Key& First() const { return queue_.begin()->first; }

    void FireFirst() {
        auto node = queue_.extract(queue_.begin());
        index_.erase(node.mapped().handle);
        if (!node.mapped().daemon) --foreground_;
        now_ = node.key().when;
        node.mapped().fn();
    }

    std::map<Key, Entry> queue_;
    std::unordered_map<Handle, Key> index_;
    Time now_ = 0;
    std::uint64_t next_sequence_ = 1;
    std::uint64_t foreground_ = 0;
};

// Deterministic xorshift so the seeded scenarios are identical run to run.
struct Rng {
    explicit Rng(std::uint64_t seed)
        : state(0x9E3779B97F4A7C15ull ^ (seed * 0x2545F4914F6CDD1Dull)) {}
    std::uint64_t state;
    std::uint64_t Next() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

/** Seeds per differential test; seed 0 is the original single scenario. */
constexpr std::uint64_t kSeeds = 64;

/** Identical transcripts, or a failure naming the seed and first mismatch. */
template <typename Entry>
::testing::AssertionResult SameTranscript(const std::vector<Entry>& wheel,
                                          const std::vector<Entry>& oracle,
                                          std::uint64_t seed) {
    const auto [w, o] = std::mismatch(wheel.begin(), wheel.end(),
                                      oracle.begin(), oracle.end());
    if (w == wheel.end() && o == oracle.end()) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "seed " << seed << " diverged at record " << (w - wheel.begin())
           << " (wheel " << wheel.size() << " records, oracle "
           << oracle.size() << ")";
}

struct FiredEvent {
    Time when;
    int tag;
    bool operator==(const FiredEvent& other) const {
        return when == other.when && tag == other.tag;
    }
};

/**
 * A mixed workload crossing every wheel level: sub-slice ties, L0
 * window hops, L1 staging, overflow times, cancellations (stale ones
 * included) and callback-driven reschedules.
 */
template <typename Queue>
std::vector<FiredEvent> RunGoldenScenario(std::uint64_t seed) {
    Queue sim;
    Rng rng(seed);
    std::vector<FiredEvent> fired;
    std::vector<decltype(sim.ScheduleAt(0, [] {}))> handles;
    int tag = 0;

    for (int i = 0; i < 400; ++i) {
        Time at = 0;
        switch (rng.Next() % 5) {
          case 0: at = static_cast<Time>(rng.Next() % 256); break;          // sub-slice
          case 1: at = Nanoseconds(static_cast<Time>(rng.Next() % 2000)); break;  // L0
          case 2: at = Microseconds(static_cast<Time>(rng.Next() % 500)); break;  // L1
          case 3: at = Milliseconds(static_cast<Time>(rng.Next() % 60)); break;   // L1 edge
          default: at = Milliseconds(static_cast<Time>(rng.Next() % 900)); break; // overflow
        }
        const auto priority =
            static_cast<EventPriority>((rng.Next() % 3) * 10);
        const int t = ++tag;
        handles.push_back(sim.ScheduleAt(at, [&fired, &sim, t] {
            fired.push_back({sim.Now(), t});
        }, priority));
        if (rng.Next() % 6 == 0) {
            sim.Cancel(handles[rng.Next() % handles.size()]);
        }
    }
    // A couple of rescheduling chains that hop across levels.
    for (int chain = 0; chain < 3; ++chain) {
        const int t = ++tag;
        sim.ScheduleAfter(Microseconds(10 + chain), [&, t]() {
            fired.push_back({sim.Now(), t});
            const int t2 = ++tag;
            sim.ScheduleAfter(Milliseconds(100), [&fired, &sim, t2] {
                fired.push_back({sim.Now(), t2});
            });
        });
    }
    sim.Run();
    return fired;
}

TEST(TimingWheel, GoldenDeterminismMatchesBinaryHeap) {
    // The reference is the sorted-container oracle above; it replaced
    // the binary heap that used to ship inside the kernel.
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        ASSERT_TRUE(SameTranscript(RunGoldenScenario<Simulator>(seed),
                                   RunGoldenScenario<OracleQueue>(seed), seed));
    }
}

/**
 * One dense slice: 2,048 events inside a single 65.5 ns slice at L0, L1
 * or overflow distance, in three priorities with many exact ties. About
 * a sixth are cancelled before the slice is reached; while the slice is
 * the one under the cursor, a quarter of the firing callbacks schedule
 * more into the rest of it and some cancel an earlier event.
 */
template <typename Queue>
std::vector<FiredEvent> RunDenseSliceScenario(std::uint64_t seed) {
    constexpr Time kSlice = Time{1} << 16;
    constexpr int kEvents = 2'048;
    Queue sim;
    Rng rng(seed);
    std::vector<FiredEvent> fired;
    std::vector<decltype(sim.ScheduleAt(0, [] {}))> handles;
    int tag = 0;

    // The slice's index at L0, L1 and overflow distance from time 0.
    const std::uint64_t slices[] = {1 + rng.Next() % 1'000,
                                    2'000 + rng.Next() % 1'000'000,
                                    1'100'000 + rng.Next() % 1'000'000};
    const Time start = kSlice * static_cast<Time>(slices[seed % 3]);
    std::function<void(Time)> schedule = [&](Time at) {
        const int t = ++tag;
        const auto priority =
            static_cast<EventPriority>((rng.Next() % 3) * 10);
        handles.push_back(sim.ScheduleAt(at, [&, t] {
            fired.push_back({sim.Now(), t});
            if (rng.Next() % 4 == 0) {
                const Time left = start + kSlice - sim.Now();
                schedule(sim.Now() + static_cast<Time>(rng.Next() % left));
            }
            if (rng.Next() % 8 == 0) {
                sim.Cancel(handles[rng.Next() % handles.size()]);
            }
        }, priority));
    };
    for (int i = 0; i < kEvents; ++i) {
        // Half on 64 shared instants, half anywhere in the slice.
        schedule(start + static_cast<Time>(rng.Next() % 2 == 0
                                               ? (rng.Next() % 64) * 1'024
                                               : rng.Next() % kSlice));
    }
    for (auto& handle : handles) {
        if (rng.Next() % 6 == 0) sim.Cancel(handle);
    }
    sim.Run();
    return fired;
}

TEST(TimingWheel, DenseSliceMatchesOracle) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const auto wheel = RunDenseSliceScenario<Simulator>(seed);
        ASSERT_GT(wheel.size(), 1'500u) << "seed " << seed;
        ASSERT_TRUE(SameTranscript(
            wheel, RunDenseSliceScenario<OracleQueue>(seed), seed));
    }
}

/** One line of an epoch-scenario transcript. */
struct Record {
    enum Kind { kFired, kPeek, kStop } kind;
    Time time;       ///< Fire time, peeked time, or Now() after a stop.
    std::int64_t a;  ///< Tag, peek hit, or events fired by the stop.
    bool operator==(const Record&) const = default;
};

/**
 * The SimulatorGroup epoch primitives driven by hand: seeded rounds of
 * PeekNextTime, RunUntilBefore, RunUntil and daemon-only Run() stops.
 * After each stop the scenario schedules events between Now() and the
 * peeked minimum — at sub-slice, L0, L1 and overflow distances, exactly
 * where a wheel cursor that ran ahead of the clock would misfile them —
 * then cancels the peeked minimum. `peeks` extra PeekNextTime calls per
 * round must change nothing.
 */
template <typename Queue>
std::vector<Record> RunEpochScenario(std::uint64_t seed, int peeks) {
    Queue sim;
    Rng rng(seed);
    std::vector<Record> log;
    using Handle = decltype(sim.ScheduleAt(0, [] {}));
    // Pending foreground events by (when, priority, tag) — tags grow in
    // schedule order, so begin() is the queue's minimum.
    std::map<std::tuple<Time, int, int>, Handle> pending;
    int tag = 0;

    std::function<void(Time, int)> schedule = [&](Time when, int depth) {
        const int t = ++tag;
        const int priority = static_cast<int>(rng.Next() % 3) * 10;
        const auto key = std::make_tuple(when, priority, t);
        pending[key] = sim.ScheduleAt(
            when,
            [&, key, t, depth] {
                pending.erase(key);
                log.push_back({Record::kFired, sim.Now(), t});
                // Some events spawn a follow-up at a random distance.
                if (depth < 3 && rng.Next() % 3 == 0) {
                    const Time d = static_cast<Time>(rng.Next() % 4) == 0
                                       ? Milliseconds(80)
                                       : Microseconds(static_cast<Time>(
                                             rng.Next() % 300));
                    schedule(sim.Now() + d, depth + 1);
                }
            },
            static_cast<EventPriority>(priority));
    };
    // A slow heartbeat daemon keeps Run() stops daemon-only and leaves
    // gaps wide enough for every distance below.
    std::function<void()> beat = [&] {
        log.push_back({Record::kFired, sim.Now(), -1});
        sim.ScheduleDaemonAfter(Milliseconds(150), [&] { beat(); });
    };
    sim.ScheduleDaemonAt(Milliseconds(1), [&] { beat(); });

    auto peek = [&] {
        Time first = -1;
        const bool hit = sim.PeekNextTime(&first);
        for (int i = 0; i < peeks; ++i) {
            Time again = -1;
            EXPECT_EQ(sim.PeekNextTime(&again), hit);
            EXPECT_EQ(again, hit ? first : Time{-1});
        }
        log.push_back({Record::kPeek, hit ? first : -1, hit ? 1 : 0});
        return std::make_pair(hit, first);
    };

    for (int i = 0; i < 40; ++i) {
        schedule(static_cast<Time>(rng.Next() % Milliseconds(200)), 0);
    }
    for (int round = 0; round < 120; ++round) {
        const auto [hit, next] = peek();
        const Time span = (rng.Next() % 2 == 0)
                              ? Microseconds(static_cast<Time>(
                                    rng.Next() % 400))
                              : Milliseconds(static_cast<Time>(
                                    rng.Next() % 90));
        std::uint64_t fired = 0;
        switch (rng.Next() % 4) {
          case 0: fired = sim.RunUntilBefore(sim.Now() + span); break;
          case 1: fired = sim.RunUntilBefore(hit ? next : sim.Now()); break;
          case 2: fired = sim.RunUntil(sim.Now() + span); break;
          default: fired = sim.Run(); break;
        }
        log.push_back({Record::kStop, sim.Now(),
                       static_cast<std::int64_t>(fired)});

        // Fill the gap between the clock and the peeked minimum, then
        // cancel that minimum when it is a foreground event.
        const auto [has_min, min_time] = peek();
        const bool foreground_min =
            has_min && !pending.empty() &&
            std::get<0>(pending.begin()->first) == min_time;
        const auto victim = foreground_min ? pending.begin()->first
                                           : std::tuple<Time, int, int>{};
        const Time gap =
            has_min ? min_time - sim.Now() : Milliseconds(300);
        for (const Time distance :
             {Picoseconds(static_cast<Time>(rng.Next() % 60'000)),
              Nanoseconds(static_cast<Time>(rng.Next() % 60'000)),
              Microseconds(static_cast<Time>(rng.Next() % 60'000)),
              Milliseconds(70 + static_cast<Time>(rng.Next() % 200))}) {
            schedule(sim.Now() + std::min(distance, gap), 0);
        }
        if (foreground_min) {
            sim.Cancel(pending.at(victim));
            pending.erase(victim);
        }
    }
    sim.Run();
    log.push_back({Record::kStop, sim.Now(),
                   static_cast<std::int64_t>(sim.PendingEvents())});
    return log;
}

TEST(TimingWheel, EpochPrimitivesMatchOracle) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const auto wheel = RunEpochScenario<Simulator>(seed, /*peeks=*/0);
        ASSERT_TRUE(SameTranscript(
            wheel, RunEpochScenario<OracleQueue>(seed, /*peeks=*/0), seed));
        // Repeated peeks are idempotent and never change what fires.
        ASSERT_TRUE(SameTranscript(
            RunEpochScenario<Simulator>(seed, /*peeks=*/3), wheel, seed));
    }
}

/**
 * Callbacks whose captured object's destructor schedules a follow-up at
 * a time fixed in advance. Clusters of them sit at sub-slice, L0, L1 or
 * overflow distance, three in four cancelled, and each follow-up lands
 * in the same slice as its parent or at L0, L1 or overflow distance
 * from it. The kernel destroys a cancelled callback when it discards
 * the entry (from the current slice's heap, a list a peek finds all
 * cancelled, the overflow top, or when nothing live is left), the
 * oracle at Cancel. Every time here is distinct, so the order never
 * falls to the sequence numbers the two queues give a follow-up at
 * different moments, and the transcript logs fires and stops but not
 * peeked times: a peek at the kernel sees a follow-up only once its
 * parent is discarded.
 */
template <typename Queue>
std::vector<Record> RunDiscardScenario(std::uint64_t seed) {
    constexpr Time kSlice = Time{1} << 16;
    Queue sim;
    Rng rng(seed);
    std::vector<Record> log;
    // Cleared when the transcript ends: a follow-up scheduled while the
    // queue is destroyed would reach a dying queue.
    bool armed = true;
    std::set<Time> used;
    int tag = 0;

    struct FollowUp {
        FollowUp(Queue* sim, Time at, int tag, std::vector<Record>* log,
                 const bool* armed)
            : sim(sim), at(at), tag(tag), log(log), armed(armed) {}
        FollowUp(const FollowUp&) = delete;
        FollowUp& operator=(const FollowUp&) = delete;
        ~FollowUp() {
            if (!*armed) return;
            sim->ScheduleAt(at, [s = sim, l = log, t = tag] {
                l->push_back({Record::kFired, s->Now(), t});
            });
        }
        Queue* sim;
        Time at;
        int tag;
        std::vector<Record>* log;
        const bool* armed;
    };

    auto distinct = [&](Time at) {
        while (!used.insert(at).second) ++at;
        return at;
    };
    auto draw = [&](std::uint64_t n) {
        return static_cast<Time>(rng.Next() % n);
    };
    // A distance of each kind: 0 sub-slice, 1 L0, 2 L1, 3 overflow.
    auto distance = [&](Time kind) -> Time {
        switch (kind) {
          case 0: return draw(4'096);
          case 1: return Nanoseconds(100 + draw(60'000));
          case 2: return Microseconds(70 + draw(60'000));
          default: return Milliseconds(70 + draw(230));
        }
    };
    auto priority = [&] {
        return static_cast<EventPriority>((rng.Next() % 3) * 10);
    };

    for (int round = 0; round < 60; ++round) {
        const Time base = sim.Now() + distance(draw(4));
        const Time cluster = 1 + draw(4);
        for (Time i = 0; i < cluster; ++i) {
            const Time at = distinct(base + draw(2'000));
            const Time kind = draw(4);
            // Kind 0 stays inside the parent's own slice.
            const Time gap =
                kind == 0 ? draw(static_cast<std::uint64_t>(kSlice - at % kSlice))
                          : distance(kind);
            auto follow = std::make_shared<FollowUp>(
                &sim, distinct(at + gap), ++tag, &log, &armed);
            const int t = ++tag;
            const auto handle = sim.ScheduleAt(
                at,
                [follow = std::move(follow), &log, &sim, t] {
                    log.push_back({Record::kFired, sim.Now(), t});
                },
                priority());
            if (rng.Next() % 4 != 0) sim.Cancel(handle);
        }
        // Sometimes a live event past the cluster, so pops rather than
        // peeks discard it.
        if (rng.Next() % 2 == 0) {
            const int t = ++tag;
            sim.ScheduleAt(
                distinct(base + Microseconds(draw(900))),
                [&log, &sim, t] {
                    log.push_back({Record::kFired, sim.Now(), t});
                },
                priority());
        }
        if (rng.Next() % 3 == 0) {
            Time ignored = 0;
            sim.PeekNextTime(&ignored);
        }
        const Time span = rng.Next() % 2 == 0 ? Microseconds(draw(400))
                                              : Milliseconds(draw(200));
        std::uint64_t fired = 0;
        switch (rng.Next() % 3) {
          case 0: fired = sim.RunUntil(sim.Now() + span); break;
          case 1: fired = sim.RunUntilBefore(sim.Now() + span); break;
          default: fired = sim.Run(); break;
        }
        log.push_back({Record::kStop, sim.Now(),
                       static_cast<std::int64_t>(fired)});
    }
    const std::uint64_t fired = sim.Run();
    log.push_back({Record::kStop, sim.Now(), static_cast<std::int64_t>(fired)});
    log.push_back({Record::kStop, sim.Now(),
                   static_cast<std::int64_t>(sim.PendingEvents())});
    armed = false;
    return log;
}

TEST(TimingWheel, DiscardedCallbackMayScheduleAtEveryDistance) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        ASSERT_TRUE(SameTranscript(RunDiscardScenario<Simulator>(seed),
                                   RunDiscardScenario<OracleQueue>(seed),
                                   seed));
    }
}

TEST(TimingWheel, SameTickPriorityOrderingAcrossLevels) {
    // Same simulated instant, scheduled while the instant is still in
    // different wheel levels (far future at first), mixed priorities:
    // ties must break (priority, insertion order) exactly.
    Simulator sim;
    const Time tick = Milliseconds(200);  // starts life in overflow
    std::vector<int> order;
    sim.ScheduleAt(tick, [&] { order.push_back(0); },
                   EventPriority::kTimeout);
    sim.ScheduleAt(tick, [&] { order.push_back(1); },
                   EventPriority::kDeliver);
    sim.ScheduleAt(tick, [&] { order.push_back(2); },
                   EventPriority::kDefault);
    sim.ScheduleAt(tick, [&] { order.push_back(3); },
                   EventPriority::kDeliver);
    // Drag the wheel close first so the tick crosses overflow -> L1 ->
    // L0 before firing.
    sim.ScheduleAt(Milliseconds(199), [&] {
        sim.ScheduleAt(tick, [&] { order.push_back(4); },
                       EventPriority::kDeliver);
    });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2, 0}));
}

TEST(TimingWheel, HorizonCrossingDefersDaemonsAndStaysOrdered) {
    Simulator sim;
    std::vector<int> order;
    std::uint64_t daemon_fires = 0;
    // A recurring daemon that would run forever under RunUntil.
    std::function<void()> tick = [&] {
        ++daemon_fires;
        sim.ScheduleDaemonAfter(Microseconds(30), [&] { tick(); });
    };
    sim.ScheduleDaemonAfter(Microseconds(30), [&] { tick(); });
    sim.ScheduleAt(Microseconds(100), [&] { order.push_back(1); });
    sim.ScheduleAt(Milliseconds(80), [&] { order.push_back(2); });

    // Stop mid-way: the ms-80 event lies past the horizon and stays
    // where it is; no cursor moves past the clock.
    sim.RunUntil(Milliseconds(1));
    EXPECT_EQ(sim.Now(), Milliseconds(1));
    EXPECT_EQ(order, std::vector<int>{1});
    const std::uint64_t fires_at_horizon = daemon_fires;
    EXPECT_GT(fires_at_horizon, 0u);

    // Events scheduled after the horizon stop, earlier than the
    // deferred one, must still fire first.
    sim.ScheduleAfter(Microseconds(5), [&] { order.push_back(3); });
    sim.Run();  // stops once only the daemon remains
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_TRUE(sim.Empty());             // no foreground work left...
    EXPECT_GT(sim.PendingEvents(), 0u);   // ...but the daemon is pending
}

TEST(TimingWheel, RolloverAtFarFutureTimes) {
    // Each event is beyond the previous L1 window, forcing repeated
    // overflow rebases; interleaved near events after each rebase
    // verify the rebased windows still order correctly.
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        sim.ScheduleAt(Milliseconds(100) * (i + 1), [&order, &sim, i] {
            order.push_back(i);
            // A short chase event lands in the freshly rebased window.
            sim.ScheduleAfter(Nanoseconds(50), [&order, i] {
                order.push_back(100 + i);
            });
        });
    }
    sim.ScheduleAt(Seconds(5), [&order] { order.push_back(999); });
    sim.Run();
    std::vector<int> expected;
    for (int i = 0; i < 8; ++i) {
        expected.push_back(i);
        expected.push_back(100 + i);
    }
    expected.push_back(999);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(TimingWheel, CancelThenRescheduleReusesSlots) {
    Simulator sim;
    // Steady-state churn: schedule, cancel, reschedule. The slot table
    // must plateau at the in-flight peak, not grow with churn.
    int fired = 0;
    for (int round = 0; round < 10'000; ++round) {
        EventHandle doomed =
            sim.ScheduleAfter(Microseconds(5), [&] { ++fired; });
        sim.Cancel(doomed);
        sim.Cancel(doomed);  // double-cancel is a no-op
        sim.ScheduleAfter(Microseconds(1), [&] { ++fired; });
        sim.Run();
    }
    EXPECT_EQ(fired, 10'000);
    // One live + one cancelled slot in flight at peak.
    EXPECT_LE(sim.event_slots(), 4u);
}

TEST(TimingWheel, StepOverOnlyCancelledEntriesKeepsCursorAtClock) {
    // A Step() that finds nothing live must not advance the wheel onto
    // the cancelled entry's L1 slot: events scheduled afterwards, in the
    // gap before it, would alias into the wrong L0 buckets.
    Simulator sim;
    sim.Cancel(sim.ScheduleAt(Milliseconds(10), [] {}));
    EXPECT_FALSE(sim.Step());
    EXPECT_EQ(sim.event_slots(), 1u);
    std::vector<Time> fired;
    for (int i = 0; i < 50; ++i) {
        sim.ScheduleAt(Microseconds(397) * ((i * 17) % 50),
                       [&] { fired.push_back(sim.Now()); });
    }
    sim.Run();
    ASSERT_EQ(fired.size(), 50u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(TimingWheel, CancellingFiredHandlesDoesNotGrowState) {
    // Regression: cancelling a handle whose event already fired used to
    // park the id in a tombstone set forever; long-lived sims (every
    // timeout path cancels after completion) leaked. With
    // generation-stamped slots the stale cancel is a comparison miss.
    Simulator sim;
    std::vector<EventHandle> fired_handles;
    for (int round = 0; round < 50'000; ++round) {
        EventHandle h = sim.ScheduleAfter(Nanoseconds(100), [] {});
        sim.Run();
        fired_handles.push_back(h);
        sim.Cancel(fired_handles[static_cast<std::size_t>(round) / 2]);
        sim.Cancel(h);
    }
    EXPECT_EQ(sim.EventsFired(), 50'000u);
    EXPECT_EQ(sim.PendingEvents(), 0u);
    // The whole loop reuses one slot; the table must not scale with
    // the number of stale cancels.
    EXPECT_LE(sim.event_slots(), 2u);
}

// --- Callback lifetimes (callbacks live in the slot table) ------------

TEST(TimingWheel, CallbackSchedulingManyEventsSurvivesSlotTableGrowth) {
    // The firing callback schedules 10,000 events, growing the slot table
    // several times over while it runs. It must have been moved out of
    // the table before invocation: its captures are read after the
    // growth (ASan flags a use-after-free otherwise).
    Simulator sim;
    int fired = 0;
    std::array<std::uint32_t, 6> pattern{1, 2, 3, 5, 8, 13};
    std::uint32_t checksum = 0;
    sim.ScheduleAt(Microseconds(1), [&sim, &fired, &checksum, pattern] {
        for (int i = 0; i < 10'000; ++i) {
            sim.ScheduleAfter(Nanoseconds(i % 5'000), [&fired] { ++fired; });
        }
        for (const std::uint32_t v : pattern) checksum += v;
    });
    sim.Run();
    EXPECT_EQ(fired, 10'000);
    EXPECT_EQ(checksum, 32u);
    EXPECT_GE(sim.event_slots(), 10'000u);
}

TEST(TimingWheel, CapturedStateReleasedAfterFiring) {
    Simulator sim;
    auto state = std::make_shared<int>(7);
    std::weak_ptr<int> watch = state;
    bool alive_while_firing = false;
    sim.ScheduleAt(Microseconds(2), [state, &watch, &alive_while_firing] {
        alive_while_firing = !watch.expired() && *state == 7;
    });
    state.reset();
    EXPECT_FALSE(watch.expired());  // parked in the slot table
    sim.Run();
    EXPECT_TRUE(alive_while_firing);
    EXPECT_TRUE(watch.expired());
}

TEST(TimingWheel, CapturedStateReleasedWhenCancelledEntryDiscarded) {
    // Cancelled entries at every level: L0, L1 and overflow.
    Simulator sim;
    std::vector<std::weak_ptr<int>> watches;
    for (const Time at : {Nanoseconds(500), Milliseconds(2), Seconds(1)}) {
        auto state = std::make_shared<int>(1);
        watches.push_back(state);
        sim.Cancel(sim.ScheduleAt(at, [state] { (void)*state; }));
    }
    sim.ScheduleAt(Seconds(2), [] {});
    sim.Run();
    for (const auto& watch : watches) EXPECT_TRUE(watch.expired());
    EXPECT_EQ(sim.EventsFired(), 1u);
}

TEST(TimingWheel, CapturedStateReleasedWhenSimulatorDestroyed) {
    std::vector<std::weak_ptr<int>> watches;
    {
        Simulator sim;
        for (const Time at : {Nanoseconds(500), Milliseconds(2), Seconds(1)}) {
            auto state = std::make_shared<int>(1);
            watches.push_back(state);
            sim.ScheduleAt(at, [state] { (void)*state; });
        }
        auto daemon_state = std::make_shared<int>(2);
        watches.push_back(daemon_state);
        sim.ScheduleDaemonAt(Milliseconds(5),
                             [daemon_state] { (void)*daemon_state; });
        sim.RunUntil(Nanoseconds(100));
        for (const auto& watch : watches) EXPECT_FALSE(watch.expired());
    }
    for (const auto& watch : watches) EXPECT_TRUE(watch.expired());
}

// --- InlineFunction (the EventFn small-buffer callable) ---------------

TEST(InlineFunctionTest, InvokesInlineAndBoxedTargets) {
    int hits = 0;
    InlineFunction<void()> small([&hits] { ++hits; });
    small();
    EXPECT_EQ(hits, 1);

    // Oversized capture: must take the heap-boxed path and still work.
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    InlineFunction<void()> boxed([big, &hits] {
        hits += static_cast<int>(big[15]);
    });
    boxed();
    EXPECT_EQ(hits, 8);
}

TEST(InlineFunctionTest, MoveTransfersTarget) {
    int hits = 0;
    InlineFunction<void()> a([&hits] { ++hits; });
    InlineFunction<void()> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    InlineFunction<void()> c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, DestroysCapturedState) {
    auto guard = std::make_shared<int>(42);
    std::weak_ptr<int> watch = guard;
    {
        InlineFunction<void()> fn([guard] { (void)*guard; });
        guard.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace catapult::sim
