// Unit tests for the discrete-event kernel.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace catapult::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.ScheduleAt(Microseconds(3), [&] { order.push_back(3); });
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back(1); });
    sim.ScheduleAt(Microseconds(2), [&] { order.push_back(2); });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.Now(), Microseconds(3));
}

TEST(Simulator, SameTickInsertionOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.ScheduleAt(Microseconds(1), [&, i] { order.push_back(i); });
    }
    sim.Run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, PriorityBreaksTies) {
    Simulator sim;
    std::vector<std::string> order;
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back("timeout"); },
                   EventPriority::kTimeout);
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back("deliver"); },
                   EventPriority::kDeliver);
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back("default"); },
                   EventPriority::kDefault);
    sim.Run();
    EXPECT_EQ(order, (std::vector<std::string>{"deliver", "default", "timeout"}));
}

TEST(Simulator, ScheduleAfterUsesNow) {
    Simulator sim;
    Time fired_at = -1;
    sim.ScheduleAfter(Microseconds(5), [&] {
        sim.ScheduleAfter(Microseconds(5), [&] { fired_at = sim.Now(); });
    });
    sim.Run();
    EXPECT_EQ(fired_at, Microseconds(10));
}

TEST(Simulator, CancelPreventsFiring) {
    Simulator sim;
    bool fired = false;
    const EventHandle handle =
        sim.ScheduleAfter(Microseconds(1), [&] { fired = true; });
    sim.Cancel(handle);
    sim.Run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.EventsFired(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
    Simulator sim;
    int fired = 0;
    const EventHandle handle =
        sim.ScheduleAfter(Microseconds(1), [&] { ++fired; });
    sim.Run();
    sim.Cancel(handle);  // already fired; must be a no-op
    sim.Cancel(handle);
    EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
    Simulator sim;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.ScheduleAt(Microseconds(i), [&] { ++fired; });
    }
    sim.RunUntil(Microseconds(5));
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.Now(), Microseconds(5));
    sim.Run();
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, HorizonDeferredEventStaysCancellable) {
    // Regression: RunUntil leaves the first event past the horizon
    // pending. An event cancelled after being deferred that way must
    // still never fire.
    Simulator sim;
    bool fired = false;
    const EventHandle handle =
        sim.ScheduleAt(Microseconds(100), [&] { fired = true; });
    sim.RunUntil(Microseconds(50));  // defers the event
    EXPECT_EQ(sim.Now(), Microseconds(50));
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Cancel(handle);
    sim.Run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.EventsFired(), 0u);
}

TEST(Simulator, CancelledEventSkippedAcrossHorizon) {
    // The mirror order: cancel first, then run past several horizons.
    // The lazily-deleted entry must be skipped, not deferred back in.
    Simulator sim;
    bool fired = false;
    int later = 0;
    const EventHandle handle =
        sim.ScheduleAt(Microseconds(100), [&] { fired = true; });
    sim.ScheduleAt(Microseconds(200), [&] { ++later; });
    sim.Cancel(handle);
    sim.RunUntil(Microseconds(50));
    sim.RunUntil(Microseconds(150));
    sim.Run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(later, 1);
    EXPECT_EQ(sim.EventsFired(), 1u);
}

TEST(Simulator, ManyCancellationsStayCheap) {
    // The timeout-heavy multi-ring pattern: every request schedules a
    // timeout and nearly all get cancelled on completion. O(1) Cancel
    // keeps this linear; the old sorted-vector insert was quadratic.
    Simulator sim;
    constexpr int kEvents = 20'000;
    std::vector<EventHandle> handles;
    handles.reserve(kEvents);
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
        handles.push_back(
            sim.ScheduleAt(Microseconds(1 + i), [&] { ++fired; }));
    }
    // Cancel in an order hostile to append-friendly structures.
    for (int i = kEvents - 1; i >= 0; --i) {
        if (i % 16 != 0) sim.Cancel(handles[static_cast<std::size_t>(i)]);
    }
    sim.Run();
    EXPECT_EQ(fired, kEvents / 16);
}

TEST(Simulator, StepSingleEvent) {
    Simulator sim;
    int fired = 0;
    sim.ScheduleAfter(1, [&] { ++fired; });
    sim.ScheduleAfter(2, [&] { ++fired; });
    EXPECT_TRUE(sim.Step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.Step());
    EXPECT_FALSE(sim.Step());
}

TEST(Simulator, EventsCanScheduleEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100) sim.ScheduleAfter(Nanoseconds(1), recurse);
    };
    sim.ScheduleAfter(0, recurse);
    sim.Run();
    EXPECT_EQ(depth, 100);
}

TEST(Simulator, PendingEventCount) {
    Simulator sim;
    const auto h1 = sim.ScheduleAfter(1, [] {});
    sim.ScheduleAfter(2, [] {});
    EXPECT_EQ(sim.PendingEvents(), 2u);
    sim.Cancel(h1);
    sim.Run();
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_TRUE(sim.Empty());
}

// A reserved sequence number places a later-scheduled event exactly
// where one scheduled at reservation time would have fired: after
// same-key events scheduled before the reservation, before those
// scheduled after it.
TEST(Simulator, ReservedSequenceKeepsItsPlace) {
    Simulator sim;
    std::vector<int> order;
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back(1); });
    const std::uint64_t reserved = sim.ReserveSequence();
    sim.ScheduleAt(Microseconds(1), [&] { order.push_back(3); });
    sim.ScheduleAt(Nanoseconds(500), [&] {
        sim.ScheduleReserved(Microseconds(1), reserved,
                             [&] { order.push_back(2); });
    });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Passed tells whether the kernel has run beyond a key: inside a
// callback, every key not after the firing one; after RunUntil(h),
// every key at or before h.
TEST(Simulator, PassedTracksTheFiringKey) {
    Simulator sim;
    const Time t = Microseconds(1);
    const std::uint64_t before = sim.ReserveSequence();
    bool inside_before = false;
    bool inside_after = true;
    bool inside_deliver = false;
    std::uint64_t after = 0;
    sim.ScheduleAt(t, [&] {
        inside_before = sim.Passed(t, EventPriority::kDefault, before);
        inside_after = sim.Passed(t, EventPriority::kDefault, after);
        inside_deliver = sim.Passed(t, EventPriority::kDeliver, after + 10);
    });
    after = sim.ReserveSequence();
    EXPECT_FALSE(sim.Passed(t, EventPriority::kDefault, before));
    sim.Run();
    EXPECT_TRUE(inside_before);
    EXPECT_FALSE(inside_after);
    EXPECT_TRUE(inside_deliver);
    EXPECT_FALSE(sim.Passed(Microseconds(3), EventPriority::kDeliver, 0));
    sim.RunUntil(Microseconds(3));
    EXPECT_TRUE(sim.Passed(Microseconds(3), EventPriority::kTimeout, after));
    EXPECT_FALSE(sim.Passed(Microseconds(3) + 1, EventPriority::kDeliver, 0));
}

TEST(SimulatorDeathTest, ReservedKeyBehindTheKernelAborts) {
    Simulator sim;
    const std::uint64_t reserved = sim.ReserveSequence();
    sim.ScheduleAt(Microseconds(1), [] {});
    sim.Run();
    EXPECT_DEATH(sim.ScheduleReserved(Microseconds(1), reserved, [] {}),
                 "reserved key \\(when=1000000 ps, sequence=1\\) is not "
                 "ahead of the kernel");
    EXPECT_DEATH(sim.ScheduleReserved(Microseconds(2), 1'000, [] {}),
                 "is not ahead of the kernel");
}

// Scheduling in the past is API misuse: it aborts in every build, with
// a message naming both times, instead of compiling out with NDEBUG.
TEST(SimulatorDeathTest, ScheduleAtInThePastAborts) {
    Simulator sim;
    sim.ScheduleAt(Microseconds(2), [] {});
    sim.Run();
    EXPECT_DEATH(sim.ScheduleAt(Microseconds(1), [] {}),
                 "cannot schedule in the past \\(when=1000000 ps < "
                 "Now\\(\\)=2000000 ps\\)");
    EXPECT_DEATH(sim.ScheduleDaemonAt(0, [] {}),
                 "cannot schedule in the past");
}

TEST(SimulatorDeathTest, NegativeDelayAborts) {
    Simulator sim;
    EXPECT_DEATH(sim.ScheduleAfter(-1, [] {}),
                 "cannot schedule in the past \\(when=-1 ps < "
                 "Now\\(\\)=0 ps\\)");
    EXPECT_DEATH(sim.ScheduleDaemonAfter(Nanoseconds(-5), [] {}),
                 "cannot schedule in the past");
}

TEST(ClockDomain, CyclesAndEdges) {
    const ClockDomain clock(Frequency::MHz(200.0));
    EXPECT_EQ(clock.period(), Picoseconds(5'000));
    EXPECT_EQ(clock.Cycles(1'600), Microseconds(8));
    EXPECT_EQ(clock.NextEdge(Picoseconds(1)), Picoseconds(5'000));
    EXPECT_EQ(clock.NextEdge(Picoseconds(5'000)), Picoseconds(5'000));
    EXPECT_EQ(clock.CyclesIn(Microseconds(1)), 200);
}

TEST(ClockDomain, MultipleDomainsCoexist) {
    // Table 1 stage clocks all derive exact spans from one kernel tick.
    const ClockDomain fe(Frequency::MHz(150.0));
    const ClockDomain ffe(Frequency::MHz(125.0));
    EXPECT_EQ(ffe.Cycles(1000), Microseconds(8));
    EXPECT_GT(fe.Cycles(1000), Microseconds(6));
    EXPECT_LT(fe.Cycles(1000), Microseconds(7));
}

}  // namespace
}  // namespace catapult::sim
