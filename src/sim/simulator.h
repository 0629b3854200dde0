// Discrete-event simulation kernel.
//
// The kernel is a single-threaded event queue ordered by (time, priority,
// sequence). Every hardware model in the library — PCIe DMA engines, SL3
// links, the torus router, the ranking pipeline stages — schedules
// callbacks here. Ties at the same simulated time break first on an
// explicit priority, then on insertion order, so runs are deterministic.
//
// The queue is a two-level hierarchical timing wheel with a sorted
// overflow heap (Varghese & Lauck, SOSP 1987). Level 0 buckets 65.5 ns
// slices over a ~67 us window; level 1 stages whole L0 windows over a
// ~68.7 ms horizon; anything further sits in the overflow heap until the
// wheels advance. Near-horizon schedule/pop — the dense load-sweep
// pattern — touches one small per-slice bucket heap instead of one
// global binary heap.
//
// Two rules keep the wheel cheap:
//
//  - The levels hold 24-byte keys (time, sequence, priority, slot), not
//    callbacks. Schedule parks the callback once in the event's slot of
//    the cancellation table; firing moves it out once, releases the slot
//    and invokes it. Heap sifts, L1 scatters and overflow rebases copy
//    keys and never relocate a closure.
//  - The cursor never passes the clock. Every pop takes an inclusive
//    limit (RunUntil's horizon, the last instant before RunUntilBefore's
//    bound) and moves no cursor when the earliest live event lies past
//    it; PeekNextTime reads the minimum where it lives. So an event
//    scheduled at or after Now() always lands at or ahead of the cursor,
//    and no level exists for events behind it.
//
// Against 96-byte entries that carried their callbacks, popped and put
// back at every stop and peek (4-core Xeon, GCC 12, Release, 10
// alternating pairs of perfbench/run.py): frontier simulate time -26%,
// blackout -23%, identical event counts and digests. In 10 alternating
// driver runs, one binary heap of these keys in place of the wheel was
// 26% slower on frontier and 5% faster on blackout (whose shards hold
// ~30 pending events each), so the wheel stays. The reference queue the
// wheel must match lives in tests/test_timing_wheel.cc as a
// sorted-container oracle; there is no queue toggle here.
//
// Cancellation is generation-stamped: each pending event owns a slot in
// a free-listed table and its handle packs (slot, generation). Cancel is
// a bounds-check plus a flag store — O(1), no hashing, and a handle for
// an already-fired event can never leak memory because its generation no
// longer matches. A cancelled entry's callback is destroyed when the
// queue discards the entry.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sim/inline_function.h"

namespace catapult::sim {

/** Callback invoked when a scheduled event fires. */
using EventFn = InlineFunction<void()>;

/**
 * Priorities for same-tick ordering. Lower values run first. Most
 * events use kDefault; "link delivered a flit" style events use
 * kDeliver so consumers observe data before same-tick producers act.
 */
enum class EventPriority : int {
    kDeliver = 0,
    kDefault = 10,
    kTimeout = 20,
};

/** Handle to a scheduled event, usable for cancellation. */
class EventHandle {
  public:
    EventHandle() = default;

    bool valid() const { return id_ != 0; }
    std::uint64_t id() const { return id_; }

  private:
    friend class Simulator;
    explicit EventHandle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
};

/**
 * The event queue and simulated clock.
 *
 * Components hold a Simulator* and use ScheduleAt/ScheduleAfter. Run()
 * drains events until the queue empties or a configured horizon is hit.
 */
class Simulator {
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    Time Now() const { return now_; }

    /**
     * Schedule `fn` at absolute time `when`. A `when` earlier than Now()
     * aborts the process in every build, naming both times.
     */
    EventHandle ScheduleAt(Time when, EventFn fn,
                           EventPriority priority = EventPriority::kDefault);

    /** Schedule `fn` after `delay` (>= 0) from now. */
    EventHandle ScheduleAfter(Time delay, EventFn fn,
                              EventPriority priority = EventPriority::kDefault);

    /**
     * Schedule a daemon (background) event. Daemon events model
     * open-ended recurring processes — SEU upsets, periodic scrubbing —
     * that must not keep Run() alive: Run() stops once only daemon
     * events remain, while RunUntil() still executes them up to the
     * horizon.
     */
    EventHandle ScheduleDaemonAt(Time when, EventFn fn,
                                 EventPriority priority = EventPriority::kDefault);
    EventHandle ScheduleDaemonAfter(Time delay, EventFn fn,
                                    EventPriority priority = EventPriority::kDefault);

    /** Cancel a pending event; no-op if it already fired or was cancelled. */
    void Cancel(const EventHandle& handle);

    /**
     * Take the sequence number an event scheduled right now would get,
     * without scheduling one. A model that replaces an event with
     * arithmetic (an SL3 link's serialization end) keeps the number so
     * that, if it later needs the event after all, ScheduleReserved
     * places it at exactly the (time, priority, sequence) position it
     * would have held.
     */
    std::uint64_t ReserveSequence() { return next_sequence_++; }

    /**
     * Schedule `fn` at the key (when, priority, sequence), where
     * `sequence` came from ReserveSequence. Aborts in every build when
     * that key is already behind the kernel (see Passed).
     */
    EventHandle ScheduleReserved(Time when, std::uint64_t sequence, EventFn fn,
                                 EventPriority priority = EventPriority::kDefault);

    /**
     * True once the kernel has run past the key (when, priority,
     * sequence): an event holding it would already have fired. Inside
     * a callback that is "the key does not follow every event fired so
     * far"; after RunUntil(h) every key at or before h has passed, and
     * after RunUntilBefore(b) every key before b.
     */
    bool Passed(Time when, EventPriority priority,
                std::uint64_t sequence) const {
        const Key key{when, sequence, static_cast<std::int32_t>(priority), 0};
        return !key.After(frontier_);
    }

    /** Run until the queue is empty. Returns the number of events fired. */
    std::uint64_t Run();

    /** Run until the queue is empty or simulated time reaches `horizon`. */
    std::uint64_t RunUntil(Time horizon);

    /**
     * Run events strictly before `bound` — the half-open epoch primitive
     * for SimulatorGroup. Events at exactly `bound` stay pending (they
     * belong to the next epoch, after the barrier has delivered any
     * cross-shard messages landing at `bound`); the clock is left at
     * `bound` so barrier-time ScheduleAt(bound, ...) is legal.
     */
    std::uint64_t RunUntilBefore(Time bound);

    /**
     * Time of the earliest pending event, daemons included; false when
     * the queue is empty. Used for epoch skip-ahead — daemons count
     * because they schedule foreground work (watchdogs, forecasters),
     * so jumping past one would change simulation semantics. Moves no
     * cursor and never changes what fires next; it only discards
     * cancelled entries in front of the minimum.
     */
    bool PeekNextTime(Time* when);

    /** Fire at most one event. Returns false when the queue is empty. */
    bool Step();

    /** True when no non-daemon events are pending. */
    bool Empty() const { return live_events_ == daemon_events_; }

    /** Number of pending (non-cancelled) events, daemons included. */
    std::uint64_t PendingEvents() const { return live_events_; }

    /** Total events fired since construction. */
    std::uint64_t EventsFired() const { return events_fired_; }

    /**
     * Size of the cancellation slot table — pending plus
     * cancelled-but-unpopped events, never more than the historic peak.
     * Test introspection: a schedule/fire/cancel loop must not grow it.
     */
    std::size_t event_slots() const { return slots_.size(); }

  private:
    // --- Wheel geometry --------------------------------------------------
    // L0 slice: 2^16 ps ~ 65.5 ns. L0 window: 1024 slices ~ 67 us, always
    // aligned to a whole level-1 slot. L1 slot: one L0 window; L1 window:
    // 1024 slots ~ 68.7 ms. Beyond that, the overflow heap.
    static constexpr int kSliceBits = 16;
    static constexpr int kWheelBits = 10;
    static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;
    static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kBitmapWords = kWheelSize / 64;

    /**
     * What every queue level holds: 24 bytes, copied by heap sifts and
     * wheel moves. The callback lives in slots_[slot].
     */
    struct Key {
        Time when;
        std::uint64_t sequence;
        std::int32_t priority;
        std::uint32_t slot;  ///< Slot-table index.

        /** Strict-weak "fires later than" — the deterministic contract. */
        bool After(const Key& other) const {
            if (when != other.when) return when > other.when;
            if (priority != other.priority) return priority > other.priority;
            return sequence > other.sequence;
        }
    };
    static_assert(sizeof(Key) == 24);

    struct LaterFirst {
        bool operator()(const Key& a, const Key& b) const {
            return a.After(b);
        }
    };

    /** Per pending event: its callback and generation-stamped cancel state. */
    struct Slot {
        EventFn fn;
        std::uint32_t generation = 1;
        bool cancelled = false;
        bool daemon = false;
    };

    EventHandle Schedule(Time when, std::uint64_t sequence, EventFn fn,
                         EventPriority priority, bool daemon);
    /** Move the frontier (see Passed) up to `key` if it lies beyond. */
    void Advance(const Key& key) {
        if (key.After(frontier_)) frontier_ = key;
    }
    void Insert(const Key& key);
    /**
     * Pop the earliest live event if it fires at or before `last`,
     * discarding cancelled entries on the way. Returns false, with no
     * cursor moved past `last`, when the queue holds no live event at or
     * before it. The popped event's slot stays allocated until
     * FireAndRelease.
     */
    bool PopNext(Time last, Key& out);
    /** Drop the cancelled entries ahead of the earliest live one. */
    void DropCancelledFront();
    void FireAndRelease(const Key& key);
    /** Destroy a cancelled entry's callback and free its slot. */
    void Discard(std::uint32_t slot);
    void ReleaseSlot(std::uint32_t slot);
    std::uint32_t AcquireSlot(bool daemon);

    std::uint64_t l0_end_slice() const {
        return (l1_cursor_ + 1) << kWheelBits;
    }
    /** First occupied L0 bucket index; l0_count_ must be > 0. */
    std::uint64_t FirstL0Bucket() const;
    /** First staged L1 slot index; l1_count_ must be > 0. */
    std::uint64_t FirstL1Slot() const;
    void PopL0Top(std::uint64_t index);
    void PopOverflowTop();

    // Level 0: per-slice bucket heaps over [l1_cursor_ * 1024, +1024).
    std::array<std::vector<Key>, kWheelSize> l0_{};
    std::array<std::uint64_t, kBitmapWords> l0_occupied_{};
    /** Absolute slice; earlier slices fired. Never past Now()'s slice. */
    std::uint64_t l0_cursor_ = 0;
    std::uint64_t l0_count_ = 0;

    // Level 1: unsorted staging slots over [l1_base_slot_, +1024).
    std::array<std::vector<Key>, kWheelSize> l1_{};
    std::array<std::uint64_t, kBitmapWords> l1_occupied_{};
    std::uint64_t l1_base_slot_ = 0;
    std::uint64_t l1_cursor_ = 0;  ///< Slot currently mapped into L0.
    std::uint64_t l1_count_ = 0;

    /** Min-heap (std::*_heap with LaterFirst) for the far future. */
    std::vector<Key> overflow_;

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;

    Time now_ = 0;
    std::uint64_t next_sequence_ = 1;
    /**
     * The latest key the kernel has run past: the maximum fired key,
     * raised to a horizon's last key when RunUntil/RunUntilBefore
     * return. Starts before every schedulable key.
     */
    Key frontier_{-1, 0, 0, 0};
    std::uint64_t live_events_ = 0;
    std::uint64_t daemon_events_ = 0;
    std::uint64_t events_fired_ = 0;
};

/**
 * Process-wide events-fired counter, summed over every Simulator
 * instance (bench harnesses report events/second from it).
 */
std::uint64_t GlobalEventsFired();

/**
 * Add `n` to this thread's GlobalEventsFired() counter: for benches
 * that model work analytically instead of firing events for it.
 */
void AdoptEventsFired(std::uint64_t n);

/**
 * A clock domain derived from the kernel clock. Converts cycle counts to
 * Time spans and aligns times to the next rising edge, so 150/125/180/166
 * MHz role clocks (Table 1) can coexist exactly.
 */
class ClockDomain {
  public:
    ClockDomain() = default;
    explicit ClockDomain(Frequency frequency) : period_(frequency.Period()) {}

    Time period() const { return period_; }

    /** Span of `cycles` clock cycles. */
    Time Cycles(std::int64_t cycles) const { return period_ * cycles; }

    /** The first rising-edge time >= `t`. */
    Time NextEdge(Time t) const {
        if (period_ <= 0) return t;
        const Time remainder = t % period_;
        return remainder == 0 ? t : t + (period_ - remainder);
    }

    /** Whole cycles elapsed in `span` (floor). */
    std::int64_t CyclesIn(Time span) const {
        return period_ > 0 ? span / period_ : 0;
    }

  private:
    Time period_ = 0;
};

}  // namespace catapult::sim
