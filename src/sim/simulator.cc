#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace catapult::sim {

namespace {

// Events fired by Simulators on the calling thread. Simulation is
// single-threaded, so a plain thread-local costs nothing on the hot
// path; bench harnesses read it from the driving thread at exit.
thread_local std::uint64_t t_events_fired = 0;

/**
 * First set bit at index >= `from`, wrapping circularly over the whole
 * bitmap. Returns -1 when the bitmap is empty. `from` is a bit index in
 * [0, nwords * 64).
 */
int FindSetCircular(const std::uint64_t* words, std::size_t nwords,
                    unsigned from) {
    const std::size_t word = from >> 6;
    const unsigned bit = from & 63u;
    if (const std::uint64_t w = words[word] >> bit; w != 0) {
        return static_cast<int>(from) + std::countr_zero(w);
    }
    for (std::size_t i = 1; i <= nwords; ++i) {
        const std::size_t wi = (word + i) % nwords;
        if (words[wi] != 0) {
            return static_cast<int>(wi * 64) + std::countr_zero(words[wi]);
        }
    }
    return -1;
}

inline void SetBit(std::uint64_t* words, std::uint64_t index) {
    words[index >> 6] |= std::uint64_t{1} << (index & 63u);
}

inline void ClearBit(std::uint64_t* words, std::uint64_t index) {
    words[index >> 6] &= ~(std::uint64_t{1} << (index & 63u));
}

}  // namespace

std::uint64_t GlobalEventsFired() { return t_events_fired; }

void AdoptEventsFired(std::uint64_t n) { t_events_fired += n; }

std::uint32_t Simulator::AcquireSlot(bool daemon) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& record = slots_[slot];
    record.cancelled = false;
    record.daemon = daemon;
    return slot;
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
    // Bumping the generation invalidates every outstanding handle to
    // this slot: a later Cancel through a stale handle is a pure
    // comparison miss, never a leak and never a hit on the reused slot.
    ++slots_[slot].generation;
    free_slots_.push_back(slot);
}

void Simulator::Discard(std::uint32_t slot) {
    // Move the callback out first: its captures are destroyed after the
    // slot is free again, so a destructor that reaches back into the
    // simulator finds the table consistent.
    EventFn discarded = std::move(slots_[slot].fn);
    ReleaseSlot(slot);
}

EventHandle Simulator::Schedule(Time when, std::uint64_t sequence, EventFn fn,
                                EventPriority priority, bool daemon) {
    // Always on: a past event would be misfiled behind the wheel cursor
    // in builds where assert() compiles out.
    if (when < now_) [[unlikely]] {
        std::fprintf(stderr,
                     "sim::Simulator: cannot schedule in the past "
                     "(when=%lld ps < Now()=%lld ps)\n",
                     static_cast<long long>(when),
                     static_cast<long long>(now_));
        std::abort();
    }
    const std::uint32_t slot = AcquireSlot(daemon);
    slots_[slot].fn = std::move(fn);
    Insert(Key{when, sequence, static_cast<std::int32_t>(priority), slot});
    ++live_events_;
    if (daemon) ++daemon_events_;
    return EventHandle((static_cast<std::uint64_t>(slots_[slot].generation)
                        << 32) |
                       (slot + 1));
}

EventHandle Simulator::ScheduleAt(Time when, EventFn fn,
                                  EventPriority priority) {
    return Schedule(when, next_sequence_++, std::move(fn), priority,
                    /*daemon=*/false);
}

EventHandle Simulator::ScheduleReserved(Time when, std::uint64_t sequence,
                                        EventFn fn, EventPriority priority) {
    // Always on: a key the kernel already ran past would fire out of
    // order, after events it precedes.
    if (sequence >= next_sequence_ || Passed(when, priority, sequence))
        [[unlikely]] {
        std::fprintf(stderr,
                     "sim::Simulator: reserved key (when=%lld ps, "
                     "sequence=%llu) is not ahead of the kernel\n",
                     static_cast<long long>(when),
                     static_cast<unsigned long long>(sequence));
        std::abort();
    }
    return Schedule(when, sequence, std::move(fn), priority, /*daemon=*/false);
}

EventHandle Simulator::ScheduleAfter(Time delay, EventFn fn,
                                     EventPriority priority) {
    return Schedule(now_ + delay, next_sequence_++, std::move(fn), priority,
                    /*daemon=*/false);
}

EventHandle Simulator::ScheduleDaemonAt(Time when, EventFn fn,
                                        EventPriority priority) {
    return Schedule(when, next_sequence_++, std::move(fn), priority,
                    /*daemon=*/true);
}

EventHandle Simulator::ScheduleDaemonAfter(Time delay, EventFn fn,
                                           EventPriority priority) {
    return Schedule(now_ + delay, next_sequence_++, std::move(fn), priority,
                    /*daemon=*/true);
}

void Simulator::Cancel(const EventHandle& handle) {
    if (!handle.valid()) return;
    const auto slot_plus_one =
        static_cast<std::uint32_t>(handle.id_ & 0xFFFFFFFFull);
    const auto generation = static_cast<std::uint32_t>(handle.id_ >> 32);
    const std::uint32_t slot = slot_plus_one - 1;
    if (slot >= slots_.size()) return;  // not a handle of this simulator
    Slot& record = slots_[slot];
    // A fired or already-cancelled event bumped (or flagged) its slot:
    // the handle is stale and the cancel is a free no-op.
    if (record.generation != generation || record.cancelled) return;
    record.cancelled = true;
    --live_events_;
    if (record.daemon) --daemon_events_;
}

void Simulator::Insert(const Key& key) {
    const auto s0 = static_cast<std::uint64_t>(key.when) >> kSliceBits;
    // Schedule rejects past times and no pop moves the cursor past the
    // clock, so nothing lands behind it.
    assert(s0 >= l0_cursor_ && "event behind the wheel cursor");
    if (s0 < l0_end_slice()) {
        // Near horizon: straight into the slice's bucket heap. The L0
        // window is aligned to one L1 slot, so slice -> index is
        // injective within it.
        const std::uint64_t index = s0 & kWheelMask;
        auto& bucket = l0_[index];
        bucket.push_back(key);
        std::push_heap(bucket.begin(), bucket.end(), LaterFirst{});
        SetBit(l0_occupied_.data(), index);
        ++l0_count_;
        return;
    }
    const std::uint64_t s1 = s0 >> kWheelBits;
    if (s1 < l1_base_slot_ + kWheelSize) {
        // Mid horizon: stage unsorted; the slot is heapified bucket by
        // bucket when the L0 window advances onto it.
        const std::uint64_t index = s1 & kWheelMask;
        l1_[index].push_back(key);
        SetBit(l1_occupied_.data(), index);
        ++l1_count_;
        return;
    }
    // Far future (beyond ~68.7 ms): the sorted overflow level.
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
}

std::uint64_t Simulator::FirstL0Bucket() const {
    const int index =
        FindSetCircular(l0_occupied_.data(), kBitmapWords,
                        static_cast<unsigned>(l0_cursor_ & kWheelMask));
    assert(index >= 0);
    assert(static_cast<std::uint64_t>(index) >= (l0_cursor_ & kWheelMask) &&
           "aligned L0 window never wraps");
    return static_cast<std::uint64_t>(index);
}

std::uint64_t Simulator::FirstL1Slot() const {
    const int index =
        FindSetCircular(l1_occupied_.data(), kBitmapWords,
                        static_cast<unsigned>((l1_cursor_ + 1) & kWheelMask));
    assert(index >= 0);
    return static_cast<std::uint64_t>(index);
}

void Simulator::PopL0Top(std::uint64_t index) {
    auto& bucket = l0_[index];
    std::pop_heap(bucket.begin(), bucket.end(), LaterFirst{});
    bucket.pop_back();
    if (bucket.empty()) ClearBit(l0_occupied_.data(), index);
    --l0_count_;
}

void Simulator::PopOverflowTop() {
    std::pop_heap(overflow_.begin(), overflow_.end(), LaterFirst{});
    overflow_.pop_back();
}

void Simulator::DropCancelledFront() {
    Time ignored = 0;
    PeekNextTime(&ignored);
}

bool Simulator::PopNext(Time last, Key& out) {
    if (live_events_ == 0) {
        // Nothing can fire. An unbounded pop would otherwise advance the
        // window onto a slot of cancelled entries and leave the cursor
        // ahead of the clock.
        DropCancelledFront();
        return false;
    }
    for (;;) {
        if (l0_count_ > 0) {
            const std::uint64_t index = FirstL0Bucket();
            const Key top = l0_[index].front();
            const bool cancelled = slots_[top.slot].cancelled;
            if (!cancelled && top.when > last) return false;
            PopL0Top(index);
            if (cancelled) {
                Discard(top.slot);
                continue;
            }
            l0_cursor_ = (l1_cursor_ << kWheelBits) + index;
            out = top;
            return true;
        }
        if (l1_count_ > 0) {
            // Advance the L0 window onto the next staged L1 slot — only
            // if that slot starts at or before `last`, so the cursor
            // never passes the clock the caller leaves behind — and
            // scatter its events into their slice buckets.
            const std::uint64_t index = FirstL1Slot();
            const std::uint64_t next_slot =
                l1_cursor_ + 1 + ((index - l1_cursor_ - 1) & kWheelMask);
            if (static_cast<Time>(next_slot << (kSliceBits + kWheelBits)) >
                last) {
                return false;
            }
            l1_cursor_ = next_slot;
            l0_cursor_ = l1_cursor_ << kWheelBits;
            auto& staged = l1_[index];
            l1_count_ -= staged.size();
            for (const Key& key : staged) {
                const std::uint64_t bucket_index =
                    (static_cast<std::uint64_t>(key.when) >> kSliceBits) &
                    kWheelMask;
                auto& bucket = l0_[bucket_index];
                bucket.push_back(key);
                std::push_heap(bucket.begin(), bucket.end(), LaterFirst{});
                SetBit(l0_occupied_.data(), bucket_index);
            }
            l0_count_ += staged.size();
            staged.clear();
            ClearBit(l1_occupied_.data(), index);
            continue;
        }
        if (!overflow_.empty()) {
            const Key top = overflow_.front();
            if (slots_[top.slot].cancelled) {
                PopOverflowTop();
                Discard(top.slot);
                continue;
            }
            if (top.when > last) return false;
            // Both wheels drained and the minimum fires: rebase the
            // windows at it and pull everything now within the L1
            // horizon back through normal placement.
            const auto base_s1 = static_cast<std::uint64_t>(top.when) >>
                                 (kSliceBits + kWheelBits);
            l1_base_slot_ = base_s1;
            l1_cursor_ = base_s1;
            l0_cursor_ = base_s1 << kWheelBits;
            while (!overflow_.empty()) {
                const Key key = overflow_.front();
                const auto s1 = static_cast<std::uint64_t>(key.when) >>
                                (kSliceBits + kWheelBits);
                if (s1 >= l1_base_slot_ + kWheelSize) break;
                PopOverflowTop();
                Insert(key);
            }
            continue;
        }
        return false;
    }
}

void Simulator::FireAndRelease(const Key& key) {
    Slot& slot = slots_[key.slot];
    --live_events_;
    if (slot.daemon) --daemon_events_;
    now_ = key.when;
    Advance(key);
    ++events_fired_;
    ++t_events_fired;
    // Move the callback out and release before invoking: a callback
    // that schedules may grow slots_, and one cancelling its own handle
    // (or recycling it via a new schedule) must observe it as spent.
    EventFn fn = std::move(slot.fn);
    ReleaseSlot(key.slot);
    fn();
}

bool Simulator::Step() {
    Key key{};
    if (!PopNext(std::numeric_limits<Time>::max(), key)) return false;
    FireAndRelease(key);
    return true;
}

std::uint64_t Simulator::Run() {
    // Stop when only daemon (background) events remain: recurring
    // processes like SEU injection never drain on their own. Cancelled
    // foreground events are already out of live_events_, so they never
    // force a far-future daemon event to fire.
    std::uint64_t fired = 0;
    Key key{};
    while (live_events_ != daemon_events_) {
        [[maybe_unused]] const bool popped =
            PopNext(std::numeric_limits<Time>::max(), key);
        assert(popped && "a live event is pending");
        FireAndRelease(key);
        ++fired;
    }
    // Only background work remains. Leave it pending, but drop the
    // cancelled entries in front of it so their slots recycle.
    DropCancelledFront();
    return fired;
}

std::uint64_t Simulator::RunUntil(Time horizon) {
    std::uint64_t fired = 0;
    Key key{};
    while (PopNext(horizon, key)) {
        FireAndRelease(key);
        ++fired;
    }
    // Advancing now_ to the horizon keeps callers' notion of elapsed
    // time consistent; deferred events keep their sequence numbers and
    // stay cancellable.
    if (now_ < horizon) now_ = horizon;
    Advance(Key{horizon, std::numeric_limits<std::uint64_t>::max(),
                std::numeric_limits<std::int32_t>::max(), 0});
    return fired;
}

std::uint64_t Simulator::RunUntilBefore(Time bound) {
    std::uint64_t fired = 0;
    Key key{};
    while (PopNext(bound - 1, key)) {
        FireAndRelease(key);
        ++fired;
    }
    if (now_ < bound) now_ = bound;
    Advance(Key{bound - 1, std::numeric_limits<std::uint64_t>::max(),
                std::numeric_limits<std::int32_t>::max(), 0});
    return fired;
}

bool Simulator::PeekNextTime(Time* when) {
    while (l0_count_ > 0) {
        const std::uint64_t index = FirstL0Bucket();
        const Key top = l0_[index].front();
        if (!slots_[top.slot].cancelled) {
            *when = top.when;
            return true;
        }
        PopL0Top(index);
        Discard(top.slot);
    }
    while (l1_count_ > 0) {
        // The first staged slot holds the minimum; it is unsorted, so
        // scan it for its earliest live entry.
        const std::uint64_t index = FirstL1Slot();
        auto& staged = l1_[index];
        Time earliest = std::numeric_limits<Time>::max();
        bool live = false;
        for (const Key& key : staged) {
            if (!slots_[key.slot].cancelled) {
                earliest = std::min(earliest, key.when);
                live = true;
            }
        }
        if (live) {
            *when = earliest;
            return true;
        }
        // Every entry is cancelled: drop the slot without advancing the
        // window. Index loop — a discarded callback's destructor may
        // stage new entries here, which must survive.
        const std::size_t dead = staged.size();
        l1_count_ -= dead;
        for (std::size_t i = 0; i < dead; ++i) Discard(staged[i].slot);
        staged.erase(staged.begin(),
                     staged.begin() + static_cast<std::ptrdiff_t>(dead));
        if (staged.empty()) ClearBit(l1_occupied_.data(), index);
    }
    while (!overflow_.empty()) {
        const Key top = overflow_.front();
        if (!slots_[top.slot].cancelled) {
            *when = top.when;
            return true;
        }
        PopOverflowTop();
        Discard(top.slot);
    }
    return false;
}

}  // namespace catapult::sim
