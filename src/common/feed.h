// Feed: one stream of events, delivered to its subscribers in order.
//
// The health plane fans its events out through feeds: each pod's
// telemetry bus (fault events), its health forecaster (scores), its
// Health Monitor (confirmed machine reports) and its ring pool (the
// available-ring count), and each FPGA's state transitions reach its
// shell and host the same way. A subscriber keeps the Subscription that
// Subscribe returns; destroying it ends the subscription, so a
// torn-down subscriber (a destroyed monitor, a dispatcher that dropped
// a pod) is never called through a dangling callback. A Subscription
// must not outlive its feed.
//
// Publish calls every subscriber synchronously, in subscription order.
// A callback may subscribe, unsubscribe (itself or another subscriber)
// and publish again on the same feed:
//   * each callback lives in its own heap cell, which growing the list
//     of cells never moves, and an unsubscribed callback is destroyed
//     only once no publish is running, so the callback that is running
//     is never moved or freed;
//   * a subscriber added during a publish receives that publish: it is
//     appended behind the walk, which reads the size at every step;
//   * a subscriber removed during a publish receives nothing more, from
//     that publish or any later one.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.h"

namespace catapult {

/**
 * What a Subscription needs of its feed, whatever the event type.
 * Subscriptions hold the feed's address, so a feed is neither copied
 * nor moved.
 */
class FeedBase {
  public:
    FeedBase() = default;
    FeedBase(const FeedBase&) = delete;
    FeedBase& operator=(const FeedBase&) = delete;
    virtual ~FeedBase() = default;

  private:
    friend class Subscription;
    virtual void Unsubscribe(std::size_t index) = 0;
};

/** Move-only handle that ends its subscription when destroyed. */
class Subscription {
  public:
    Subscription() = default;
    ~Subscription() { Reset(); }

    Subscription(Subscription&& other) noexcept
        : feed_(std::exchange(other.feed_, nullptr)), index_(other.index_) {}
    Subscription& operator=(Subscription&& other) noexcept {
        if (this != &other) {
            Reset();
            feed_ = std::exchange(other.feed_, nullptr);
            index_ = other.index_;
        }
        return *this;
    }
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;

    /** Unsubscribe now (idempotent). */
    void Reset() {
        FeedBase* feed = std::exchange(feed_, nullptr);
        if (feed != nullptr) feed->Unsubscribe(index_);
    }

    bool active() const { return feed_ != nullptr; }

  private:
    template <typename Event>
    friend class Feed;
    Subscription(FeedBase* feed, std::size_t index)
        : feed_(feed), index_(index) {}

    FeedBase* feed_ = nullptr;
    std::size_t index_ = 0;
};

template <typename Event>
class Feed : public FeedBase {
  public:
    using Callback = std::function<void(const Event&)>;

    [[nodiscard]] Subscription Subscribe(Callback fn) {
        if (!fn) FatalMisuse("Feed::Subscribe: empty callback");
        entries_.push_back(std::make_unique<Entry>(Entry{std::move(fn), true}));
        ++live_;
        return Subscription(this, entries_.size() - 1);
    }

    void Publish(const Event& event) {
        ++publishing_;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry& entry = *entries_[i];
            if (entry.live) entry.fn(event);
        }
        if (--publishing_ == 0 && unreleased_) {
            for (const auto& entry : entries_) {
                if (!entry->live) entry->fn = nullptr;
            }
            unreleased_ = false;
        }
    }

    int subscriber_count() const { return live_; }

  private:
    struct Entry {
        Callback fn;
        bool live;
    };

    void Unsubscribe(std::size_t index) override {
        Entry& entry = *entries_[index];
        entry.live = false;
        --live_;
        if (publishing_ == 0) {
            entry.fn = nullptr;
        } else {
            unreleased_ = true;  // `fn` may be running; free it after.
        }
    }

    /**
     * One cell per subscription ever made; indices never change. A feed
     * allocates nothing before its first subscriber, where a std::deque
     * would allocate on construction in every FPGA device.
     */
    std::vector<std::unique_ptr<Entry>> entries_;
    int live_ = 0;
    int publishing_ = 0;  ///< Nesting depth of running publishes.
    bool unreleased_ = false;
};

}  // namespace catapult
