// Queue Manager (§4.3).
//
// "When a ranking request comes in, it specifies which model should be
// used ... The query and document are forwarded to the head of the
// processing pipeline and placed in a queue in DRAM which contains all
// queries using that model. The Queue Manager (QM) takes documents from
// each queue and sends them down the processing pipeline. When the
// queue is empty or when a timeout is reached, QM will switch to the
// next queue. When a new queue ... is selected, QM sends a Model Reload
// command down the pipeline." Minimizing reloads among queries is
// "crucial to achieving high performance".
//
// This class is pure policy: the hosting role feeds arrivals in and
// pulls dispatch decisions out; DRAM traffic and reload stalls are
// charged by the caller.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.h"

namespace catapult::rank {

class QueueManager {
  public:
    struct Config {
        /**
         * Maximum time the QM stays on one queue while other queues
         * have waiting work (staleness bound for rare models).
         */
        Time queue_timeout = Microseconds(500);
    };

    /** An entry is an opaque request handle owned by the caller. */
    using EntryId = std::uint64_t;

    struct DispatchDecision {
        enum class Kind {
            kIdle,        ///< No queued work.
            kDispatch,    ///< Send `entry` (current model) down the pipe.
            kModelReload, ///< Switch to `model_id`; stall for the reload.
        };
        Kind kind = Kind::kIdle;
        EntryId entry = 0;
        std::uint32_t model_id = 0;
    };

    QueueManager() : QueueManager(Config()) {}
    explicit QueueManager(Config config) : config_(config) {}

    /** A request for `model_id` arrived at the head of the pipeline. */
    void Enqueue(std::uint32_t model_id, EntryId entry, Time now);

    /**
     * Ask what to do next. kDispatch pops the entry; kModelReload
     * switches the current model (caller stalls for the reload time and
     * asks again); kIdle means nothing is queued.
     */
    DispatchDecision Next(Time now);

    /**
     * Drop every queued entry and the current-model latch (counters
     * survive). The DRAM queues live on the head FPGA, so a ring
     * redeploy that reconfigures it wipes them in hardware; the policy
     * state must follow, or the rebuilt head role would be handed
     * entries whose packets died with its predecessor.
     */
    void Reset();

    std::size_t QueuedFor(std::uint32_t model_id) const;
    std::size_t TotalQueued() const { return total_queued_; }

    struct Counters {
        std::uint64_t enqueued = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t model_switches = 0;
        std::uint64_t timeout_switches = 0;
    };
    const Counters& counters() const { return counters_; }

  private:
    /**
     * One per-model DRAM queue. The set of models a head role ever
     * sees is tiny (a handful), so the queues live in a flat vector
     * kept sorted by model id — Next()'s find and the round-robin
     * scan walk contiguous memory instead of chasing red-black-tree
     * nodes on every dispatch. Sorted order matches the std::map this
     * replaces, so rotation decisions are unchanged.
     */
    struct ModelQueue {
        std::uint32_t model_id = 0;
        std::deque<EntryId> entries;
    };

    /** Pick the next non-empty queue after `current_model_` (RR). */
    bool PickNextModel(std::uint32_t& model_id) const;
    /** Index of the queue for `model_id`, or queues_.size(). */
    std::size_t FindQueue(std::uint32_t model_id) const;
    /** Index of the first queue with id > `model_id` (may be size()). */
    std::size_t UpperBound(std::uint32_t model_id) const;

    Config config_;
    std::vector<ModelQueue> queues_;  ///< Sorted by model_id.
    std::uint32_t current_model_ = 0;
    bool has_model_ = false;
    Time current_since_ = 0;
    std::size_t total_queued_ = 0;
    Counters counters_;
};

}  // namespace catapult::rank
