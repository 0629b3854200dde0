// MetricsHub: cadence-driven snapshots of the merged registry, on
// simulated time.
//
// The hub never samples on its own clock — it is advanced by whoever
// owns the time base: the SimulatorGroup barrier hook (sharded runs,
// where the driving thread calls in after every mailbox drain with the
// conservative frontier) or a self-rescheduling daemon event on a plain
// Simulator (single-shard runs). Each time the frontier crosses one or
// more cadence boundaries the hub renders one snapshot per boundary;
// the rendered values are "the registry as of the first barrier at or
// past the boundary", which is a deterministic function of the round
// schedule and therefore identical run to run.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/units.h"

namespace catapult::obs {

class MetricsHub {
  public:
    struct Config {
        /** Simulated time between snapshots; <= 0 disables the hub. */
        Time cadence = Milliseconds(10);
        /** Ring bound on retained snapshots (oldest evicted). */
        std::size_t max_snapshots = 256;
    };

    struct Snapshot {
        Time at = 0;  ///< The cadence boundary this snapshot represents.
        std::string json;
    };

    explicit MetricsHub(const Config& config) : config_(config) {}

    /** The next cadence boundary a snapshot will fire at. */
    Time next_boundary() const { return last_boundary_ + config_.cadence; }

    /**
     * Advance to `frontier`; `render` is invoked at most once per call
     * (lazily, only when a boundary was crossed) and its result is
     * recorded for every boundary in (last, frontier].
     */
    void AdvanceTo(Time frontier, const std::function<std::string()>& render);

    const std::deque<Snapshot>& snapshots() const { return snapshots_; }
    std::uint64_t snapshots_taken() const { return taken_; }

  private:
    Config config_;
    Time last_boundary_ = 0;
    std::uint64_t taken_ = 0;
    std::deque<Snapshot> snapshots_;
};

}  // namespace catapult::obs
