// DDR3 DRAM controller model.
//
// The board carries two dual-rank DDR3-1600 ECC SO-DIMMs (8 GB total)
// that "can operate at DDR3-1333 speeds with the full 8 GB capacity, or
// trade capacity for additional bandwidth by running as 4 GB single-rank
// DIMMs at DDR3-1600 speeds" (§2.1). On the Stratix V the dual-rank
// DIMMs run at 667 MHz and single-rank at 800 MHz (§3.2). The two
// controllers operate independently or as a unified interface.
//
// The model serves transfer requests FIFO per channel with a bandwidth
// and fixed-latency cost, and carries the ECC error and calibration
// state the Health Monitor reads (§3.5).

#pragma once

#include <cstdint>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::shell {

/** DIMM operating point (capacity/bandwidth trade, §2.1). */
enum class DramMode {
    kDualRank1333,    ///< 8 GB at DDR3-1333 (667 MHz controller clock).
    kSingleRank1600,  ///< 4 GB at DDR3-1600 (800 MHz controller clock).
};

class DramController {
  public:
    struct Config {
        DramMode mode = DramMode::kDualRank1333;
        /** Probability per transfer of a correctable ECC event. */
        double single_bit_error_rate = 0.0;
        /** Probability per transfer of an uncorrectable ECC event. */
        double double_bit_error_rate = 0.0;
    };

    struct Status {
        bool calibrated = true;
        std::uint64_t single_bit_errors = 0;
        std::uint64_t double_bit_errors = 0;
        std::uint64_t transfers = 0;
    };

    DramController(sim::Simulator* simulator, Rng rng, Config config);
    DramController(sim::Simulator* simulator, Rng rng)
        : DramController(simulator, rng, Config()) {}

    /** Capacity at the current operating point. */
    Bytes Capacity() const;

    /** Peak bandwidth of one channel at the current operating point. */
    Bandwidth PeakBandwidth() const;

    /** Effective streaming bandwidth (peak x efficiency). */
    Bandwidth EffectiveBandwidth() const;

    /** Completion callback: true when the transfer succeeded. */
    using DoneFn = sim::InlineFunction<void(bool)>;

    /**
     * Queue a transfer of `size` bytes; `on_done(success)` fires when
     * it completes. Uncorrectable ECC errors or a failed calibration
     * complete with success=false.
     */
    void Transfer(Bytes size, DoneFn on_done);

    /** Time a transfer of `size` bytes takes unqueued. */
    Time TransferTime(Bytes size) const;

    /** Fail / restore DIMM calibration (failure injection). */
    void set_calibrated(bool calibrated);

    /** Publish ECC faults / calibration loss as health-plane events. */
    void AttachTelemetry(mgmt::TelemetryTap tap) { telemetry_ = tap; }

    const Status& status() const { return status_; }
    const Config& config() const { return config_; }
    std::size_t QueueDepth() const { return queue_.size(); }

  private:
    struct Request {
        Bytes size = 0;
        DoneFn on_done;
    };

    void Pump();
    void Complete();

    sim::Simulator* simulator_;
    Rng rng_;
    Config config_;
    Status status_;
    RingQueue<Request> queue_;
    /** The transfer in service; its completion event captures `this`. */
    Request active_;
    bool busy_ = false;
    mgmt::TelemetryTap telemetry_;
};

}  // namespace catapult::shell
