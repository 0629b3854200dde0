// Single-event-upset (SEU) scrubber.
//
// §3.2: "Single-event upset (SEU) logic ... periodically scrubs the FPGA
// configuration state to reduce system or application errors caused by
// soft errors." The model injects upsets as a Poisson process over the
// configuration bits and scrubs them on a fixed scan period. An upset
// that lands on a "critical" configuration bit before the scrubber
// reaches it corrupts the role (raising an application-error flag); all
// detected/corrected events are counted for the Health Monitor vector.

#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "sim/simulator.h"

namespace catapult::fpga {

class SeuScrubber {
  public:
    /** Full-device scrub scan period (typ. tens of ms). */
    static constexpr Time kScrubPeriod = Milliseconds(50);

    struct Config {
        /**
         * Upset rate per device per second. Ground-level rates for a
         * 28 nm part are ~1e-6/s; tests crank this up to exercise paths.
         */
        double upsets_per_second = 1e-6;
        /** Fraction of configuration bits whose flip corrupts the role. */
        double critical_bit_fraction = 0.1;
    };

    struct Counters {
        std::uint64_t upsets_injected = 0;
        std::uint64_t upsets_corrected = 0;
        std::uint64_t role_corruptions = 0;
        std::uint64_t scrub_passes = 0;
    };

    SeuScrubber(sim::Simulator* simulator, Rng rng, Config config);
    SeuScrubber(sim::Simulator* simulator, Rng rng)
        : SeuScrubber(simulator, rng, Config()) {}

    /** Start periodic scrubbing and upset injection. */
    void Start();
    /** Stop (device held in reset / being reconfigured). */
    void Stop();

    /** Invoked when an uncorrected critical upset corrupts the role. */
    void set_on_role_corruption(std::function<void()> cb) {
        on_role_corruption_ = std::move(cb);
    }

    /** Publish role-corrupting upsets as health-plane events. */
    void AttachTelemetry(mgmt::TelemetryTap tap) { telemetry_ = tap; }

    /** Clear pending (uncorrected) upsets, e.g. after reconfiguration. */
    void ClearPendingUpsets() { pending_upsets_ = 0; }

    /** Change the upset rate (failure injection: SEU storms). */
    void set_upset_rate(double upsets_per_second) {
        config_.upsets_per_second = upsets_per_second;
    }

    const Counters& counters() const {
        AccountScrubPasses();
        return counters_;
    }
    bool running() const { return running_; }

  private:
    void ScheduleNextUpset();
    void AccountScrubPasses() const;

    sim::Simulator* simulator_;
    Rng rng_;
    Config config_;
    mutable Counters counters_;
    std::function<void()> on_role_corruption_;
    mgmt::TelemetryTap telemetry_;
    std::uint64_t pending_upsets_ = 0;
    bool running_ = false;
    Time started_at_ = 0;
    std::uint64_t scrub_passes_base_ = 0;
    std::uint64_t epoch_ = 0;  ///< Invalidates stale scheduled callbacks.
};

}  // namespace catapult::fpga
