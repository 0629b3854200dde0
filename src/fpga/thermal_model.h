// Thermal model for the FPGA daughtercard.
//
// The board sits in the server exhaust: inlet air reaches 68 C after
// the two host CPUs (§2.1), and the industrial-grade part is rated to
// 100 C. The model is a first-order thermal RC: die temperature tracks
// inlet + theta_ja * power with an exponential time constant. Crossing
// the rated junction temperature raises the temperature-shutdown error
// flag reported to the Health Monitor (§3.5).

#pragma once

#include "common/units.h"

namespace catapult::fpga {

class ThermalModel {
  public:
    /** Thermal RC time constant. */
    static constexpr Time kTimeConstant = Seconds(20);

    /** Advance the model: power has been `watts` for `elapsed` time. */
    void Advance(double watts, Time elapsed);

    /**
     * Jump the die straight to its steady-state temperature at `watts`
     * (failure injection: a cooling failure discovered after the
     * thermal RC has long since settled).
     */
    void SnapToSteadyState(double watts) {
        die_celsius_ = SteadyStateCelsius(watts);
    }

    /** Steady-state die temperature at `watts` dissipation. */
    double SteadyStateCelsius(double watts) const {
        return inlet_celsius_ + kThetaJa * watts;
    }

    double die_celsius() const { return die_celsius_; }
    bool over_temperature() const {
        return die_celsius_ >= kShutdownCelsius;
    }

    void set_inlet_celsius(double celsius) { inlet_celsius_ = celsius; }

  private:
    /** CPU exhaust worst case. */
    static constexpr double kInletCelsius = 68.0;
    /** C per watt, heatsinked. */
    static constexpr double kThetaJa = 1.25;
    /** Industrial part rating. */
    static constexpr double kShutdownCelsius = 100.0;

    double inlet_celsius_ = kInletCelsius;
    double die_celsius_ = kInletCelsius;
};

}  // namespace catapult::fpga
