// Board power model.
//
// Calibration points from the paper: the PCIe slot alone powers the
// card, capped at 25 W (§2.1); normal operation stays under 20 W; a
// "power virus" bitstream maxing out area and activity factor measured
// 22.7 W (§5). The model is an affine function of occupied area and
// activity factor on top of static board power (DRAM, flash, serial
// transceivers, leakage).

#pragma once

#include "fpga/area_model.h"
#include "fpga/bitstream.h"

namespace catapult::fpga {

class PowerModel {
  public:
    /** Board static power: DRAM refresh, transceivers, leakage. */
    static constexpr double kStaticWatts = 9.0;
    /** PCIe bus power budget: hard cap (§2.1). */
    static constexpr double kPcieCapWatts = 25.0;

    /**
     * Board power for a design with the given utilization running at
     * `activity_factor` (0 = idle clocks gated, 1 = every LUT toggling).
     */
    double BoardPower(const Utilization& total_area,
                      double activity_factor) const;

    /** Power for shell + role at the given activity. */
    double Power(const Bitstream& role, double activity_factor) const;

    /** The §5 experiment: power-virus image at activity 1.0. */
    double PowerVirusWatts() const;

    /** True if a design can exceed the PCIe power cap. */
    bool ExceedsPcieCap(const Bitstream& role) const {
        return Power(role, 1.0) > kPcieCapWatts;
    }
};

}  // namespace catapult::fpga
