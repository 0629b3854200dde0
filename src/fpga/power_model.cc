#include "fpga/power_model.h"

#include <algorithm>

namespace catapult::fpga {

namespace {

/** Dynamic power of a design using 100% logic at activity 1.0. */
constexpr double kLogicDynamicWatts = 9.5;
/** Dynamic power of 100% RAM utilization at activity 1.0. */
constexpr double kRamDynamicWatts = 2.6;
/** Dynamic power of 100% DSP utilization at activity 1.0. */
constexpr double kDspDynamicWatts = 1.6;

}  // namespace

double PowerModel::BoardPower(const Utilization& total_area,
                              double activity_factor) const {
    const double act = std::clamp(activity_factor, 0.0, 1.0);
    const double dynamic =
        act * (total_area.logic_pct / 100.0 * kLogicDynamicWatts +
               total_area.ram_pct / 100.0 * kRamDynamicWatts +
               total_area.dsp_pct / 100.0 * kDspDynamicWatts);
    return kStaticWatts + dynamic;
}

double PowerModel::Power(const Bitstream& role, double activity_factor) const {
    Utilization total;
    total.logic_pct = std::min(100.0, role.area.logic_pct);
    total.ram_pct = std::min(100.0, role.area.ram_pct);
    total.dsp_pct = std::min(100.0, role.area.dsp_pct);
    return BoardPower(total, activity_factor);
}

double PowerModel::PowerVirusWatts() const {
    return Power(PowerVirusBitstream(), 1.0);
}

}  // namespace catapult::fpga
