#include "fpga/thermal_model.h"

#include <cmath>

namespace catapult::fpga {

void ThermalModel::Advance(double watts, Time elapsed) {
    if (elapsed <= 0) return;
    const double target = SteadyStateCelsius(watts);
    const double tau = ToSeconds(kTimeConstant);
    const double dt = ToSeconds(elapsed);
    const double alpha = 1.0 - std::exp(-dt / tau);
    die_celsius_ += (target - die_celsius_) * alpha;
}

}  // namespace catapult::fpga
