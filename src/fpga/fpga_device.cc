#include "fpga/fpga_device.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace catapult::fpga {

namespace {

/**
 * Role activity factor behind CurrentPowerWatts (0 = idle clocks gated,
 * 1 = every LUT toggling). No role model sets one, so an active device
 * draws its loaded role's idle power.
 */
constexpr double kActivityFactor = 0.0;

}  // namespace

const char* ToString(DeviceState state) {
    switch (state) {
      case DeviceState::kUnconfigured: return "unconfigured";
      case DeviceState::kConfiguring: return "configuring";
      case DeviceState::kActive: return "active";
      case DeviceState::kReconfiguring: return "reconfiguring";
      case DeviceState::kFailed: return "failed";
    }
    return "?";
}

FpgaDevice::FpgaDevice(sim::Simulator* simulator, std::string name, Rng rng,
                       Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      config_(config),
      rng_(rng),
      flash_(simulator),
      scrubber_(simulator, rng_.Fork()) {
    assert(simulator_ != nullptr);
    scrubber_.set_on_role_corruption([this] { role_corrupted_ = true; });
}

void FpgaDevice::TransitionTo(DeviceState next) {
    if (state_ == next) return;
    const DeviceState previous = state_;
    state_ = next;
    LOG_DEBUG("fpga") << name_ << ": " << ToString(previous) << " -> "
                      << ToString(next);
    state_changes_.Publish(next);
}

void FpgaDevice::ConfigureFromFlash(FlashSlot slot,
                                    std::function<void(bool)> on_done) {
    const auto image = flash_.ReadImage(slot);
    if (!image.has_value()) {
        LOG_WARN("fpga") << name_ << ": configure from empty flash slot";
        simulator_->ScheduleAfter(0, [cb = std::move(on_done)] { cb(false); });
        return;
    }
    // Admission check: the design (shell + role, as synthesized) must
    // fit the device.
    const Utilization total = image->area;
    if (total.logic_pct > 100.0 || total.ram_pct > 100.0 ||
        total.dsp_pct > 100.0) {
        LOG_WARN("fpga") << name_ << ": image " << image->role_name
                         << " does not fit the device (" << ToString(total)
                         << ")";
        simulator_->ScheduleAfter(0, [cb = std::move(on_done)] { cb(false); });
        return;
    }

    UpdateThermals();
    scrubber_.Stop();
    role_corrupted_ = false;
    const bool was_active = state_ == DeviceState::kActive;
    TransitionTo(was_active ? DeviceState::kReconfiguring
                            : DeviceState::kConfiguring);
    const std::uint64_t epoch = ++config_epoch_;
    simulator_->ScheduleAfter(
        config_.configure_time,
        [this, slot, epoch, cb = std::move(on_done)]() mutable {
            if (epoch != config_epoch_) return;  // superseded
            FinishConfiguration(slot, std::move(cb));
        });
}

void FpgaDevice::FinishConfiguration(FlashSlot slot,
                                     std::function<void(bool)> on_done) {
    if (state_ == DeviceState::kFailed) {
        on_done(false);
        return;
    }
    if (rng_.Chance(config_.config_failure_probability)) {
        LOG_WARN("fpga") << name_ << ": configuration CRC failure, retrying";
        const std::uint64_t epoch = ++config_epoch_;
        simulator_->ScheduleAfter(
            config_.configure_time,
            [this, slot, epoch, cb = std::move(on_done)]() mutable {
                if (epoch != config_epoch_) return;
                FinishConfiguration(slot, std::move(cb));
            });
        return;
    }
    const auto image = flash_.ReadImage(slot);
    if (!image.has_value()) {
        on_done(false);
        return;
    }
    loaded_image_ = *image;
    ++configurations_completed_;
    scrubber_.ClearPendingUpsets();
    scrubber_.Start();
    TransitionTo(DeviceState::kActive);
    on_done(true);
}

void FpgaDevice::ForceFail(const std::string& reason) {
    LOG_WARN("fpga") << name_ << ": forced failure (" << reason << ")";
    UpdateThermals();
    scrubber_.Stop();
    ++config_epoch_;  // abort any in-flight configuration
    TransitionTo(DeviceState::kFailed);
}

void FpgaDevice::PowerCycle(std::function<void(bool)> on_done) {
    UpdateThermals();
    scrubber_.Stop();
    role_corrupted_ = false;
    ++config_epoch_;
    TransitionTo(DeviceState::kUnconfigured);
    // Power-on loads the application slot if present, else golden.
    const FlashSlot slot =
        flash_.ReadImage(FlashSlot::kApplication).has_value()
            ? FlashSlot::kApplication
            : FlashSlot::kGolden;
    ConfigureFromFlash(slot, std::move(on_done));
}

double FpgaDevice::CurrentPowerWatts() const {
    if (state_ != DeviceState::kActive) {
        // Configuration draws roughly static power.
        return PowerModel::kStaticWatts;
    }
    return power_model_.Power(loaded_image_, kActivityFactor);
}

void FpgaDevice::AttachTelemetry(mgmt::TelemetryTap tap) {
    telemetry_ = tap;
    scrubber_.AttachTelemetry(tap);
}

void FpgaDevice::UpdateThermals() {
    const Time now = simulator_->Now();
    if (now > last_thermal_update_) {
        thermal_.Advance(CurrentPowerWatts(), now - last_thermal_update_);
        last_thermal_update_ = now;
    }
    // Publish the shutdown transition, not the steady over-temperature
    // state: one excursion is one event however often health is read.
    if (thermal_.over_temperature()) {
        // Latch only once published: an excursion that begins before
        // AttachTelemetry must still surface on the first update after
        // the bus is wired.
        if (!over_temperature_reported_ && telemetry_.attached()) {
            telemetry_.Publish(mgmt::TelemetryKind::kTemperatureShutdown);
            over_temperature_reported_ = true;
        }
    } else {
        over_temperature_reported_ = false;
    }
}

}  // namespace catapult::fpga
