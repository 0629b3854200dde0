// FPGA device configuration state machine.
//
// Models the lifecycle the rest of the system cares about (§3.4):
//   Unconfigured -> Configuring -> Active -> (Reconfiguring|Failed) ...
// During (re)configuration the device:
//   * disappears from PCIe (a host that has not masked the device's
//     non-maskable interrupt sees a surprise-removal NMI),
//   * may emit garbage on its SL3 links unless TX Halt was sent first,
//   * comes back up with RX Halt engaged, dropping inbound link traffic
//     until the Mapping Manager releases it.
// Observers (the Shell, the host driver) subscribe to state changes.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/feed.h"
#include "common/rng.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "fpga/area_model.h"
#include "fpga/bitstream.h"
#include "fpga/config_flash.h"
#include "fpga/power_model.h"
#include "fpga/seu_scrubber.h"
#include "fpga/thermal_model.h"
#include "sim/simulator.h"

namespace catapult::fpga {

enum class DeviceState {
    kUnconfigured,
    kConfiguring,
    kActive,
    kReconfiguring,
    kFailed,
};

const char* ToString(DeviceState state);

/**
 * One Stratix V D5 device with its configuration flash, scrubber,
 * thermal and power models.
 */
class FpgaDevice {
  public:
    struct Config {
        /** Full configuration from flash (§4.3: "milliseconds to seconds"). */
        Time configure_time = Milliseconds(900);
        /** Probability a configuration attempt fails and must retry. */
        double config_failure_probability = 0.0;
    };

    FpgaDevice(sim::Simulator* simulator, std::string name, Rng rng,
               Config config);
    FpgaDevice(sim::Simulator* simulator, std::string name, Rng rng)
        : FpgaDevice(simulator, std::move(name), rng, Config()) {}

    FpgaDevice(const FpgaDevice&) = delete;
    FpgaDevice& operator=(const FpgaDevice&) = delete;

    const std::string& name() const { return name_; }
    DeviceState state() const { return state_; }
    bool active() const { return state_ == DeviceState::kActive; }

    /** Image currently loaded into the fabric (valid when Active). */
    const Bitstream& loaded_image() const { return loaded_image_; }

    /**
     * Begin configuration from the given flash slot. The device passes
     * through kConfiguring/kReconfiguring for configure_time, then
     * becomes Active (or retries on a modelled configuration failure).
     * Fails immediately (callback false) if the slot is empty or the
     * image does not fit the device together with the shell.
     */
    void ConfigureFromFlash(FlashSlot slot, std::function<void(bool)> on_done);

    /** Hard-fail the device (driven by failure injection). */
    void ForceFail(const std::string& reason);

    /** Power-cycle: clears Failed, device returns via configuration. */
    void PowerCycle(std::function<void(bool)> on_done);

    /** Publishes the new state on every state transition. */
    Feed<DeviceState>& state_changes() { return state_changes_; }

    /** Current board power: static while configuring, else the role's. */
    double CurrentPowerWatts() const;

    /**
     * Advance thermals to the current simulated time. Crossing the
     * rated junction temperature publishes a temperature-shutdown
     * event on the attached telemetry bus (once per excursion).
     */
    void UpdateThermals();

    /**
     * Wire this device into the health plane: SEU role corruptions and
     * temperature-shutdown transitions publish as events attributed to
     * the tap's pod-local node.
     */
    void AttachTelemetry(mgmt::TelemetryTap tap);

    ConfigFlash& flash() { return flash_; }
    const ConfigFlash& flash() const { return flash_; }
    SeuScrubber& scrubber() { return scrubber_; }
    const SeuScrubber& scrubber() const { return scrubber_; }
    const ThermalModel& thermal() const { return thermal_; }
    /** Mutable thermal access (failure injection: cooling failures). */
    ThermalModel& thermal_mutable() { return thermal_; }

    /** True when the role was corrupted by an SEU since last (re)config. */
    bool role_corrupted() const { return role_corrupted_; }

    /** Number of completed (re)configurations. */
    std::uint64_t configurations_completed() const {
        return configurations_completed_;
    }

  private:
    void TransitionTo(DeviceState next);
    void FinishConfiguration(FlashSlot slot, std::function<void(bool)> on_done);

    sim::Simulator* simulator_;
    std::string name_;
    Config config_;
    Rng rng_;
    ConfigFlash flash_;
    SeuScrubber scrubber_;
    ThermalModel thermal_;
    PowerModel power_model_;

    DeviceState state_ = DeviceState::kUnconfigured;
    Bitstream loaded_image_;
    Feed<DeviceState> state_changes_;
    Time last_thermal_update_ = 0;
    bool role_corrupted_ = false;
    mgmt::TelemetryTap telemetry_;
    bool over_temperature_reported_ = false;
    std::uint64_t configurations_completed_ = 0;
    std::uint64_t config_epoch_ = 0;
};

}  // namespace catapult::fpga
