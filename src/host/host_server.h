// Host server model: the machine hosting one FPGA daughtercard.
//
// Owns the user-level driver and the reconfiguration library (§3.1,
// §3.4). The critical correctness rule modelled here: "the driver that
// sits behind the FPGA reconfiguration call must first disable
// non-maskable interrupts for the specific PCIe device during
// reconfiguration" — reconfiguring without masking makes the FPGA
// "appear as a failed PCIe device to the host, raising a non-maskable
// interrupt that may destabilize the system", which we model as a host
// crash followed by a reboot. The Health Monitor drives the
// soft-reboot / hard-reboot / flag-for-service ladder (§3.5).

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/feed.h"
#include "common/units.h"
#include "host/slot_dma_channel.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::host {

enum class ServerState {
    kRunning,
    kCrashed,       ///< NMI / kernel panic; waiting for reboot.
    kSoftRebooting,
    kHardRebooting,
    kFlaggedForService,  ///< Manual service / replacement required.
};

const char* ToString(ServerState state);

class HostServer {
  public:
    struct Config {
        Time soft_reboot_duration = Seconds(45);
        Time hard_reboot_duration = Seconds(150);
        /** Crash-reboot delay after an unmasked surprise removal NMI. */
        Time crash_reboot_delay = Seconds(5);
        SlotDmaChannel::Config driver;
    };

    HostServer(sim::Simulator* simulator, std::string name,
               shell::Shell* shell, Config config);
    HostServer(sim::Simulator* simulator, std::string name,
               shell::Shell* shell)
        : HostServer(simulator, std::move(name), shell, Config()) {}

    HostServer(const HostServer&) = delete;
    HostServer& operator=(const HostServer&) = delete;

    const std::string& name() const { return name_; }
    shell::NodeId node() const { return shell_->node(); }
    ServerState state() const { return state_; }
    bool responsive() const { return state_ == ServerState::kRunning; }

    SlotDmaChannel& driver() { return driver_; }
    shell::Shell& shell() { return *shell_; }

    /**
     * Reconfiguration library entry point (§3.1) for an image already
     * in flash (service startup and in-place recovery): mask the
     * device NMI, run the §3.4 protocol, and unmask when the FPGA is
     * back. `on_done(success)`.
     */
    void ReconfigureFromFlash(fpga::FlashSlot slot,
                              std::function<void(bool)> on_done);

    /** Health Monitor reboot ladder (§3.5). */
    void SoftReboot(std::function<void()> on_done);
    void HardReboot(std::function<void()> on_done);
    void FlagForService() { state_ = ServerState::kFlaggedForService; }

    /** Maintenance / failure injection: unexpected reboot. */
    void CrashAndReboot(const std::string& reason);

    /**
     * Field service (§3.5's manual-service exit): the machine is
     * repaired or replaced — the boot path works again — and
     * power-cycled. `on_done` fires once the server is back in
     * kRunning (hard-reboot duration later); the FPGA power-cycles
     * with it and comes up with RX Halt engaged, awaiting re-mapping.
     */
    void Service(std::function<void()> on_done);

    /**
     * Failure injection: break the boot path. The next `soft_failures`
     * soft reboots fail to bring the machine back (it stays crashed);
     * with `permanent`, hard reboots fail too — the §3.5 ladder then
     * ends in flag-for-manual-service.
     */
    void BreakBoot(int soft_failures, bool permanent = false);

    struct Counters {
        std::uint64_t nmi_crashes = 0;
        std::uint64_t soft_reboots = 0;
    };
    const Counters& counters() const { return counters_; }

  private:
    void FinishReboot(ServerState via, std::function<void()> on_done);

    sim::Simulator* simulator_;
    std::string name_;
    shell::Shell* shell_;
    Config config_;
    SlotDmaChannel driver_;
    ServerState state_ = ServerState::kRunning;
    bool nmi_masked_ = false;
    int broken_soft_boots_ = 0;
    bool boot_permanently_broken_ = false;
    Counters counters_;
    /** Surprise-removal watch on the FPGA's state transitions. */
    Subscription device_state_;
};

}  // namespace catapult::host
