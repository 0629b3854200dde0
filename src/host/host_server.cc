#include "host/host_server.h"

#include <cassert>

#include "common/log.h"

namespace catapult::host {

const char* ToString(ServerState state) {
    switch (state) {
      case ServerState::kRunning: return "running";
      case ServerState::kCrashed: return "crashed";
      case ServerState::kSoftRebooting: return "soft_rebooting";
      case ServerState::kHardRebooting: return "hard_rebooting";
      case ServerState::kFlaggedForService: return "flagged_for_service";
    }
    return "?";
}

HostServer::HostServer(sim::Simulator* simulator, std::string name,
                       shell::Shell* shell, Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      shell_(shell),
      config_(config),
      driver_(simulator, &shell->dma(), config.driver) {
    assert(shell_ != nullptr);

    // Surprise removal: the FPGA vanishing from PCIe without the NMI
    // masked destabilizes the host (§3.4).
    device_state_ = shell_->device().state_changes().Subscribe(
        [this](fpga::DeviceState next) {
            const bool reconfiguring =
                next == fpga::DeviceState::kConfiguring ||
                next == fpga::DeviceState::kReconfiguring;
            if (reconfiguring && !nmi_masked_ &&
                state_ == ServerState::kRunning) {
                ++counters_.nmi_crashes;
                CrashAndReboot("unmasked PCIe surprise removal NMI");
            }
        });
}

void HostServer::ReconfigureFromFlash(fpga::FlashSlot slot,
                                      std::function<void(bool)> on_done) {
    // §3.4: mask the device NMI before the FPGA drops off the bus.
    nmi_masked_ = true;
    shell_->Reconfigure(slot, /*graceful=*/true,
                        [this, on_done = std::move(on_done)](bool ok) {
                            nmi_masked_ = false;
                            on_done(ok);
                        });
}

void HostServer::SoftReboot(std::function<void()> on_done) {
    ++counters_.soft_reboots;
    state_ = ServerState::kSoftRebooting;
    LOG_INFO("host") << name_ << ": soft reboot";
    simulator_->ScheduleAfter(
        config_.soft_reboot_duration,
        [this, on_done = std::move(on_done)]() mutable {
            FinishReboot(ServerState::kSoftRebooting, std::move(on_done));
        });
}

void HostServer::HardReboot(std::function<void()> on_done) {
    state_ = ServerState::kHardRebooting;
    LOG_INFO("host") << name_ << ": hard reboot (power cycle)";
    simulator_->ScheduleAfter(
        config_.hard_reboot_duration,
        [this, on_done = std::move(on_done)]() mutable {
            FinishReboot(ServerState::kHardRebooting, std::move(on_done));
        });
}

void HostServer::FinishReboot(ServerState via, std::function<void()> on_done) {
    // Superseded: another reboot path changed the machine's state while
    // this one was pending (field service arriving during the health
    // plane's escalation ladder, or the ladder escalating over a
    // service in progress). The later state machine owns the hardware;
    // report completion without power-cycling it a second time — the
    // waiting caller re-examines the machine and sees whatever the
    // owning reboot produced.
    if (state_ != via) {
        on_done();
        return;
    }
    // Injected boot failures: the machine does not come back (§3.5's
    // ladder escalates from here).
    if (boot_permanently_broken_ ||
        (via == ServerState::kSoftRebooting && broken_soft_boots_ > 0)) {
        if (via == ServerState::kSoftRebooting && broken_soft_boots_ > 0) {
            --broken_soft_boots_;
        }
        LOG_WARN("host") << name_ << ": reboot failed to restore service";
        state_ = ServerState::kCrashed;
        on_done();
        return;
    }
    // The reboot resets the PCIe bus; the FPGA power-cycles with it.
    // Reboots count as "expected" removal: firmware quiesces the bus.
    nmi_masked_ = true;
    shell_->device().PowerCycle([this, on_done = std::move(on_done)](bool) {
        nmi_masked_ = false;
        state_ = ServerState::kRunning;
        on_done();
    });
}

void HostServer::BreakBoot(int soft_failures, bool permanent) {
    broken_soft_boots_ = soft_failures;
    boot_permanently_broken_ = permanent;
}

void HostServer::Service(std::function<void()> on_done) {
    // The repair clears every injected boot defect before the power
    // cycle, so FinishReboot brings the machine back for real.
    broken_soft_boots_ = 0;
    boot_permanently_broken_ = false;
    state_ = ServerState::kHardRebooting;
    LOG_INFO("host") << name_ << ": field service (repair + power cycle)";
    simulator_->ScheduleAfter(
        config_.hard_reboot_duration,
        [this, on_done = std::move(on_done)]() mutable {
            FinishReboot(ServerState::kHardRebooting, std::move(on_done));
        });
}

void HostServer::CrashAndReboot(const std::string& reason) {
    if (state_ != ServerState::kRunning) return;
    LOG_WARN("host") << name_ << ": CRASH (" << reason << ")";
    state_ = ServerState::kCrashed;
    simulator_->ScheduleAfter(config_.crash_reboot_delay, [this] {
        if (state_ != ServerState::kCrashed) return;
        SoftReboot([] {});
    });
}

}  // namespace catapult::host
