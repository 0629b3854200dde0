#include "shell/shell.h"

#include <cassert>

#include "common/log.h"

namespace catapult::shell {

bool HealthVector::AnyError() const {
    for (bool e : link_error) {
        if (e) return true;
    }
    return dram_bit_errors || dram_calibration_failure || application_error ||
           pll_lock_failure || pcie_errors || temperature_shutdown;
}

namespace {

constexpr Port kLinkPorts[4] = {Port::kNorth, Port::kSouth, Port::kEast,
                                Port::kWest};

/** Compatibility version this shell stamps on its packets (§3.4). */
constexpr std::uint32_t kShellVersion = 1;
/** Role-region rewrite time for partial reconfiguration. */
constexpr Time kPartialReconfigTime = Milliseconds(150);

}  // namespace

int Shell::LinkIndex(Port port) {
    switch (port) {
      case Port::kNorth: return 0;
      case Port::kSouth: return 1;
      case Port::kEast: return 2;
      case Port::kWest: return 3;
      default:
        FatalMisuse("Shell: port %s is not an SL3 link port", ToString(port));
    }
}

Shell::Shell(sim::Simulator* simulator, NodeId node, std::string name,
             fpga::FpgaDevice* device, Rng rng)
    : simulator_(simulator),
      node_(node),
      name_(std::move(name)),
      device_(device),
      router_(simulator, node),
      dma_(simulator) {
    assert(simulator_ != nullptr);
    assert(device_ != nullptr);

    for (int i = 0; i < 4; ++i) {
        links_[i] = std::make_unique<Sl3Link>(
            simulator_, name_ + "." + ToString(kLinkPorts[i]), rng.Fork());
        links_[i]->set_shell_version(kShellVersion);
        links_[i]->SetRxHalt(true);
        links_[i]->set_on_corruption(
            [this](const Packet&) { FlagApplicationError(); });
        router_.AttachLink(kLinkPorts[i], links_[i].get());
    }
    for (int c = 0; c < 2; ++c) {
        dram_[c] = std::make_unique<DramController>(simulator_, rng.Fork());
    }

    router_.set_local_delivery(
        [this](PacketPtr packet) { DeliverLocal(std::move(packet)); });
    // §3.6: every router crossing is recorded.
    router_.set_fdr(&fdr_);
    dma_.set_on_ingress([this](PacketPtr packet) { OnIngress(std::move(packet)); });

    // The shell reacts to device configuration transitions.
    device_state_ = device_->state_changes().Subscribe(
        [this](fpga::DeviceState next) {
            if (next == fpga::DeviceState::kActive) {
                // §3.4: "each FPGA comes up with RX Halt enabled".
                rx_halted_ = true;
                application_error_ = false;
                for (auto& link : links_) {
                    link->SetRxHalt(true);
                    link->SetTxHalt(false);
                }
                dma_.set_device_present(true);
                PowerOnRecord rec;
                rec.sl3_lanes_locked = true;
                rec.plls_locked = true;
                rec.resets_sequenced = true;
                rec.dram_calibrated = dram_[0]->status().calibrated &&
                                      dram_[1]->status().calibrated;
                rec.recorded_at = simulator_->Now();
                fdr_.RecordPowerOn(rec);
            }
        });
}

Sl3Link& Shell::link(Port port) { return *links_[LinkIndex(port)]; }
const Sl3Link& Shell::link(Port port) const { return *links_[LinkIndex(port)]; }

void Shell::SendFromRole(PacketPtr packet) {
    packet->shell_version = kShellVersion;
    router_.RecordCrossing(*packet, Port::kRole, Port::kRole);
    router_.Inject(std::move(packet), Port::kRole);
}

void Shell::SendToHost(PacketPtr packet) {
    const int slot = packet->slot >= 0 ? packet->slot : 0;
    dma_.SendToHost(slot, std::move(packet));
}

void Shell::OnIngress(PacketPtr packet) {
    router_.RecordCrossing(*packet, Port::kPcie, Port::kPcie);
    router_.Inject(std::move(packet), Port::kPcie);
}

void Shell::DeliverLocal(PacketPtr packet) {
    switch (packet->type) {
      case PacketType::kScoringResponse:
        SendToHost(std::move(packet));
        return;
      case PacketType::kScoringRequest:
      case PacketType::kModelReload:
        if (partial_reconfig_active_) {
            // The role region is mid-rewrite; local deliveries are lost
            // (transit traffic keeps flowing through the router).
            ++partial_drops_;
            return;
        }
        if (role_ != nullptr) {
            role_->OnPacket(std::move(packet));
        } else {
            LOG_DEBUG("shell") << name_ << ": packet for absent role dropped";
        }
        return;
      case PacketType::kLinkProbe:
        // Health Monitor probes are answered at shell level; nothing to
        // do here — identity is read via CollectHealth().
        return;
      default:
        return;
    }
}

void Shell::Reconfigure(fpga::FlashSlot slot, bool graceful,
                        std::function<void(bool)> on_done) {
    if (graceful) {
        // §3.4: send "TX Halt" so neighbours ignore our garbage.
        for (auto& link : links_) link->SetTxHalt(true);
    } else {
        // Crash path: garbage sprays out with no warning.
        for (auto& link : links_) link->EmitGarbageBurst();
    }
    // The PCIe device disappears; the host must have masked the NMI.
    dma_.set_device_present(false);
    device_->ConfigureFromFlash(slot, std::move(on_done));
}

void Shell::PartialReconfigure(const fpga::Bitstream& role_image,
                               std::function<void(bool)> on_done) {
    if (partial_reconfig_active_ || !device_->active()) {
        simulator_->ScheduleAfter(0, [cb = std::move(on_done)] { cb(false); });
        return;
    }
    // Admission: the new role must fit the device alongside the shell.
    if (role_image.area.logic_pct > 100.0 || role_image.area.ram_pct > 100.0 ||
        role_image.area.dsp_pct > 100.0) {
        simulator_->ScheduleAfter(0, [cb = std::move(on_done)] { cb(false); });
        return;
    }
    partial_reconfig_active_ = true;
    LOG_INFO("shell") << name_ << ": partial reconfiguration to "
                      << role_image.role_name << " (shell stays active)";
    simulator_->ScheduleAfter(
        kPartialReconfigTime,
        [this, role_image, cb = std::move(on_done)] {
            partial_reconfig_active_ = false;
            partial_role_image_ = role_image;
            application_error_ = false;
            cb(true);
        });
}

void Shell::ReleaseRxHalt() {
    rx_halted_ = false;
    for (auto& link : links_) link->SetRxHalt(false);
}

void Shell::EngageRxHalt() {
    rx_halted_ = true;
    for (auto& link : links_) link->SetRxHalt(true);
}

void Shell::SetNeighborId(Port port, NodeId id) {
    neighbor_ids_[LinkIndex(port)] = id;
}

void Shell::AttachTelemetry(mgmt::TelemetryTap tap) {
    telemetry_ = tap;
    for (auto& link : links_) link->AttachTelemetry(tap);
    for (auto& dram : dram_) dram->AttachTelemetry(tap);
    dma_.AttachTelemetry(tap);
}

void Shell::FlagApplicationError() {
    // Transition publish: corrupted state stays corrupted until a
    // reconfiguration clears it, so repeat flags are not new faults.
    if (!application_error_) {
        telemetry_.Publish(mgmt::TelemetryKind::kApplicationError);
    }
    application_error_ = true;
}

HealthVector Shell::CollectHealth() {
    HealthVector health;
    for (int i = 0; i < 4; ++i) {
        const auto& counters = links_[i]->counters();
        const bool hard_errors = counters.crc_drops > 0 ||
                                 counters.double_bit_drops > 0 ||
                                 counters.undetected_errors > 0;
        // An uncabled port (loopback rigs, pod edges under test) is not
        // an error; a cabled-but-unlocked (defective) link is. Unplugged
        // cables in a full pod surface as kInvalidNode neighbour ids,
        // which the Health Monitor checks against the expected wiring.
        health.link_error[i] =
            (links_[i]->connected() && !links_[i]->locked()) || hard_errors;
        health.neighbor_id[i] =
            links_[i]->locked() ? neighbor_ids_[i] : kInvalidNode;
    }
    bool bit_errors = false;
    bool calib_fail = false;
    for (const auto& dram : dram_) {
        bit_errors |= dram->status().single_bit_errors > 0 ||
                      dram->status().double_bit_errors > 0;
        calib_fail |= !dram->status().calibrated;
    }
    health.dram_bit_errors = bit_errors;
    health.dram_calibration_failure = calib_fail;
    health.application_error = application_error_ ||
                               device_->role_corrupted() ||
                               (role_ != nullptr && !role_->Healthy());
    health.pll_lock_failure = false;
    health.pcie_errors = dma_.host_to_fpga_link().counters().errors > 0 ||
                         dma_.fpga_to_host_link().counters().errors > 0;
    device_->UpdateThermals();
    health.temperature_shutdown = device_->thermal().over_temperature();
    health.rx_halted = rx_halted_;
    return health;
}

}  // namespace catapult::shell
