#include "shell/dma_engine.h"

#include <cassert>

#include "common/log.h"

namespace catapult::shell {

DmaEngine::DmaEngine(sim::Simulator* simulator)
    : simulator_(simulator), h2f_(simulator), f2h_(simulator) {
    assert(simulator_ != nullptr);
}

void DmaEngine::CheckSlot(const char* call, int slot) {
    if (slot < 0 || slot >= kDmaSlotCount) {
        FatalMisuse("DmaEngine::%s: slot %d outside [0, %d)", call, slot,
                    kDmaSlotCount);
    }
}

bool DmaEngine::SetInputFull(int slot, PacketPtr&& packet) {
    CheckSlot("SetInputFull", slot);
    assert(packet != nullptr);
    if (input_full_[slot]) return false;
    if (packet->size > kDmaSlotBytes) return false;
    input_full_[slot] = true;
    input_packet_[slot] = std::move(packet);
    PumpInput();
    return true;
}

void DmaEngine::PumpInput() {
    if (input_dma_active_) return;
    if (snapshot_.empty()) {
        // Take a snapshot of the full bits (§3.1 fairness): all currently
        // full slots are drained before the next snapshot.
        for (int s = 0; s < kDmaSlotCount; ++s) {
            if (input_full_[s]) snapshot_.push_back(s);
        }
        if (snapshot_.empty()) return;
        ++counters_.snapshots;
    }
    StartSnapshotTransfer();
}

void DmaEngine::StartSnapshotTransfer() {
    assert(!snapshot_.empty());
    input_dma_active_ = true;
    const int slot = snapshot_.pop_front();
    // The slot may have been claimed by an earlier snapshot pass only if
    // protocol was violated; guard anyway.
    if (!input_full_[slot]) {
        input_dma_active_ = false;
        PumpInput();
        return;
    }
    // The full bit stays set until the data reaches FPGA staging.
    input_transfer_ = std::move(input_packet_[slot]);
    h2f_.Transfer(input_transfer_->size,
                  [this, slot](bool ok) { FinishInputTransfer(slot, ok); });
}

void DmaEngine::FinishInputTransfer(int slot, bool ok) {
    input_dma_active_ = false;
    // Full bit cleared once the data reaches FPGA staging.
    input_full_[slot] = false;
    PacketPtr packet = std::move(input_transfer_);
    if (on_input_cleared_) on_input_cleared_(slot);
    if (ok) {
        packet->slot = slot;
        if (on_ingress_) on_ingress_(std::move(packet));
    } else {
        LOG_DEBUG("dma") << "host->fpga transfer failed (slot " << slot
                         << ")";
    }
    PumpInput();
}

void DmaEngine::SendToHost(int slot, PacketPtr packet) {
    CheckSlot("SendToHost", slot);
    output_wait_[slot].push_back(std::move(packet));
    PumpOutput(slot);
}

void DmaEngine::PumpOutput(int slot) {
    if (output_dma_active_[slot] || output_wait_[slot].empty()) return;
    if (output_full_[slot]) {
        // §3.1: the FPGA checks that the output slot is empty first.
        ++counters_.output_stalls;
        telemetry_.Publish(mgmt::TelemetryKind::kDmaStall);
        return;  // retried when the host consumes the slot
    }
    output_dma_active_[slot] = true;
    PacketPtr packet = output_wait_[slot].pop_front();
    const Bytes size = packet->size;
    f2h_.Transfer(size, [this, slot, packet = std::move(packet)](
                            bool ok) mutable {
        output_dma_active_[slot] = false;
        if (!ok) {
            PumpOutput(slot);
            return;
        }
        output_full_[slot] = true;
        // Interrupt to wake the consumer thread (§3.1).
        simulator_->ScheduleAfter(
            kInterruptLatency,
            [this, slot, packet = std::move(packet)]() mutable {
                if (on_output_ready_) on_output_ready_(slot, std::move(packet));
            });
        PumpOutput(slot);
    });
}

void DmaEngine::ConsumeOutput(int slot) {
    CheckSlot("ConsumeOutput", slot);
    output_full_[slot] = false;
    PumpOutput(slot);
}

void DmaEngine::set_device_present(bool present) {
    h2f_.set_device_present(present);
    f2h_.set_device_present(present);
}

}  // namespace catapult::shell
