// FPGA-side DMA engine implementing the slot protocol of §3.1.
//
// The host allocates one input and one output buffer in non-paged
// user-level memory, divided into 64 slots with per-slot full bits.
// Host -> FPGA: a thread fills its slot, sets the full bit; the FPGA
// "monitors the full bits and fairly selects a candidate slot for
// DMA'ing into one of two staging buffers on the FPGA, clearing the
// full bit once the data has been transferred. Fairness is achieved by
// taking periodic snapshots of the full bits, and DMA'ing all full
// slots before taking another snapshot."
// FPGA -> host: the engine "checks to make sure that the output slot is
// empty and then DMAs the results into the output buffer ... sets the
// full bit ... and generates an interrupt to wake and notify the
// consumer thread."

#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/ring_queue.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "shell/packet.h"
#include "shell/pcie_link.h"
#include "sim/simulator.h"

namespace catapult::shell {

inline constexpr int kDmaSlotCount = 64;
inline constexpr Bytes kDmaSlotBytes = 64 * 1024;

class DmaEngine {
  public:
    /**
     * Interrupt delivery + consumer thread wake latency on readback
     * (§3.1: "generates an interrupt to wake and notify the consumer
     * thread" — scheduling a blocked user thread costs microseconds).
     */
    static constexpr Time kInterruptLatency = Microseconds(3);

    struct Counters {
        std::uint64_t snapshots = 0;
        std::uint64_t output_stalls = 0;
    };

    explicit DmaEngine(sim::Simulator* simulator);

    DmaEngine(const DmaEngine&) = delete;
    DmaEngine& operator=(const DmaEngine&) = delete;

    // --- Host-facing surface (used by host::SlotDmaChannel) -----------

    /**
     * Host thread set the full bit on input slot `slot` whose contents
     * describe `packet`. Returns false if the slot was already full
     * (a protocol violation by the caller) or the packet exceeds the
     * slot; the packet then stays with the caller. A slot outside
     * [0, kDmaSlotCount) aborts in every build.
     */
    bool SetInputFull(int slot, PacketPtr&& packet);

    /** True when the input slot's full bit is set (DMA not yet done). */
    bool InputFull(int slot) const { return input_full_[slot]; }

    /**
     * Host consumed output slot `slot`: clears the output full bit. A
     * slot out of range aborts in every build.
     */
    void ConsumeOutput(int slot);

    bool OutputFull(int slot) const { return output_full_[slot]; }

    /** Host callback: input slot's full bit cleared (slot reusable). */
    void set_on_input_cleared(std::function<void(int)> cb) {
        on_input_cleared_ = std::move(cb);
    }

    /** Host callback: interrupt after an output DMA (slot, packet). */
    void set_on_output_ready(std::function<void(int, PacketPtr)> cb) {
        on_output_ready_ = std::move(cb);
    }

    // --- Fabric-facing surface (used by Shell) ------------------------

    /** Packets DMA'd from host slots are handed here (to the router). */
    void set_on_ingress(std::function<void(PacketPtr)> cb) {
        on_ingress_ = std::move(cb);
    }

    /**
     * FPGA produced a result for the thread owning `slot`. If the output
     * slot is full the result queues until the host consumes it. A slot
     * out of range aborts in every build.
     */
    void SendToHost(int slot, PacketPtr packet);

    /** Device disappeared from PCIe (reconfiguration, §3.4). */
    void set_device_present(bool present);

    /**
     * Publish output-slot stalls (host not draining results) as
     * health-plane events. Transfer failures while the device is off
     * the bus are expected reconfiguration noise and stay unpublished.
     */
    void AttachTelemetry(mgmt::TelemetryTap tap) { telemetry_ = tap; }

    const Counters& counters() const { return counters_; }
    PcieLink& host_to_fpga_link() { return h2f_; }
    PcieLink& fpga_to_host_link() { return f2h_; }

  private:
    void PumpInput();
    void StartSnapshotTransfer();
    void FinishInputTransfer(int slot, bool ok);
    void PumpOutput(int slot);
    static void CheckSlot(const char* call, int slot);

    sim::Simulator* simulator_;
    PcieLink h2f_;
    PcieLink f2h_;
    Counters counters_;

    /** Full bits of the input buffer. */
    std::array<bool, kDmaSlotCount> input_full_{};
    /** Contents of each full input slot until its DMA starts. */
    std::array<PacketPtr, kDmaSlotCount> input_packet_{};
    /** The packet crossing host -> FPGA (one input DMA at a time). */
    PacketPtr input_transfer_;
    /** Snapshot of full slots being drained, in slot order. */
    RingQueue<int> snapshot_;
    bool input_dma_active_ = false;

    std::array<bool, kDmaSlotCount> output_full_{};
    std::array<RingQueue<PacketPtr>, kDmaSlotCount> output_wait_{};
    std::array<bool, kDmaSlotCount> output_dma_active_{};

    std::function<void(int)> on_input_cleared_;
    std::function<void(int, PacketPtr)> on_output_ready_;
    std::function<void(PacketPtr)> on_ingress_;
    mgmt::TelemetryTap telemetry_;
};

}  // namespace catapult::shell
