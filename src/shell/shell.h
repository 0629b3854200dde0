// The Catapult shell: reusable programmable logic common to all roles.
//
// §3.2: the shell bundles two DRAM controllers, four SL3 link cores,
// the router, reconfiguration (RSU) logic, the PCIe core with DMA
// extensions, and SEU scrubbing; the role accesses these through
// well-defined interfaces without managing system correctness itself.
//
// This class composes the component models and implements the §3.4
// correct-operation protocol:
//  * graceful reconfiguration raises TX Halt on every link first;
//  * an ungraceful (crash) reconfiguration emits garbage bursts that
//    neighbours must survive;
//  * a freshly configured shell comes up with RX Halt engaged and drops
//    link traffic until the Mapping Manager releases it;
//  * the PCIe device disappears during reconfiguration (the host driver
//    must have masked the NMI).

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/feed.h"
#include "common/rng.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "fpga/fpga_device.h"
#include "shell/dma_engine.h"
#include "shell/dram_controller.h"
#include "shell/flight_data_recorder.h"
#include "shell/packet.h"
#include "shell/router.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult::shell {

/** Application logic hosted in the role partition. */
class Role {
  public:
    virtual ~Role() = default;

    /** A packet addressed to this node arrived for the role. */
    virtual void OnPacket(PacketPtr packet) = 0;

    /** Role identity, e.g. "rank.fe". */
    virtual std::string RoleName() const = 0;

    /** Role-level health (stage logic hangs are reported here, §3.5). */
    virtual bool Healthy() const { return true; }
};

/**
 * Error vector returned to the Health Monitor (§3.5): "error flags for
 * inter-FPGA connections, DRAM status (bit errors and calibration
 * failures), errors in the FPGA application, PLL lock issues, PCIe
 * errors, and the occurrence of a temperature shutdown", plus the
 * machine IDs of the four torus neighbours.
 */
struct HealthVector {
    std::array<bool, 4> link_error{};       ///< N, S, E, W.
    std::array<NodeId, 4> neighbor_id{kInvalidNode, kInvalidNode,
                                      kInvalidNode, kInvalidNode};
    bool dram_bit_errors = false;
    bool dram_calibration_failure = false;
    bool application_error = false;
    bool pll_lock_failure = false;
    bool pcie_errors = false;
    bool temperature_shutdown = false;
    /**
     * §3.4 state, not an error: the shell is discarding link traffic
     * until the Mapping Manager releases it. Reported so the Health
     * Monitor can spot a node that rebooted behind the plane's back
     * and is stranded waiting for re-mapping.
     */
    bool rx_halted = false;

    bool AnyError() const;
};

class Shell {
  public:
    Shell(sim::Simulator* simulator, NodeId node, std::string name,
          fpga::FpgaDevice* device, Rng rng);

    Shell(const Shell&) = delete;
    Shell& operator=(const Shell&) = delete;

    NodeId node() const { return node_; }
    const std::string& name() const { return name_; }

    // --- Role hosting --------------------------------------------------

    /** Install the application role (null to clear). */
    void SetRole(Role* role) { role_ = role; }
    Role* role() const { return role_; }

    /** Role-side send: packet enters the router at the role port. */
    void SendFromRole(PacketPtr packet);

    /** FPGA produced a host-bound result (DMA to output slot). */
    void SendToHost(PacketPtr packet);

    // --- Reconfiguration protocol (§3.4) --------------------------------

    /**
     * Reconfigure from a flash slot. `graceful` follows the TX-Halt
     * protocol; ungraceful models a crash/buggy flow that sprays
     * garbage at neighbours. On completion the shell is RX-halted.
     */
    void Reconfigure(fpga::FlashSlot slot, bool graceful,
                     std::function<void(bool)> on_done);

    /** Mapping Manager releases RX Halt once the pipeline is configured. */
    void ReleaseRxHalt();

    /**
     * Re-engage RX Halt immediately (power-domain loss, §3.4 state
     * after an unnoticed reboot): arriving link traffic is discarded
     * until a Mapping Manager releases the halt again.
     */
    void EngageRxHalt();

    /** True while inbound link traffic is being discarded. */
    bool rx_halted() const { return rx_halted_; }

    /**
     * Partial reconfiguration (§3.2's forward-looking design: "partial
     * reconfiguration would allow for dynamic switching between roles
     * while the shell remains active — even routing inter-FPGA traffic
     * while a reconfiguration is taking place"). Only the role region
     * is rewritten: the device never leaves kActive, PCIe stays up, no
     * TX/RX Halt is needed, and the router keeps forwarding transit
     * packets. Packets addressed to the local role during the swap are
     * dropped (the role is mid-rewrite) and surface as host timeouts.
     * Fails when the device is not active or a swap is in progress.
     */
    void PartialReconfigure(const fpga::Bitstream& role_image,
                            std::function<void(bool)> on_done);

    /** True while the role region is being rewritten. */
    bool partial_reconfig_active() const { return partial_reconfig_active_; }

    /** The role image installed by the last partial reconfiguration. */
    const fpga::Bitstream& partial_role_image() const {
        return partial_role_image_;
    }

    // --- Health (§3.5) ---------------------------------------------------

    /** Assemble the Health Monitor error vector from component state. */
    HealthVector CollectHealth();

    /** Neighbour machine ID as wired (set by the fabric at cabling). */
    void SetNeighborId(Port port, NodeId id);

    /**
     * Wire this shell and its components (links, DRAM controllers, DMA
     * engine) into the health plane: faults publish as events
     * attributed to the tap's pod-local node instead of waiting for the
     * next CollectHealth() poll.
     */
    void AttachTelemetry(mgmt::TelemetryTap tap);

    // --- Component access -------------------------------------------------

    Router& router() { return router_; }
    /** The SL3 endpoint on `port`; any other port aborts in every build. */
    Sl3Link& link(Port port);
    const Sl3Link& link(Port port) const;
    DmaEngine& dma() { return dma_; }
    DramController& dram(int channel) { return *dram_[channel]; }
    FlightDataRecorder& fdr() { return fdr_; }
    fpga::FpgaDevice& device() { return *device_; }

    /** Mark an application-level error (stage hang, untested input). */
    void FlagApplicationError();
    void ClearApplicationError() { application_error_ = false; }

  private:
    static int LinkIndex(Port port);
    void DeliverLocal(PacketPtr packet);
    void OnIngress(PacketPtr packet);

    sim::Simulator* simulator_;
    NodeId node_;
    std::string name_;
    fpga::FpgaDevice* device_;
    Router router_;
    std::array<std::unique_ptr<Sl3Link>, 4> links_;  // N, S, E, W
    std::array<std::unique_ptr<DramController>, 2> dram_;
    DmaEngine dma_;
    FlightDataRecorder fdr_;
    Role* role_ = nullptr;
    bool rx_halted_ = true;  // §3.4: comes up with RX Halt enabled
    bool application_error_ = false;
    mgmt::TelemetryTap telemetry_;
    bool partial_reconfig_active_ = false;
    std::uint64_t partial_drops_ = 0;
    fpga::Bitstream partial_role_image_;
    std::array<NodeId, 4> neighbor_ids_{kInvalidNode, kInvalidNode,
                                        kInvalidNode, kInvalidNode};
    /** Reacts to the device's configuration transitions. */
    Subscription device_state_;
};

}  // namespace catapult::shell
