// Shell router: crossbar between the four SL3 ports, PCIe, and the role.
//
// §3.2: "The router is a standard crossbar that connects the four
// inter-FPGA network ports, the PCIe controller, and the application
// role. The routing decisions are made by a static software-configured
// routing table ... The transport protocol is virtual cut-through with
// no retransmission or source buffering."
//
// Packets addressed to the local node are handed to a shell-installed
// local delivery function (which steers requests to the role and
// responses to PCIe). Everything else consults the routing table and is
// forwarded out an SL3 port with a small cut-through hop latency.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"
#include "shell/flight_data_recorder.h"
#include "shell/packet.h"
#include "shell/routing_table.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult::shell {

class Router {
  public:
    struct Counters {
        std::uint64_t forwarded = 0;
        std::uint64_t delivered_local = 0;
        std::uint64_t injected = 0;
        std::uint64_t no_route_drops = 0;
        std::uint64_t backpressure_stalls = 0;
    };

    Router(sim::Simulator* simulator, NodeId local_node);

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /**
     * Attach the SL3 endpoint serving `port` (kNorth..kWest). Any other
     * port aborts in every build.
     */
    void AttachLink(Port port, Sl3Link* link);
    Sl3Link* link(Port port) const;

    /** Local sink for packets addressed to this node. */
    void set_local_delivery(std::function<void(PacketPtr)> fn) {
        local_delivery_ = std::move(fn);
    }

    /**
     * Record every packet crossing the crossbar in `fdr` (§3.6); null
     * stops recording. The shell attaches its recorder at construction.
     */
    void set_fdr(FlightDataRecorder* fdr) { fdr_ = fdr; }

    /**
     * Log one crossing in the attached FDR, with the receive queues'
     * occupancy as the record's misc state. No-op when none is attached.
     */
    void RecordCrossing(const Packet& packet, Port in, Port out);

    /**
     * Inject a packet from the role or PCIe side. Routing happens after
     * the crossbar hop latency. Returns false when the packet had no
     * route (it is counted and dropped, matching the no-retransmission
     * transport).
     */
    void Inject(PacketPtr packet, Port from);

    RoutingTable& routing_table() { return table_; }
    const RoutingTable& routing_table() const { return table_; }

    NodeId local_node() const { return local_node_; }
    const Counters& counters() const { return counters_; }

    /** Current depth of the named input's receive queue, in flits. */
    std::size_t InputOccupancyFlits(Port port) const;

  private:
    void OnLinkReceive(Port port);
    void DrainInput(Port port);
    void Route(PacketPtr packet, Port in);

    sim::Simulator* simulator_;
    NodeId local_node_;
    RoutingTable table_;
    std::array<Sl3Link*, kPortCount> links_{};
    std::array<bool, kPortCount> drain_scheduled_{};
    std::function<void(PacketPtr)> local_delivery_;
    FlightDataRecorder* fdr_ = nullptr;
    Counters counters_;
};

}  // namespace catapult::shell
