// Mapping Manager (§3.3-§3.5).
//
// "The first, called the Mapping Manager, is responsible for configuring
// FPGAs with the correct application images when starting up a given
// datacenter service." It also owns the §3.4 RX-Halt release ordering —
// "The Mapping Manager tells each server to release RX Halt once all
// FPGAs in a pipeline have been configured" — and, on failures reported
// by the Health Monitor, decides "where to relocate various application
// roles on the fabric" and reconfigures every FPGA involved in the
// service, clearing corrupted state and mapping out hardware failures.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "fabric/catapult_fabric.h"
#include "fpga/bitstream.h"
#include "host/host_server.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

/** One role placement within a service deployment. */
struct RoleAssignment {
    std::string role_name;
    fpga::Bitstream image;
    int node = 0;  ///< Pod-local node index.
};

/**
 * One-way latency of the management network's Ethernet messages:
 * Mapping Manager commands and Health Monitor status queries.
 */
inline constexpr Time kEthernetLatency = Microseconds(150);

/** A service to map onto the fabric. */
struct ServiceSpec {
    std::string service_name;
    std::vector<RoleAssignment> roles;
};

class MappingManager {
  public:
    MappingManager(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                   std::vector<host::HostServer*> hosts);

    MappingManager(const MappingManager&) = delete;
    MappingManager& operator=(const MappingManager&) = delete;

    /**
     * Deploy a service: stage every role image in its node's flash
     * (rack-integration-time flashing), configure every assigned FPGA
     * (in parallel), install torus routing tables, then release RX
     * Halt everywhere — only after all pipeline FPGAs are configured
     * (§3.4).
     */
    void Deploy(const ServiceSpec& spec, std::function<void(bool)> on_done);

    /**
     * Reconfigure one node in place (§3.5: "simply reconfiguring the
     * FPGA in-place is sufficient to resolve the hang"), re-releasing
     * its RX halt afterwards.
     */
    void ReconfigureInPlace(int node, std::function<void(bool)> on_done);

    /**
     * Node currently hosting `role_name`, or -1. The role map is
     * cumulative across Deploy calls (one spec per ring of a pool), so
     * every deployed ring's roles resolve, not just the last spec's.
     */
    int NodeOfRole(const std::string& role_name) const;

    /**
     * Role currently mapped to `node`, or empty. Served from a
     * node-indexed reverse map (the health plane asks per fault
     * report, which is far hotter than the deploys that change it).
     */
    std::string RoleAtNode(int node) const;

    struct Counters {
        std::uint64_t reconfigurations = 0;
    };
    const Counters& counters() const { return counters_; }

  private:
    void ConfigureAll(std::function<void(bool)> on_done);
    void ReleaseAllRxHalts();
    /** Recompute node_to_role_ from role_to_node_ (deploy-time only). */
    void RebuildNodeIndex();

    sim::Simulator* simulator_;
    fabric::CatapultFabric* fabric_;
    std::vector<host::HostServer*> hosts_;
    ServiceSpec spec_;
    std::map<std::string, int> role_to_node_;
    std::vector<std::string> node_to_role_;  ///< Indexed by node.
    Counters counters_;
};

}  // namespace catapult::mgmt
