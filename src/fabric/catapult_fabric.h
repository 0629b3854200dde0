// Pod-level fabric builder: devices, shells, cabling, defect injection.
//
// A CatapultFabric instantiates one pod (48 FPGAs by default), wires the
// SL3 links into the 6x8 torus through modelled cable assemblies, and
// installs dimension-order routing tables. Deployment statistics from
// §2.3 — 0.4% card hardware failures and 0.03% defective cable links at
// integration — are injectable through the config to reproduce the
// deployment experiment.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/torus_topology.h"
#include "fpga/fpga_device.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::fabric {

/** One cable assembly link between two (node, port) endpoints. */
struct CableLink {
    int node_a = 0;
    shell::Port port_a = shell::Port::kEast;
    int node_b = 0;
    shell::Port port_b = shell::Port::kWest;
    bool defective = false;
};

class CatapultFabric {
  public:
    struct Config {
        TorusTopology topology;           ///< Default 6x8.
        int pod_id = 0;                   ///< Pod index within a federation.
        shell::NodeId node_base = 0;      ///< Global id of pod-local node 0.
        std::string name_prefix = "pod0";
        /** Probability a card fails at manufacture/integration (§2.3). */
        double card_failure_rate = 0.0;
        /** Probability an individual cable link is defective (§2.3). */
        double cable_defect_rate = 0.0;
        fpga::FpgaDevice::Config device;
    };

    CatapultFabric(sim::Simulator* simulator, Rng rng, Config config);
    CatapultFabric(sim::Simulator* simulator, Rng rng)
        : CatapultFabric(simulator, rng, Config()) {}

    CatapultFabric(const CatapultFabric&) = delete;
    CatapultFabric& operator=(const CatapultFabric&) = delete;

    const TorusTopology& topology() const { return config_.topology; }
    int node_count() const { return config_.topology.node_count(); }
    int pod_id() const { return config_.pod_id; }
    shell::NodeId node_base() const { return config_.node_base; }

    /** Global node id of pod-local index `i`. */
    shell::NodeId GlobalId(int i) const {
        return config_.node_base + static_cast<shell::NodeId>(i);
    }

    shell::Shell& shell(int i) { return *shells_[static_cast<std::size_t>(i)]; }
    const shell::Shell& shell(int i) const {
        return *shells_[static_cast<std::size_t>(i)];
    }
    fpga::FpgaDevice& device(int i) {
        return *devices_[static_cast<std::size_t>(i)];
    }

    const std::vector<CableLink>& cables() const { return cables_; }

    /** Count of cards that failed at integration. */
    int failed_cards() const { return failed_cards_; }
    /** Count of cable links found defective at integration. */
    int defective_links() const { return defective_links_; }

    /**
     * Install dimension-order routing tables into every shell (the
     * Mapping Manager's default policy).
     */
    void InstallTorusRoutes();

    /** Mark one cable defective at run time (failure injection). */
    void InjectCableDefect(int node, shell::Port port);

    /**
     * Wire every shell and FPGA device into the health plane: fault
     * events publish onto `bus` attributed to pod-local node indices.
     */
    void AttachTelemetry(mgmt::TelemetryBus* bus);

  private:
    void Build(Rng& rng);

    sim::Simulator* simulator_;
    Config config_;
    std::vector<std::unique_ptr<fpga::FpgaDevice>> devices_;
    std::vector<std::unique_ptr<shell::Shell>> shells_;
    std::vector<CableLink> cables_;
    int failed_cards_ = 0;
    int defective_links_ = 0;
};

}  // namespace catapult::fabric
