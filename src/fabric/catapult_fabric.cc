#include "fabric/catapult_fabric.h"

#include <cassert>

#include "common/log.h"

namespace catapult::fabric {

using shell::Port;

CatapultFabric::CatapultFabric(sim::Simulator* simulator, Rng rng,
                               Config config)
    : simulator_(simulator), config_(std::move(config)) {
    assert(simulator_ != nullptr);
    Build(rng);
}

void CatapultFabric::Build(Rng& rng) {
    const int n = config_.topology.node_count();
    devices_.reserve(static_cast<std::size_t>(n));
    shells_.reserve(static_cast<std::size_t>(n));

    for (int i = 0; i < n; ++i) {
        const std::string name =
            config_.name_prefix + ".fpga" + std::to_string(i);
        devices_.push_back(std::make_unique<fpga::FpgaDevice>(
            simulator_, name, rng.Fork(), config_.device));
        shells_.push_back(std::make_unique<shell::Shell>(
            simulator_, GlobalId(i), name, devices_.back().get(), rng.Fork()));
        if (rng.Chance(config_.card_failure_rate)) {
            devices_.back()->ForceFail("integration-time card failure");
            ++failed_cards_;
        }
    }

    // Wire the torus. Each node owns the connection to its east and
    // south neighbours, so every physical cable appears exactly once.
    for (int i = 0; i < n; ++i) {
        for (const Port port : {Port::kEast, Port::kSouth}) {
            const int j = config_.topology.NeighborOf(i, port);
            // A 1-wide dimension (ring-slice fabrics are 1x8) folds a
            // node onto itself; routing never takes that dimension, so
            // skip the degenerate self-cable instead of wiring a shell
            // link back into its own node.
            if (j == i) continue;
            const Port far = shell::Opposite(port);
            CableLink cable{i, port, j, far, false};
            if (rng.Chance(config_.cable_defect_rate)) {
                cable.defective = true;
                ++defective_links_;
            }
            shells_[static_cast<std::size_t>(i)]->link(port).ConnectTo(
                &shells_[static_cast<std::size_t>(j)]->link(far));
            if (cable.defective) {
                shells_[static_cast<std::size_t>(i)]->link(port).set_defective(true);
                shells_[static_cast<std::size_t>(j)]->link(far).set_defective(true);
            }
            shells_[static_cast<std::size_t>(i)]->SetNeighborId(port, GlobalId(j));
            shells_[static_cast<std::size_t>(j)]->SetNeighborId(far, GlobalId(i));
            cables_.push_back(cable);
        }
    }
    LOG_INFO("fabric") << config_.name_prefix << ": built " << n
                       << " nodes, " << cables_.size() << " cables ("
                       << failed_cards_ << " failed cards, "
                       << defective_links_ << " defective links)";
}

void CatapultFabric::InstallTorusRoutes() {
    const int n = config_.topology.node_count();
    for (int i = 0; i < n; ++i) {
        auto& table = shells_[static_cast<std::size_t>(i)]->router().routing_table();
        table.Clear();
        config_.topology.BuildRoutingTable(i, config_.node_base, table);
    }
}

void CatapultFabric::InjectCableDefect(int node, Port port) {
    auto& near = shell(node).link(port);
    near.set_defective(true);
    if (near.peer() != nullptr) near.peer()->set_defective(true);
    ++defective_links_;
}

void CatapultFabric::AttachTelemetry(mgmt::TelemetryBus* bus) {
    for (int i = 0; i < node_count(); ++i) {
        shells_[static_cast<std::size_t>(i)]->AttachTelemetry({bus, i});
        devices_[static_cast<std::size_t>(i)]->AttachTelemetry({bus, i});
    }
}

}  // namespace catapult::fabric
