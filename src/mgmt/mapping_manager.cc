#include "mgmt/mapping_manager.h"

#include <cassert>
#include <iterator>
#include <memory>

#include "common/log.h"

namespace catapult::mgmt {

MappingManager::MappingManager(sim::Simulator* simulator,
                               fabric::CatapultFabric* fabric,
                               std::vector<host::HostServer*> hosts)
    : simulator_(simulator), fabric_(fabric), hosts_(std::move(hosts)) {
    assert(simulator_ != nullptr);
    assert(fabric_ != nullptr);
}

void MappingManager::Deploy(const ServiceSpec& spec,
                            std::function<void(bool)> on_done) {
    spec_ = spec;
    // The role map is cumulative across deployments: a multi-ring pool
    // deploys one spec per ring (serialized), and every ring's roles
    // must stay resolvable afterwards. A node being redeployed sheds
    // its old role; a role name being redeployed moves to its new node.
    for (const auto& role : spec_.roles) {
        for (auto it = role_to_node_.begin(); it != role_to_node_.end();) {
            it = it->second == role.node ? role_to_node_.erase(it)
                                         : std::next(it);
        }
    }
    for (const auto& role : spec_.roles) {
        role_to_node_[role.role_name] = role.node;
    }
    RebuildNodeIndex();
    LOG_INFO("mapping_manager") << "deploying " << spec_.service_name
                                << " across " << spec_.roles.size()
                                << " nodes";
    // Stage images into flash, then configure everything.
    for (const auto& role : spec_.roles) {
        fabric_->device(role.node).flash().InstallImage(
            fpga::FlashSlot::kApplication, role.image);
    }
    ConfigureAll(std::move(on_done));
}

void MappingManager::ConfigureAll(std::function<void(bool)> on_done) {
    auto remaining = std::make_shared<int>(static_cast<int>(spec_.roles.size()));
    auto all_ok = std::make_shared<bool>(true);
    if (spec_.roles.empty()) {
        on_done(true);
        return;
    }
    for (const auto& role : spec_.roles) {
        host::HostServer* host = hosts_[static_cast<std::size_t>(role.node)];
        simulator_->ScheduleAfter(
            kEthernetLatency,
            [this, host, remaining, all_ok, on_done]() mutable {
                host->ReconfigureFromFlash(
                    fpga::FlashSlot::kApplication,
                    [this, remaining, all_ok, on_done](bool ok) {
                        *all_ok = *all_ok && ok;
                        if (--*remaining == 0) {
                            // §3.4 ordering: routes + RX halt release only
                            // after every FPGA in the pipeline is up.
                            fabric_->InstallTorusRoutes();
                            ReleaseAllRxHalts();
                            on_done(*all_ok);
                        }
                    });
            });
    }
}

void MappingManager::ReconfigureInPlace(int node,
                                        std::function<void(bool)> on_done) {
    ++counters_.reconfigurations;
    host::HostServer* host = hosts_[static_cast<std::size_t>(node)];
    simulator_->ScheduleAfter(
        kEthernetLatency,
        [this, host, node, on_done = std::move(on_done)]() mutable {
            host->ReconfigureFromFlash(
                fpga::FlashSlot::kApplication,
                [this, node, on_done = std::move(on_done)](bool ok) {
                    if (ok) {
                        // Reinstall this node's routes and release its halt.
                        auto& table =
                            fabric_->shell(node).router().routing_table();
                        table.Clear();
                        fabric_->topology().BuildRoutingTable(
                            node, fabric_->node_base(), table);
                        fabric_->shell(node).ReleaseRxHalt();
                    }
                    on_done(ok);
                });
        });
}

void MappingManager::ReleaseAllRxHalts() {
    for (const auto& role : spec_.roles) {
        fabric_->shell(role.node).ReleaseRxHalt();
    }
}

int MappingManager::NodeOfRole(const std::string& role_name) const {
    const auto it = role_to_node_.find(role_name);
    return it == role_to_node_.end() ? -1 : it->second;
}

std::string MappingManager::RoleAtNode(int node) const {
    if (node < 0 || node >= static_cast<int>(node_to_role_.size())) return {};
    return node_to_role_[static_cast<std::size_t>(node)];
}

void MappingManager::RebuildNodeIndex() {
    node_to_role_.clear();
    for (const auto& [role, n] : role_to_node_) {
        if (n < 0) continue;
        if (n >= static_cast<int>(node_to_role_.size())) {
            node_to_role_.resize(static_cast<std::size_t>(n) + 1);
        }
        node_to_role_[static_cast<std::size_t>(n)] = role;
    }
}

}  // namespace catapult::mgmt
