// Unit tests for the management plane: Mapping Manager deploy ordering,
// Health Monitor reboot ladder and fault classification (§3.3-§3.5).

#include <gtest/gtest.h>

#include <memory>

#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "mgmt/failure_injector.h"
#include "mgmt/health_monitor.h"
#include "mgmt/mapping_manager.h"
#include "sim/simulator.h"

namespace catapult::mgmt {
namespace {

struct MgmtRig {
    sim::Simulator sim;
    std::unique_ptr<fabric::CatapultFabric> fabric;
    std::vector<std::unique_ptr<host::HostServer>> host_storage;
    std::vector<host::HostServer*> hosts;
    std::unique_ptr<MappingManager> mapping;
    std::unique_ptr<HealthMonitor> health;

    explicit MgmtRig(fabric::CatapultFabric::Config config = {}) {
        fabric = std::make_unique<fabric::CatapultFabric>(&sim, Rng(5), config);
        for (int i = 0; i < fabric->node_count(); ++i) {
            host_storage.push_back(std::make_unique<host::HostServer>(
                &sim, "srv" + std::to_string(i), &fabric->shell(i)));
            hosts.push_back(host_storage.back().get());
        }
        mapping = std::make_unique<MappingManager>(&sim, fabric.get(), hosts);
        health = std::make_unique<HealthMonitor>(&sim, fabric.get(), hosts);
    }

    ServiceSpec EightNodeSpec() {
        ServiceSpec spec;
        spec.service_name = "test.service";
        for (int i = 0; i < 8; ++i) {
            RoleAssignment role;
            role.role_name = "stage" + std::to_string(i);
            role.image = fpga::MakeBitstream(
                static_cast<std::uint64_t>(100 + i), role.role_name,
                {50, 50, 10}, Frequency::MHz(150.0));
            role.node = i;
            spec.roles.push_back(role);
        }
        return spec;
    }
};

TEST(MappingManager, DeployConfiguresAllNodes) {
    MgmtRig rig;
    bool ok = false;
    rig.mapping->Deploy(rig.EightNodeSpec(), [&](bool success) { ok = success; });
    rig.sim.Run();
    EXPECT_TRUE(ok);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(rig.fabric->device(i).active());
        EXPECT_EQ(rig.fabric->device(i).loaded_image().role_name,
                  "stage" + std::to_string(i));
    }
}

TEST(MappingManager, RxHaltReleasedOnlyAfterAllConfigured) {
    // §3.4: "The Mapping Manager tells each server to release RX Halt
    // once all FPGAs in a pipeline have been configured."
    MgmtRig rig;
    bool deployed = false;
    rig.mapping->Deploy(rig.EightNodeSpec(),
                        [&](bool ok) { deployed = ok; });
    // Mid-deployment: devices configuring, RX halts still engaged.
    rig.sim.RunUntil(Milliseconds(100));
    EXPECT_FALSE(deployed);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(rig.fabric->shell(i).rx_halted());
    }
    rig.sim.Run();
    EXPECT_TRUE(deployed);
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(rig.fabric->shell(i).rx_halted());
    }
}

TEST(MappingManager, RoutesInstalledAfterDeploy) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    shell::Port out;
    EXPECT_TRUE(rig.fabric->shell(0).router().routing_table().Lookup(
        rig.fabric->GlobalId(1), out));
}

TEST(MappingManager, RoleLookupAfterDeploy) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    EXPECT_EQ(rig.mapping->NodeOfRole("stage3"), 3);
    EXPECT_EQ(rig.mapping->RoleAtNode(5), "stage5");
    EXPECT_EQ(rig.mapping->NodeOfRole("nonexistent"), -1);
}

TEST(MappingManager, ReconfigureInPlaceRestoresNode) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    // Simulate a hang resolved by in-place reconfiguration (§3.5).
    rig.fabric->shell(2).FlagApplicationError();
    bool ok = false;
    rig.mapping->ReconfigureInPlace(2, [&](bool success) { ok = success; });
    rig.sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_FALSE(rig.fabric->shell(2).rx_halted());
    EXPECT_FALSE(rig.fabric->shell(2).CollectHealth().application_error);
}

TEST(HealthMonitor, HealthyMachinesReportNoFault) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    std::vector<MachineReport> reports;
    rig.health->Investigate({0, 1, 2},
                            [&](std::vector<MachineReport> r) { reports = r; });
    rig.sim.Run();
    ASSERT_EQ(reports.size(), 3u);
    for (const auto& report : reports) {
        EXPECT_EQ(report.fault, FaultType::kNone) << "node " << report.node;
    }
    EXPECT_TRUE(rig.health->failed_machine_list().empty());
}

TEST(HealthMonitor, UnresponsiveServerGetsRebootLadder) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    // Crash node 4's host; no self-heal (cancel the auto reboot by
    // flagging, then investigate).
    rig.hosts[4]->CrashAndReboot("test crash");
    std::vector<MachineReport> reports;
    rig.health->Investigate({4},
                            [&](std::vector<MachineReport> r) { reports = r; });
    rig.sim.Run();
    ASSERT_EQ(reports.size(), 1u);
    // Either the crash self-healed before the query, or the ladder
    // recovered it; in both cases the node is running again.
    EXPECT_TRUE(rig.hosts[4]->responsive());
}

TEST(HealthMonitor, ClassifiesLinkError) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    rig.fabric->InjectCableDefect(3, shell::Port::kEast);
    std::vector<MachineReport> reports;
    rig.health->Investigate({3},
                            [&](std::vector<MachineReport> r) { reports = r; });
    rig.sim.Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].fault, FaultType::kLinkError);
    EXPECT_EQ(rig.health->failed_machine_list().size(), 1u);
}

TEST(HealthMonitor, ClassifiesApplicationError) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    rig.fabric->shell(6).FlagApplicationError();
    std::vector<MachineReport> reports;
    rig.health->Investigate({6},
                            [&](std::vector<MachineReport> r) { reports = r; });
    rig.sim.Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].fault, FaultType::kApplicationError);
}

TEST(HealthMonitor, ClassifiesDramCalibrationFailure) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    rig.fabric->shell(1).dram(0).set_calibrated(false);
    std::vector<MachineReport> reports;
    rig.health->Investigate({1},
                            [&](std::vector<MachineReport> r) { reports = r; });
    rig.sim.Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].fault, FaultType::kDramError);
}

TEST(HealthMonitor, OnMachineFailedHookFires) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    int hook_calls = 0;
    const Subscription subscription = rig.health->failures().Subscribe(
        [&](const MachineReport&) { ++hook_calls; });
    rig.fabric->shell(2).FlagApplicationError();
    rig.health->Investigate({2}, [](std::vector<MachineReport>) {});
    rig.sim.Run();
    EXPECT_EQ(hook_calls, 1);
}

TEST(FailureInjector, ScheduledFaultsFire) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    FailureInjector injector(&rig.sim, rig.fabric.get(), rig.hosts);
    const Time t0 = rig.sim.Now();
    injector.ScheduleApplicationHang(5, t0 + Milliseconds(1));
    injector.ScheduleDramCalibrationFailure(6, 0, t0 + Milliseconds(2));
    injector.ScheduleCableDefect(7, shell::Port::kNorth, t0 + Milliseconds(3));
    rig.sim.Run();
    EXPECT_EQ(injector.injected_count(), 3u);
    EXPECT_TRUE(rig.fabric->shell(5).CollectHealth().application_error);
    EXPECT_TRUE(rig.fabric->shell(6).CollectHealth().dram_calibration_failure);
    EXPECT_TRUE(rig.fabric->shell(7).CollectHealth().link_error[0]);
}

TEST(FailureInjector, MachineRebootMakesHostUnresponsiveThenHeals) {
    MgmtRig rig;
    rig.mapping->Deploy(rig.EightNodeSpec(), [](bool) {});
    rig.sim.Run();
    FailureInjector injector(&rig.sim, rig.fabric.get(), rig.hosts);
    injector.ScheduleMachineReboot(3, rig.sim.Now() + Milliseconds(1));
    rig.sim.RunUntil(rig.sim.Now() + Milliseconds(2));
    EXPECT_FALSE(rig.hosts[3]->responsive());
    rig.sim.Run();
    EXPECT_TRUE(rig.hosts[3]->responsive());
}

}  // namespace
}  // namespace catapult::mgmt
