// Unit tests for the Shell composition: role hosting, reconfiguration
// protocol, health vector, and the Flight Data Recorder (§3.2-§3.6).

#include <gtest/gtest.h>

#include <deque>

#include "fpga/fpga_device.h"
#include "shell/flight_data_recorder.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::shell {
namespace {

/** Role that records delivered packets. */
class RecordingRole : public Role {
  public:
    void OnPacket(PacketPtr packet) override {
        received.push_back(std::move(packet));
    }
    std::string RoleName() const override { return "test.recorder"; }

    std::vector<PacketPtr> received;
};

struct ShellRig {
    sim::Simulator sim;
    fpga::FpgaDevice device0{&sim, "dev0", Rng(1)};
    fpga::FpgaDevice device1{&sim, "dev1", Rng(2)};
    Shell shell0{&sim, 0, "shell0", &device0, Rng(3)};
    Shell shell1{&sim, 1, "shell1", &device1, Rng(4)};
    RecordingRole role0, role1;

    ShellRig() {
        // Wire east(0) <-> west(1) like the fabric does.
        shell0.link(Port::kEast).ConnectTo(&shell1.link(Port::kWest));
        shell0.SetNeighborId(Port::kEast, 1);
        shell1.SetNeighborId(Port::kWest, 0);
        shell0.router().routing_table().SetRoute(1, Port::kEast);
        shell1.router().routing_table().SetRoute(0, Port::kWest);
        shell0.SetRole(&role0);
        shell1.SetRole(&role1);
        device0.flash().InstallImage(fpga::FlashSlot::kApplication,
                                     fpga::GoldenBitstream());
        device1.flash().InstallImage(fpga::FlashSlot::kApplication,
                                     fpga::GoldenBitstream());
        shell0.ReleaseRxHalt();
        shell1.ReleaseRxHalt();
    }
};

TEST(Shell, RoleToRoleAcrossLink) {
    ShellRig rig;
    auto packet = MakePacket(PacketType::kScoringRequest, 0, 1, 2048);
    rig.shell0.SendFromRole(std::move(packet));
    rig.sim.Run();
    ASSERT_EQ(rig.role1.received.size(), 1u);
    EXPECT_EQ(rig.role1.received[0]->size, 2048);
}

TEST(Shell, ResponsesGoToPcieNotRole) {
    ShellRig rig;
    int host_deliveries = 0;
    rig.shell0.dma().set_on_output_ready(
        [&](int, PacketPtr) { ++host_deliveries; });
    auto response = MakePacket(PacketType::kScoringResponse, 1, 0, 64);
    response->slot = 4;
    rig.shell1.SendFromRole(std::move(response));
    rig.sim.Run();
    EXPECT_EQ(host_deliveries, 1);
    EXPECT_TRUE(rig.role0.received.empty());
}

TEST(Shell, ComesUpWithRxHaltEngaged) {
    ShellRig rig;
    // Reconfigure shell1; afterwards it must drop link traffic until the
    // Mapping Manager releases RX Halt (§3.4).
    bool done = false;
    rig.shell1.Reconfigure(fpga::FlashSlot::kApplication, /*graceful=*/true,
                           [&](bool ok) { done = ok; });
    rig.sim.Run();
    ASSERT_TRUE(done);
    EXPECT_TRUE(rig.shell1.rx_halted());

    rig.shell0.SendFromRole(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    rig.sim.Run();
    EXPECT_TRUE(rig.role1.received.empty());

    rig.shell1.ReleaseRxHalt();
    rig.shell0.SendFromRole(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    rig.sim.Run();
    EXPECT_EQ(rig.role1.received.size(), 1u);
}

TEST(Shell, GracefulReconfigDoesNotCorruptNeighbor) {
    ShellRig rig;
    bool done = false;
    rig.shell0.Reconfigure(fpga::FlashSlot::kApplication, /*graceful=*/true,
                           [&](bool ok) { done = ok; });
    rig.sim.Run();
    EXPECT_TRUE(done);
    const HealthVector health = rig.shell1.CollectHealth();
    EXPECT_FALSE(health.application_error);
}

TEST(Shell, UngracefulReconfigCorruptsUnprotectedNeighbor) {
    ShellRig rig;
    // Crash reconfiguration sprays garbage with no TX Halt (§3.4).
    rig.shell0.Reconfigure(fpga::FlashSlot::kApplication, /*graceful=*/false,
                           [](bool) {});
    rig.sim.Run();
    const HealthVector health = rig.shell1.CollectHealth();
    EXPECT_TRUE(health.application_error);
}

TEST(Shell, HealthVectorNeighborIds) {
    ShellRig rig;
    const HealthVector health = rig.shell0.CollectHealth();
    // East neighbour is node 1; other ports are not cabled in this rig.
    EXPECT_EQ(health.neighbor_id[2], 1u);  // index 2 = east
    EXPECT_FALSE(health.AnyError());
}

TEST(Shell, HealthVectorFlagsDefectiveLink) {
    ShellRig rig;
    rig.shell0.link(Port::kEast).set_defective(true);
    const HealthVector health = rig.shell0.CollectHealth();
    EXPECT_TRUE(health.link_error[2]);
    EXPECT_TRUE(health.AnyError());
}

TEST(Shell, HealthVectorFlagsDramCalibration) {
    ShellRig rig;
    rig.shell0.dram(1).set_calibrated(false);
    const HealthVector health = rig.shell0.CollectHealth();
    EXPECT_TRUE(health.dram_calibration_failure);
}

TEST(Shell, HealthVectorFlagsApplicationError) {
    ShellRig rig;
    rig.shell0.FlagApplicationError();
    EXPECT_TRUE(rig.shell0.CollectHealth().application_error);
    rig.shell0.ClearApplicationError();
    EXPECT_FALSE(rig.shell0.CollectHealth().application_error);
}

TEST(Shell, FdrRecordsRouterCrossings) {
    ShellRig rig;
    auto packet = MakePacket(PacketType::kScoringRequest, 0, 1, 1024);
    packet->trace_id = 77;
    rig.shell0.SendFromRole(std::move(packet));
    rig.sim.Run();
    const auto records = rig.shell0.fdr().StreamOut();
    ASSERT_FALSE(records.empty());
    bool found = false;
    for (const auto& record : records) {
        if (record.trace_id == 77) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Shell, FdrPowerOnRecordAfterConfiguration) {
    ShellRig rig;
    rig.shell0.Reconfigure(fpga::FlashSlot::kApplication, true, [](bool) {});
    rig.sim.Run();
    EXPECT_TRUE(rig.shell0.fdr().power_on().AllGood());
}

TEST(FlightDataRecorder, WindowIsFiveTwelve) {
    FlightDataRecorder fdr;
    EXPECT_EQ(FlightDataRecorder::kWindow, 512u);  // §3.6
    for (int i = 0; i < 1000; ++i) {
        FdrRecord record;
        record.trace_id = static_cast<std::uint64_t>(i);
        fdr.Record(record);
    }
    const auto out = fdr.StreamOut();
    ASSERT_EQ(out.size(), 512u);
    // Oldest surviving record is #488 (1000 - 512).
    EXPECT_EQ(out.front().trace_id, 488u);
    EXPECT_EQ(out.back().trace_id, 999u);
    EXPECT_EQ(fdr.total_recorded(), 1000u);
}

// link() and SetNeighborId() index the four SL3 endpoints by port; a
// role or PCIe port aborts in every build instead of reading past them.
TEST(ShellDeathTest, LinkPortsOnlyIndexTheFourLinks) {
    ShellRig rig;
    EXPECT_DEATH(rig.shell0.link(Port::kRole),
                 "Shell: port role is not an SL3 link port");
    EXPECT_DEATH(rig.shell0.SetNeighborId(Port::kPcie, 7),
                 "Shell: port pcie is not an SL3 link port");
}

TEST(FlightDataRecorder, ResetClears) {
    FlightDataRecorder fdr;
    fdr.Record(FdrRecord{});
    fdr.Reset();
    EXPECT_TRUE(fdr.StreamOut().empty());
    EXPECT_FALSE(fdr.power_on().AllGood());
    // The window refills from its start.
    for (std::uint64_t i = 1; i <= 3; ++i) {
        FdrRecord record;
        record.trace_id = i;
        fdr.Record(record);
    }
    const auto out = fdr.StreamOut();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out.front().trace_id, 1u);
    EXPECT_EQ(out.back().trace_id, 3u);
}

TEST(FlightDataRecorder, NeverRecordingStreamsNothing) {
    // A shell off every ring's path records nothing, and holds no window.
    const FlightDataRecorder fdr;
    EXPECT_TRUE(fdr.StreamOut().empty());
    EXPECT_EQ(fdr.window_occupancy(), 0u);
    EXPECT_EQ(fdr.total_recorded(), 0u);
    const std::string dump = fdr.DumpJson();
    EXPECT_NE(dump.find("\"total_recorded\":0,\"records\":[]}"),
              std::string::npos)
        << dump;
}

}  // namespace
}  // namespace catapult::shell
