// Tests for the paper's forward-looking extensions, implemented here:
// partial reconfiguration (§3.2), FDR DRAM spill (§3.6), and the boot
// failure modes that exercise the full §3.5 reboot ladder.

#include <gtest/gtest.h>

#include "rank/document_generator.h"
#include "service/stage_role.h"
#include "service/testbed.h"
#include "shell/flight_data_recorder.h"

namespace catapult {
namespace {

service::PodTestbed::Config FastConfig() {
    service::PodTestbed::Config config;
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.fabric.device.configure_time = Milliseconds(10);
    config.host.soft_reboot_duration = Milliseconds(100);
    config.host.hard_reboot_duration = Milliseconds(300);
    config.host.crash_reboot_delay = Milliseconds(20);
    return config;
}

// --- Partial reconfiguration (§3.2) -----------------------------------

TEST(PartialReconfig, SwapsRoleWhileShellStaysActive) {
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    auto& shell = bed.fabric().shell(bed.service().RingNode(3));
    bool done = false;
    shell.PartialReconfigure(service::StageBitstream(
                                 rank::PipelineStage::kCompression),
                             [&](bool ok) { done = ok; });
    EXPECT_TRUE(shell.partial_reconfig_active());
    // The device never leaves Active and RX halt never engages.
    EXPECT_TRUE(shell.device().active());
    EXPECT_FALSE(shell.rx_halted());
    bed.simulator().Run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(shell.partial_reconfig_active());
    EXPECT_EQ(shell.partial_role_image().role_name, "rank.Comp");
}

TEST(PartialReconfig, TransitTrafficKeepsFlowing) {
    // §3.2: "even routing inter-FPGA traffic while a reconfiguration is
    // taking place." Documents whose route crosses the swapping node's
    // ROUTER (not its role) must be unaffected.
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    // Swap the SPARE's role: ring traffic transits its router between
    // Scoring2 and the injectors but never terminates at its role.
    auto& spare_shell = bed.fabric().shell(bed.service().RingNode(7));
    bool swap_done = false;
    spare_shell.PartialReconfigure(
        service::StageBitstream(rank::PipelineStage::kSpare),
        [&](bool ok) { swap_done = ok; });

    rank::DocumentGenerator generator(5);
    int ok_count = 0;
    for (int i = 0; i < 6; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        bed.service().Inject(0, i % 8, request,
                             [&](const service::ScoreResult& r) {
                                 if (r.ok) ++ok_count;
                             });
    }
    bed.simulator().Run();
    EXPECT_TRUE(swap_done);
    EXPECT_EQ(ok_count, 6);
}

TEST(PartialReconfig, LocalRoleTrafficDroppedDuringSwap) {
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    // Swap the FFE0 role while documents flow: those documents die in
    // the role region and surface as host timeouts (§3.2 model).
    auto& ffe0_shell = bed.fabric().shell(bed.service().RingNode(1));
    ffe0_shell.PartialReconfigure(
        service::StageBitstream(rank::PipelineStage::kFfe0), [](bool) {});

    rank::DocumentGenerator generator(7);
    int timeouts = 0;
    for (int i = 0; i < 3; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        bed.service().Inject(0, i, request,
                             [&](const service::ScoreResult& r) {
                                 if (!r.ok) ++timeouts;
                             });
    }
    bed.simulator().Run();
    EXPECT_EQ(timeouts, 3);
}

TEST(PartialReconfig, RejectedWhileDeviceInactive) {
    service::PodTestbed bed(FastConfig());
    auto& shell = bed.fabric().shell(0);  // not yet configured
    bool result = true;
    shell.PartialReconfigure(fpga::GoldenBitstream(),
                             [&](bool ok) { result = ok; });
    bed.simulator().Run();
    EXPECT_FALSE(result);
}

TEST(PartialReconfig, RejectedWhenAlreadyInProgress) {
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    auto& shell = bed.fabric().shell(bed.service().RingNode(2));
    bool first = false, second = true;
    shell.PartialReconfigure(fpga::GoldenBitstream(),
                             [&](bool ok) { first = ok; });
    shell.PartialReconfigure(fpga::GoldenBitstream(),
                             [&](bool ok) { second = ok; });
    bed.simulator().Run();
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
}

TEST(PartialReconfig, MuchFasterThanFullReconfiguration) {
    service::PodTestbed::Config config = FastConfig();
    config.fabric.device.configure_time = Milliseconds(900);  // realistic
    service::PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    auto& shell = bed.fabric().shell(bed.service().RingNode(4));

    const Time t0 = bed.simulator().Now();
    bool done = false;
    shell.PartialReconfigure(
        service::StageBitstream(rank::PipelineStage::kScoring0),
        [&](bool ok) { done = ok; });
    bed.simulator().Run();
    ASSERT_TRUE(done);
    const Time partial = bed.simulator().Now() - t0;
    EXPECT_LT(partial, Milliseconds(900));  // beats full configuration
}

// --- FDR DRAM spill (§3.6) ---------------------------------------------

TEST(FdrDramSpill, EvictedRecordsSpillToDram) {
    shell::FlightDataRecorder fdr;
    fdr.EnableDramSpill(2'000);
    for (int i = 0; i < 1'500; ++i) {
        shell::FdrRecord record;
        record.trace_id = static_cast<std::uint64_t>(i);
        fdr.Record(record);
    }
    // Window holds the newest 512; the older 988 spilled to DRAM.
    EXPECT_EQ(fdr.dram_history().size(), 1'500u - 512u);
    EXPECT_EQ(fdr.dram_history().front().trace_id, 0u);
    const auto extended = fdr.StreamOutExtended();
    ASSERT_EQ(extended.size(), 1'500u);
    for (std::size_t i = 0; i < extended.size(); ++i) {
        EXPECT_EQ(extended[i].trace_id, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(fdr.spill_overflow(), 0u);
}

TEST(FdrDramSpill, BoundedWithOverflowCounter) {
    shell::FlightDataRecorder fdr;
    fdr.EnableDramSpill(100);
    for (int i = 0; i < 1'000; ++i) {
        fdr.Record(shell::FdrRecord{});
    }
    EXPECT_EQ(fdr.dram_history().size(), 100u);
    EXPECT_EQ(fdr.spill_overflow(), 1'000u - 512u - 100u);
}

TEST(FdrDramSpill, DisabledByDefault) {
    shell::FlightDataRecorder fdr;
    EXPECT_FALSE(fdr.dram_spill_enabled());
    for (int i = 0; i < 1'000; ++i) fdr.Record(shell::FdrRecord{});
    EXPECT_TRUE(fdr.dram_history().empty());
    EXPECT_EQ(fdr.StreamOutExtended().size(),
              shell::FlightDataRecorder::kWindow);
}

TEST(FdrDramSpill, ResetClearsHistory) {
    shell::FlightDataRecorder fdr;
    fdr.EnableDramSpill(100);
    for (int i = 0; i < 700; ++i) fdr.Record(shell::FdrRecord{});
    fdr.Reset();
    EXPECT_TRUE(fdr.dram_history().empty());
    EXPECT_EQ(fdr.spill_overflow(), 0u);
}

// --- Boot failure ladder (§3.5) ----------------------------------------

TEST(BootFailure, SoftFailureEscalatesToHardReboot) {
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    const int node = 9;  // not on the ring
    bed.host(node).BreakBoot(/*soft_failures=*/2);
    bed.host(node).CrashAndReboot("disk corruption");
    std::vector<mgmt::MachineReport> reports;
    bed.health_monitor().Investigate(
        {node},
        [&](std::vector<mgmt::MachineReport> r) { reports = std::move(r); });
    bed.simulator().Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].needed_soft_reboot);
    EXPECT_TRUE(reports[0].needed_hard_reboot);
    EXPECT_EQ(reports[0].fault, mgmt::FaultType::kUnresponsiveRecovered);
    EXPECT_TRUE(bed.host(node).responsive());
}

TEST(BootFailure, PermanentFailureFlaggedForService) {
    // §3.5: "soft reboot, hard reboot, and then flagged for manual
    // service and possible replacement."
    service::PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    const int node = 10;
    bed.host(node).BreakBoot(/*soft_failures=*/100, /*permanent=*/true);
    bed.host(node).CrashAndReboot("dead motherboard");
    std::vector<mgmt::MachineReport> reports;
    bed.health_monitor().Investigate(
        {node},
        [&](std::vector<mgmt::MachineReport> r) { reports = std::move(r); });
    bed.simulator().Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].fault, mgmt::FaultType::kUnresponsiveFatal);
    EXPECT_EQ(bed.host(node).state(),
              host::ServerState::kFlaggedForService);
    EXPECT_EQ(bed.health_monitor().counters().flagged_for_service, 1u);
}

}  // namespace
}  // namespace catapult
