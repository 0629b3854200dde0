// Unit tests for the slot DMA engine + PCIe link (§3.1).

#include <gtest/gtest.h>

#include "shell/dma_engine.h"
#include "shell/packet.h"
#include "shell/pcie_link.h"
#include "sim/simulator.h"

namespace catapult::shell {
namespace {

TEST(PcieLink, TransferTiming) {
    sim::Simulator sim;
    PcieLink link(&sim);
    Time done_at = -1;
    link.Transfer(16 * 1024, [&](bool ok) {
        EXPECT_TRUE(ok);
        done_at = sim.Now();
    });
    sim.Run();
    // §3.1 design goal: "fewer than 10 us for transfers of 16 KB or less".
    EXPECT_GT(done_at, 0);
    EXPECT_LT(done_at, Microseconds(10));
}

TEST(PcieLink, QueuedTransfersSerialize) {
    sim::Simulator sim;
    PcieLink link(&sim);
    std::vector<Time> completions;
    for (int i = 0; i < 3; ++i) {
        link.Transfer(8192, [&](bool) { completions.push_back(sim.Now()); });
    }
    sim.Run();
    ASSERT_EQ(completions.size(), 3u);
    const Time unit = link.TransferTime(8192);
    EXPECT_EQ(completions[0], unit);
    EXPECT_EQ(completions[1], 2 * unit);
    EXPECT_EQ(completions[2], 3 * unit);
}

TEST(PcieLink, SurpriseRemovalFailsTransfers) {
    sim::Simulator sim;
    PcieLink link(&sim);
    link.set_device_present(false);
    bool ok = true;
    link.Transfer(512, [&](bool success) { ok = success; });
    sim.Run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(link.counters().errors, 1u);
}

struct DmaRig {
    sim::Simulator sim;
    DmaEngine dma{&sim};
    std::vector<PacketPtr> ingress;
    std::vector<std::pair<int, PacketPtr>> outputs;
    std::vector<int> cleared;

    DmaRig() {
        dma.set_on_ingress([this](PacketPtr p) { ingress.push_back(std::move(p)); });
        dma.set_on_output_ready([this](int slot, PacketPtr p) {
            outputs.emplace_back(slot, std::move(p));
        });
        dma.set_on_input_cleared([this](int slot) { cleared.push_back(slot); });
    }
};

TEST(DmaEngine, HostToFpgaPath) {
    DmaRig rig;
    auto packet = MakePacket(PacketType::kScoringRequest, 0, 1, 6500);
    EXPECT_TRUE(rig.dma.SetInputFull(5, std::move(packet)));
    EXPECT_TRUE(rig.dma.InputFull(5));
    rig.sim.Run();
    ASSERT_EQ(rig.ingress.size(), 1u);
    EXPECT_EQ(rig.ingress[0]->slot, 5);          // slot stamped for response
    EXPECT_FALSE(rig.dma.InputFull(5));          // full bit cleared
    ASSERT_EQ(rig.cleared.size(), 1u);
    EXPECT_EQ(rig.cleared[0], 5);
}

TEST(DmaEngine, DoubleFillRejected) {
    DmaRig rig;
    EXPECT_TRUE(rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest,
                                                   0, 1, 100)));
    // §3.1: a thread owns its slot exclusively; refilling a full slot is
    // a protocol violation the engine rejects.
    EXPECT_FALSE(rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest,
                                                    0, 1, 100)));
}

TEST(DmaEngine, OversizedRequestRejected) {
    DmaRig rig;
    EXPECT_FALSE(rig.dma.SetInputFull(
        0, MakePacket(PacketType::kScoringRequest, 0, 1, kDmaSlotBytes + 1)));
}

TEST(DmaEngine, SnapshotFairness) {
    // §3.1: "Fairness is achieved by taking periodic snapshots of the
    // full bits, and DMA'ing all full slots before taking another
    // snapshot." The first fill triggers snapshot #1 = {10}; slots 20
    // and 0 fill while transfer 10 is in flight, so they land together
    // in snapshot #2, drained in slot order {0, 20}.
    DmaRig rig;
    EXPECT_TRUE(rig.dma.SetInputFull(10, MakePacket(PacketType::kScoringRequest,
                                                    0, 1, 1000)));
    EXPECT_TRUE(rig.dma.SetInputFull(20, MakePacket(PacketType::kScoringRequest,
                                                    0, 1, 1000)));
    EXPECT_TRUE(rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest,
                                                   0, 1, 1000)));
    rig.sim.Run();
    ASSERT_EQ(rig.ingress.size(), 3u);
    EXPECT_EQ(rig.ingress[0]->slot, 10);
    EXPECT_EQ(rig.ingress[1]->slot, 0);
    EXPECT_EQ(rig.ingress[2]->slot, 20);
    EXPECT_GE(rig.dma.counters().snapshots, 2u);
}

TEST(DmaEngine, SnapshotOrderIsFairUnderContinuousRefill) {
    // A slot that refills continuously cannot starve later slots: every
    // full slot in a snapshot drains before any refilled slot repeats.
    DmaRig rig;
    int slot0_count = 0;
    rig.dma.set_on_input_cleared([&](int slot) {
        if (slot == 0 && slot0_count < 4) {
            ++slot0_count;
            rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest,
                                               0, 1, 1000));
        }
    });
    rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest, 0, 1, 1000));
    rig.dma.SetInputFull(5, MakePacket(PacketType::kScoringRequest, 0, 1, 1000));
    rig.dma.SetInputFull(9, MakePacket(PacketType::kScoringRequest, 0, 1, 1000));
    rig.sim.Run();
    // Slots 5 and 9 must appear among the first few ingresses — slot 0's
    // refills cannot push them out more than one snapshot.
    ASSERT_GE(rig.ingress.size(), 3u);
    bool five_early = false, nine_early = false;
    for (std::size_t i = 0; i < 4 && i < rig.ingress.size(); ++i) {
        if (rig.ingress[i]->slot == 5) five_early = true;
        if (rig.ingress[i]->slot == 9) nine_early = true;
    }
    EXPECT_TRUE(five_early);
    EXPECT_TRUE(nine_early);
}

TEST(DmaEngine, FpgaToHostWithInterrupt) {
    DmaRig rig;
    auto result = MakePacket(PacketType::kScoringResponse, 1, 0, 64);
    rig.dma.SendToHost(3, std::move(result));
    rig.sim.Run();
    ASSERT_EQ(rig.outputs.size(), 1u);
    EXPECT_EQ(rig.outputs[0].first, 3);
    EXPECT_TRUE(rig.dma.OutputFull(3));
    // Interrupt latency is charged before the callback (§3.1).
    EXPECT_GE(rig.sim.Now(), DmaEngine::kInterruptLatency);
}

TEST(DmaEngine, OutputSlotBackpressure) {
    // §3.1: the FPGA "checks to make sure that the output slot is empty"
    // before DMA'ing; a second result queues until the host consumes.
    DmaRig rig;
    rig.dma.SendToHost(7, MakePacket(PacketType::kScoringResponse, 1, 0, 64));
    rig.sim.Run();
    ASSERT_EQ(rig.outputs.size(), 1u);

    rig.dma.SendToHost(7, MakePacket(PacketType::kScoringResponse, 1, 0, 64));
    rig.sim.Run();
    EXPECT_EQ(rig.outputs.size(), 1u);  // stalled: slot still full
    EXPECT_GT(rig.dma.counters().output_stalls, 0u);

    rig.dma.ConsumeOutput(7);
    rig.sim.Run();
    EXPECT_EQ(rig.outputs.size(), 2u);
}

TEST(DmaEngine, SixtyFourSlotsOfSixtyFourKb) {
    // §3.1/§4: "we use 64 slots of 64 KB each".
    EXPECT_EQ(kDmaSlotCount, 64);
    EXPECT_EQ(kDmaSlotBytes, 64 * 1024);
}

TEST(DmaEngine, RoundTripUnderTwentyMicroseconds) {
    // End-to-end slot round trip (16 KB in, 64 B out) is comfortably
    // within the latency budget that motivated user-level DMA.
    DmaRig rig;
    Time response_at = -1;
    rig.dma.set_on_output_ready([&](int, PacketPtr) {
        response_at = rig.sim.Now();
    });
    rig.dma.set_on_ingress([&](PacketPtr p) {
        rig.dma.SendToHost(p->slot, MakePacket(PacketType::kScoringResponse,
                                               1, 0, 64));
    });
    rig.dma.SetInputFull(0, MakePacket(PacketType::kScoringRequest, 0, 1,
                                       16 * 1024));
    rig.sim.Run();
    EXPECT_GT(response_at, 0);
    EXPECT_LT(response_at, Microseconds(20));
}

TEST(DmaEngineDeathTest, SlotOutOfRangeAborts) {
    DmaRig rig;
    EXPECT_DEATH(
        rig.dma.SetInputFull(64, MakePacket(PacketType::kScoringRequest, 0, 1,
                                            64)),
        "DmaEngine::SetInputFull: slot 64 outside \\[0, 64\\)");
    EXPECT_DEATH(
        rig.dma.SendToHost(-1, MakePacket(PacketType::kScoringResponse, 1, 0,
                                          64)),
        "DmaEngine::SendToHost: slot -1 outside \\[0, 64\\)");
    EXPECT_DEATH(rig.dma.ConsumeOutput(64),
                 "DmaEngine::ConsumeOutput: slot 64 outside \\[0, 64\\)");
}

}  // namespace
}  // namespace catapult::shell
