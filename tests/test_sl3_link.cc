// Unit tests for the SL3 link: bandwidth, ECC error model, flow
// control, and the TX/RX Halt reconfiguration protocol (§2.2/§3.2/§3.4).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "shell/packet.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult::shell {
namespace {

struct LinkPair {
    sim::Simulator sim;
    Sl3Link a{&sim, "a", Rng(1)};
    Sl3Link b{&sim, "b", Rng(2)};

    LinkPair() { a.ConnectTo(&b); }
};

TEST(Sl3Link, DeliversPackets) {
    LinkPair pair;
    int delivered = 0;
    pair.b.set_on_receive([&] { ++delivered; });
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 1024));
    pair.sim.Run();
    EXPECT_EQ(delivered, 1);
    ASSERT_TRUE(pair.b.HasReceived());
    EXPECT_EQ(pair.b.PopReceived()->size, 1024);
}

TEST(Sl3Link, EffectiveBandwidthIncludesEccTax) {
    LinkPair pair;
    // §2.2: 20 Gb/s peak; §3.2: ECC costs 20% -> 16 Gb/s effective.
    EXPECT_DOUBLE_EQ(pair.a.EffectiveBandwidth().gigabits_per_second(), 16.0);
}

TEST(Sl3Link, SubMicrosecondLatencyForSmallMessages) {
    LinkPair pair;
    Time arrival = -1;
    pair.b.set_on_receive([&] { arrival = pair.sim.Now(); });
    pair.a.Send(MakePacket(PacketType::kScoringResponse, 0, 1, 64));
    pair.sim.Run();
    // §2.2: sub-microsecond latency per link for small transfers.
    EXPECT_GT(arrival, 0);
    EXPECT_LT(arrival, Microseconds(1));
}

TEST(Sl3Link, SerializationScalesWithSize) {
    LinkPair pair;
    // 16 Gb/s effective: 64 KB = 32.768 us on the wire.
    EXPECT_EQ(pair.a.SerializationTime(65'536), Nanoseconds(32'768));
}

TEST(Sl3Link, BackToBackPacketsShareBandwidth) {
    LinkPair pair;
    std::vector<Time> arrivals;
    pair.b.set_on_receive([&] { arrivals.push_back(pair.sim.Now()); });
    for (int i = 0; i < 4; ++i) {
        pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 16'000));
    }
    pair.sim.Run();
    ASSERT_EQ(arrivals.size(), 4u);
    const Time serialization = pair.a.SerializationTime(16'000);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        EXPECT_GE(arrivals[i] - arrivals[i - 1], serialization);
    }
}

TEST(Sl3Link, CleanLinkHasNoErrors) {
    LinkPair pair;
    // Drain on arrival so flow control never engages.
    pair.b.set_on_receive([&] { pair.b.PopReceived(); });
    for (int i = 0; i < 100; ++i) {
        pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 4096));
    }
    pair.sim.Run();
    EXPECT_EQ(pair.b.counters().packets_delivered, 100u);
    EXPECT_EQ(pair.b.counters().single_bit_corrected, 0u);
    EXPECT_EQ(pair.b.counters().double_bit_drops, 0u);
}

TEST(Sl3Link, SingleBitErrorsAreCorrected) {
    LinkPair pair;
    // BER low enough that flits see at most one error each.
    pair.b.set_bit_error_rate(1e-7);
    int delivered = 0;
    pair.b.set_on_receive([&] {
        ++delivered;
        pair.b.PopReceived();  // drain so Xoff never engages
    });
    for (int i = 0; i < 400; ++i) {
        // Large packets can exceed the TX queue bound; drain in between.
        if (!pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1,
                                    32'768))) {
            pair.sim.Run();
            ASSERT_TRUE(pair.a.Send(
                MakePacket(PacketType::kScoringRequest, 0, 1, 32'768)));
        }
    }
    pair.sim.Run();
    const auto& counters = pair.b.counters();
    EXPECT_GT(counters.single_bit_corrected, 0u);
    // Nearly everything still arrives (double-bit in one flit is rare).
    EXPECT_GT(delivered, 390);
}

TEST(Sl3Link, HighBerDropsPackets) {
    LinkPair pair;
    pair.b.set_bit_error_rate(1e-4);
    for (int i = 0; i < 200; ++i) {
        pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 32'768));
    }
    pair.sim.Run();
    const auto& counters = pair.b.counters();
    // §3.2: double-bit errors and CRC failures drop the packet with no
    // retransmission.
    EXPECT_GT(counters.double_bit_drops + counters.crc_drops, 0u);
    EXPECT_LT(counters.packets_delivered, 200u);
}

TEST(Sl3Link, TxHaltSuppressesTraffic) {
    LinkPair pair;
    pair.a.SetTxHalt(true);
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 1024));
    pair.sim.Run();
    EXPECT_FALSE(pair.b.HasReceived());
    EXPECT_GT(pair.a.counters().tx_halt_suppressed, 0u);
}

TEST(Sl3Link, TxHaltProtectsNeighborFromGarbage) {
    LinkPair pair;
    int corruptions = 0;
    pair.b.set_on_corruption([&](const Packet&) { ++corruptions; });
    // §3.4 protocol: declare TX Halt, then spray garbage.
    pair.a.SetTxHalt(true);
    pair.sim.Run();
    pair.a.EmitGarbageBurst();
    pair.sim.Run();
    EXPECT_EQ(corruptions, 0);
    EXPECT_EQ(pair.b.counters().garbage_received, 1u);
}

TEST(Sl3Link, UnprotectedGarbageCorruptsNeighbor) {
    LinkPair pair;
    int corruptions = 0;
    pair.b.set_on_corruption([&](const Packet&) { ++corruptions; });
    // Crash path: garbage with no TX Halt warning (§3.4).
    pair.a.EmitGarbageBurst();
    pair.sim.Run();
    EXPECT_EQ(corruptions, 1);
}

TEST(Sl3Link, TxHaltReleaseRelocksLink) {
    LinkPair pair;
    pair.a.SetTxHalt(true);
    pair.sim.Run();
    EXPECT_TRUE(pair.b.peer_halted());
    pair.a.SetTxHalt(false);
    pair.sim.Run();
    EXPECT_FALSE(pair.b.peer_halted());
    // Traffic flows again after relock.
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    pair.sim.Run();
    EXPECT_TRUE(pair.b.HasReceived());
}

TEST(Sl3Link, RxHaltDropsEverything) {
    LinkPair pair;
    // §3.4: "each FPGA comes up with 'RX Halt' enabled, automatically
    // throwing away any message coming in on the SL3 links."
    pair.b.SetRxHalt(true);
    for (int i = 0; i < 5; ++i) {
        pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    }
    pair.sim.Run();
    EXPECT_FALSE(pair.b.HasReceived());
    EXPECT_EQ(pair.b.counters().rx_halt_drops, 5u);

    pair.b.SetRxHalt(false);
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    pair.sim.Run();
    EXPECT_TRUE(pair.b.HasReceived());
}

TEST(Sl3Link, ShellVersionMismatchDropped) {
    LinkPair pair;
    // §3.4: FPGAs must be robust to traffic from neighbours with
    // incompatible configurations ("old" data).
    pair.a.set_shell_version(1);
    pair.b.set_shell_version(2);
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    pair.sim.Run();
    EXPECT_FALSE(pair.b.HasReceived());
    EXPECT_EQ(pair.b.counters().version_mismatch_drops, 1u);
}

TEST(Sl3Link, DefectiveCableDeliversNothing) {
    LinkPair pair;
    pair.b.set_defective(true);
    EXPECT_FALSE(pair.b.locked());
    pair.a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    pair.sim.Run();
    EXPECT_FALSE(pair.b.HasReceived());
    EXPECT_EQ(pair.b.counters().defective_drops, 1u);
}

TEST(Sl3Link, XoffThrottlesSender) {
    LinkPair pair;
    Sl3Link::Config config;
    config.rx_xoff_threshold_flits = 64;
    config.rx_xon_threshold_flits = 16;
    sim::Simulator sim;
    Sl3Link a(&sim, "a", Rng(1), config);
    Sl3Link b(&sim, "b", Rng(2), config);
    a.ConnectTo(&b);
    // Do not drain b: its rx queue fills and Xoff fires.
    for (int i = 0; i < 100; ++i) {
        a.Send(MakePacket(PacketType::kScoringRequest, 0, 1, kFlitBytes * 8));
    }
    sim.Run();
    EXPECT_GT(b.counters().xoff_asserted, 0u);
    // Sender paused: not all packets crossed.
    EXPECT_LT(b.counters().packets_delivered, 100u);
    EXPECT_GT(a.TxQueueDepthFlits(), 0u);

    // Draining the receiver releases Xon and the rest flows.
    for (int rounds = 0; rounds < 1000; ++rounds) {
        while (b.HasReceived()) b.PopReceived();
        if (sim.Empty()) break;
        sim.Run();
    }
    while (b.HasReceived()) b.PopReceived();
    EXPECT_EQ(b.counters().packets_delivered, 100u);
}

TEST(Sl3Link, NoPeerCountsDrops) {
    sim::Simulator sim;
    Sl3Link lone(&sim, "lone", Rng(1));
    lone.Send(MakePacket(PacketType::kScoringRequest, 0, 1, 512));
    sim.Run();
    EXPECT_EQ(lone.counters().no_peer_drops, 1u);
}

TEST(Packet, FlitCount) {
    EXPECT_EQ(FlitCount(0), 1);
    EXPECT_EQ(FlitCount(1), 1);
    EXPECT_EQ(FlitCount(32), 1);
    EXPECT_EQ(FlitCount(33), 2);
    EXPECT_EQ(FlitCount(65'536), 2'048);
}

// Send reads the packet it is given, so a null one aborts in every
// build rather than crashing wherever a release build first touches it.
TEST(Sl3LinkDeathTest, SendOfANullPacketAborts) {
    LinkPair pair;
    EXPECT_DEATH(pair.a.Send(PacketPtr()),
                 "Sl3Link::Send\\(a\\): null packet");
}

TEST(Packet, PortHelpers) {
    EXPECT_EQ(Opposite(Port::kNorth), Port::kSouth);
    EXPECT_EQ(Opposite(Port::kEast), Port::kWest);
    EXPECT_STREQ(ToString(Port::kNorth), "north");
    EXPECT_STREQ(ToString(PacketType::kTxHalt), "tx_halt");
}

}  // namespace
}  // namespace catapult::shell
