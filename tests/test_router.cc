// Unit tests for the shell router crossbar and routing table (§3.2).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "shell/router.h"
#include "shell/routing_table.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult::shell {
namespace {

TEST(RoutingTable, SetLookupClear) {
    RoutingTable table;
    Port out = Port::kRole;
    EXPECT_FALSE(table.Lookup(7, out));
    table.SetRoute(7, Port::kEast);
    ASSERT_TRUE(table.Lookup(7, out));
    EXPECT_EQ(out, Port::kEast);
    table.SetRoute(7, Port::kWest);  // overwrite
    ASSERT_TRUE(table.Lookup(7, out));
    EXPECT_EQ(out, Port::kWest);
    table.ClearRoute(7);
    EXPECT_FALSE(table.Lookup(7, out));
    table.SetRoute(1, Port::kNorth);
    table.SetRoute(2, Port::kSouth);
    EXPECT_EQ(table.size(), 2u);
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
}

/** Two routers joined by one link pair, with local delivery sinks. */
struct RouterRig {
    sim::Simulator sim;
    Router r0{&sim, 0};
    Router r1{&sim, 1};
    Sl3Link l0{&sim, "l0", Rng(1)};
    Sl3Link l1{&sim, "l1", Rng(2)};
    std::vector<PacketPtr> delivered0;
    std::vector<PacketPtr> delivered1;

    RouterRig() {
        l0.ConnectTo(&l1);
        r0.AttachLink(Port::kEast, &l0);
        r1.AttachLink(Port::kWest, &l1);
        r0.set_local_delivery(
            [this](PacketPtr p) { delivered0.push_back(std::move(p)); });
        r1.set_local_delivery(
            [this](PacketPtr p) { delivered1.push_back(std::move(p)); });
        r0.routing_table().SetRoute(1, Port::kEast);
        r1.routing_table().SetRoute(0, Port::kWest);
    }
};

TEST(Router, LocalDeliveryForOwnNode) {
    RouterRig rig;
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 0, 256),
                  Port::kPcie);
    rig.sim.Run();
    ASSERT_EQ(rig.delivered0.size(), 1u);
    EXPECT_TRUE(rig.delivered1.empty());
}

TEST(Router, ForwardsAcrossLink) {
    RouterRig rig;
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 1, 256),
                  Port::kPcie);
    rig.sim.Run();
    ASSERT_EQ(rig.delivered1.size(), 1u);
    EXPECT_EQ(rig.r0.counters().forwarded, 1u);
    EXPECT_EQ(rig.r1.counters().delivered_local, 1u);
}

TEST(Router, RoundTrip) {
    RouterRig rig;
    // Request out, response back.
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 1, 4096),
                  Port::kPcie);
    rig.sim.Run();
    ASSERT_EQ(rig.delivered1.size(), 1u);
    rig.r1.Inject(MakePacket(PacketType::kScoringResponse, 1, 0, 64),
                  Port::kRole);
    rig.sim.Run();
    ASSERT_EQ(rig.delivered0.size(), 1u);
}

TEST(Router, NoRouteDropsPacket) {
    RouterRig rig;
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 99, 256),
                  Port::kPcie);
    rig.sim.Run();
    EXPECT_EQ(rig.r0.counters().no_route_drops, 1u);
    EXPECT_TRUE(rig.delivered0.empty());
    EXPECT_TRUE(rig.delivered1.empty());
}

// §3.6: the router logs every crossing in its Flight Data Recorder.
TEST(Router, TapSeesTraffic) {
    RouterRig rig;
    FlightDataRecorder fdr;
    rig.r0.set_fdr(&fdr);
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 1, 256, 42),
                  Port::kPcie);
    rig.sim.Run();
    ASSERT_EQ(fdr.total_recorded(), 1u);
    const FdrRecord record = fdr.StreamOut().front();
    EXPECT_EQ(record.trace_id, 42u);
    EXPECT_EQ(record.ingress, Port::kPcie);
    EXPECT_EQ(record.egress, Port::kEast);
}

TEST(Router, HopLatencyApplied) {
    RouterRig rig;
    Time delivered_at = -1;
    rig.r1.set_local_delivery([&](PacketPtr) { delivered_at = rig.sim.Now(); });
    rig.r0.Inject(MakePacket(PacketType::kScoringRequest, 0, 1, 32), Port::kPcie);
    rig.sim.Run();
    // Inject hop + link serialization + propagation + drain hop.
    const Time expected_min = rig.r0.link(Port::kEast)->SerializationTime(32) +
                              Nanoseconds(400);
    EXPECT_GE(delivered_at, expected_min);
}

TEST(Router, ManyPacketsAllArriveInOrder) {
    RouterRig rig;
    for (int i = 0; i < 50; ++i) {
        auto p = MakePacket(PacketType::kScoringRequest, 0, 1, 128);
        p->trace_id = static_cast<std::uint64_t>(i);
        rig.r0.Inject(std::move(p), Port::kPcie);
    }
    rig.sim.Run();
    ASSERT_EQ(rig.delivered1.size(), 50u);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(rig.delivered1[static_cast<std::size_t>(i)]->trace_id,
                  static_cast<std::uint64_t>(i));
    }
}

TEST(Router, InputOccupancyVisible) {
    RouterRig rig;
    EXPECT_EQ(rig.r1.InputOccupancyFlits(Port::kWest), 0u);
    EXPECT_EQ(rig.r1.InputOccupancyFlits(Port::kNorth), 0u);
}

// The role and PCIe ports have no SL3 endpoint; attaching one there
// aborts in every build instead of indexing the link table with them.
TEST(RouterDeathTest, AttachLinkOnANonLinkPortAborts) {
    RouterRig rig;
    Sl3Link extra{&rig.sim, "extra", Rng(3)};
    EXPECT_DEATH(rig.r0.AttachLink(Port::kRole, &extra),
                 "Router::AttachLink: port role is not an SL3 link port");
    EXPECT_DEATH(rig.r0.AttachLink(Port::kPcie, &extra),
                 "Router::AttachLink: port pcie is not an SL3 link port");
}

}  // namespace
}  // namespace catapult::shell
