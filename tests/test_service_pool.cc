// Pod-level orchestration: PodScheduler placement, QueryDispatcher
// policies, and the multi-ring ServicePool (deploy, sharding, drain/
// redirect on failure, spare rotation recovery).

#include <gtest/gtest.h>

#include <set>

#include "mgmt/pod_scheduler.h"
#include "rank/document_generator.h"
#include "service/load_generator.h"
#include "service/query_dispatcher.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

// ---------------------------------------------------------------- scheduler

TEST(PodScheduler, PlacesDisjointRingsUntilPodIsFull) {
    mgmt::PodScheduler scheduler(6, 8);
    std::set<int> rows;
    for (int k = 0; k < 6; ++k) {
        const auto placement = scheduler.PlaceRing(8);
        ASSERT_TRUE(placement.valid()) << "ring " << k;
        EXPECT_EQ(placement.length, 8);
        EXPECT_TRUE(rows.insert(placement.row).second)
            << "row " << placement.row << " granted twice";
    }
    EXPECT_EQ(scheduler.free_nodes(), 0);
    // Seventh ring: the pod is full.
    EXPECT_FALSE(scheduler.PlaceRing(8).valid());
    EXPECT_EQ(scheduler.counters().placements, 6u);
    EXPECT_EQ(scheduler.counters().rejections, 1u);
}

TEST(PodScheduler, RejectsOverlapAndOutOfPodRequests) {
    mgmt::PodScheduler scheduler(6, 8);
    ASSERT_TRUE(scheduler.PlaceRingAt(2, 0, 8).valid());
    // Any overlap with row 2 is rejected, including wrapped ones.
    EXPECT_FALSE(scheduler.PlaceRingAt(2, 0, 8).valid());
    EXPECT_FALSE(scheduler.PlaceRingAt(2, 5, 4).valid());
    // Out-of-pod requests never grant.
    EXPECT_FALSE(scheduler.PlaceRingAt(6, 0, 8).valid());
    EXPECT_FALSE(scheduler.PlaceRingAt(-1, 0, 8).valid());
    EXPECT_FALSE(scheduler.PlaceRingAt(0, 0, 9).valid());
    // Other rows still free.
    EXPECT_TRUE(scheduler.RowFree(3));
    EXPECT_TRUE(scheduler.PlaceRingAt(3, 0, 8).valid());
}

TEST(PodScheduler, ReleaseReclaimsTheRegion) {
    mgmt::PodScheduler scheduler(6, 8);
    const auto a = scheduler.PlaceRing(8);
    const auto b = scheduler.PlaceRing(8);
    ASSERT_TRUE(a.valid() && b.valid());
    EXPECT_FALSE(scheduler.RowFree(a.row));
    ASSERT_TRUE(scheduler.Release(a));
    EXPECT_TRUE(scheduler.RowFree(a.row));
    // Double release is refused; the freed row is granted again.
    EXPECT_FALSE(scheduler.Release(a));
    const auto c = scheduler.PlaceRing(8);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(c.row, a.row);
}

TEST(PodScheduler, ReleaseRefusesRegionsThatAreNotExactGrants) {
    // A misaligned region spanning two live grants must not free nodes
    // out from under them.
    mgmt::PodScheduler scheduler(6, 8);
    ASSERT_TRUE(scheduler.PlaceRingAt(0, 0, 4).valid());
    ASSERT_TRUE(scheduler.PlaceRingAt(0, 4, 4).valid());
    EXPECT_FALSE(scheduler.Release(mgmt::RingPlacement{0, 2, 4}));
    EXPECT_EQ(scheduler.occupied_nodes(), 8);
    // The whole row is occupied but was never granted as one region.
    EXPECT_FALSE(scheduler.Release(mgmt::RingPlacement{0, 0, 8}));
    // The exact grants release fine.
    EXPECT_TRUE(scheduler.Release(mgmt::RingPlacement{0, 0, 4}));
    EXPECT_TRUE(scheduler.Release(mgmt::RingPlacement{0, 4, 4}));
    EXPECT_EQ(scheduler.occupied_nodes(), 0);
}

TEST(PodScheduler, PacksPartialRingsOntoOneRow) {
    // Sub-row regions pack side by side (elasticity below ring size).
    mgmt::PodScheduler scheduler(6, 8);
    const auto a = scheduler.PlaceRing(4);
    const auto b = scheduler.PlaceRing(4);
    ASSERT_TRUE(a.valid() && b.valid());
    EXPECT_EQ(a.row, 0);
    EXPECT_EQ(b.row, 0);
    EXPECT_EQ(b.head_col, 4);
    EXPECT_EQ(scheduler.PlaceRing(8).row, 1);
}

// --------------------------------------------------------------- dispatcher

TEST(QueryDispatcher, RoundRobinCyclesAndSkipsDrained) {
    QueryDispatcher dispatcher(DispatchPolicy::kRoundRobin, 6);
    std::vector<RingView> rings{{true, 0, 0}, {true, 0, 1}, {true, 0, 2}};
    EXPECT_EQ(dispatcher.Pick(rings), 0);
    EXPECT_EQ(dispatcher.Pick(rings), 1);
    EXPECT_EQ(dispatcher.Pick(rings), 2);
    EXPECT_EQ(dispatcher.Pick(rings), 0);
    rings[1].available = false;
    EXPECT_EQ(dispatcher.Pick(rings), 2);
    EXPECT_EQ(dispatcher.Pick(rings), 0);
    EXPECT_EQ(dispatcher.Pick(rings), 2);
}

TEST(QueryDispatcher, NoRingAvailableReturnsMinusOne) {
    QueryDispatcher dispatcher(DispatchPolicy::kLeastInFlight, 6);
    std::vector<RingView> rings{{false, 0, 0}, {false, 0, 1}};
    EXPECT_EQ(dispatcher.Pick(rings), -1);
    EXPECT_EQ(dispatcher.counters().no_ring_available, 1u);
}

TEST(QueryDispatcher, LeastInFlightPicksIdlestRing) {
    QueryDispatcher dispatcher(DispatchPolicy::kLeastInFlight, 6);
    std::vector<RingView> rings{{true, 7, 0}, {true, 2, 1}, {true, 5, 2}};
    EXPECT_EQ(dispatcher.Pick(rings), 1);
    rings[1].available = false;
    EXPECT_EQ(dispatcher.Pick(rings), 2);
}

TEST(QueryDispatcher, InjectorLocalityPrefersNearbyRowWithTorusWrap) {
    QueryDispatcher dispatcher(DispatchPolicy::kInjectorLocality, 6);
    std::vector<RingView> rings{{true, 0, 1}, {true, 0, 5}};
    // Row 0 wraps to row 5 at distance 1; row 1 is also distance 1 —
    // tie broken by load.
    rings[0].in_flight = 3;
    EXPECT_EQ(dispatcher.Pick(rings, /*preferred_row=*/0), 1);
    // Injector on row 2: ring at row 1 is strictly closer.
    EXPECT_EQ(dispatcher.Pick(rings, /*preferred_row=*/2), 0);
    // No preference: falls back to least-in-flight.
    EXPECT_EQ(dispatcher.Pick(rings, /*preferred_row=*/-1), 1);
}

// --------------------------------------------------------------------- pool

PodTestbed::Config PoolConfig(int rings) {
    PodTestbed::Config config;
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.fabric.device.configure_time = Milliseconds(10);
    config.host.soft_reboot_duration = Milliseconds(200);
    config.host.hard_reboot_duration = Milliseconds(500);
    config.host.crash_reboot_delay = Milliseconds(50);
    config.ring_count = rings;
    return config;
}

TEST(ServicePool, DeployConfiguresEveryRingOnItsOwnRegion) {
    PodTestbed bed(PoolConfig(3));
    ASSERT_TRUE(bed.DeployAndSettle());
    ASSERT_EQ(bed.pool().ring_count(), 3);
    std::set<int> nodes;
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(bed.pool().ring_available(k));
        for (int i = 0; i < RankingService::kRingLength; ++i) {
            const int node = bed.pool().ring(k).RingNode(i);
            EXPECT_TRUE(nodes.insert(node).second)
                << "node " << node << " serves two rings";
            EXPECT_TRUE(bed.fabric().device(node).active());
        }
    }
    EXPECT_EQ(bed.scheduler().occupied_nodes(), 24);
}

TEST(ServicePool, MappingManagerResolvesRolesOfEveryDeployedRing) {
    // One spec is deployed per ring (serialized); the role map must
    // stay cumulative so earlier rings' roles remain resolvable.
    PodTestbed bed(PoolConfig(3));
    ASSERT_TRUE(bed.DeployAndSettle());
    for (int k = 0; k < 3; ++k) {
        const std::string head_role =
            "bing.ranking/ring" + std::to_string(k) + "/rank." +
            ToString(rank::PipelineStage::kFeatureExtraction);
        EXPECT_EQ(bed.mapping_manager().NodeOfRole(head_role),
                  bed.pool().ring(k).RingNode(0))
            << head_role;
        EXPECT_FALSE(
            bed.mapping_manager().RoleAtNode(bed.pool().ring(k).RingNode(3))
                .empty())
            << "ring " << k;
    }
}

TEST(ServicePool, ClosedLoopLoadSpreadsAcrossRings) {
    PodTestbed bed(PoolConfig(3));
    ASSERT_TRUE(bed.DeployAndSettle());

    const LoadResult result = RunSharedLoop(PoolTarget(&bed.pool()), 24, 240);
    EXPECT_EQ(result.completed, 240u);
    EXPECT_EQ(result.timeouts, 0u);
    // Least-in-flight sharding keeps every ring busy: no ring handled
    // less than a quarter of its fair share.
    for (int k = 0; k < 3; ++k) {
        EXPECT_GE(bed.pool().ring(k).counters().completed, 240u / 3 / 4)
            << "ring " << k << " starved";
    }
    const auto total = bed.pool().AggregateRingCounters();
    EXPECT_EQ(total.completed, 240u);
}

TEST(ServicePool, InjectFromPrefersTheLocalRing) {
    PodTestbed::Config config = PoolConfig(2);
    config.policy = DispatchPolicy::kInjectorLocality;
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    // Inject from a node on ring 1's own row: locality must pick ring 1
    // and enter at that node's column.
    RankingService& ring1 = bed.pool().ring(1);
    const int injector_node = ring1.RingNode(3);
    rank::DocumentGenerator generator(17);
    for (int i = 0; i < 6; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        ASSERT_EQ(bed.pool().InjectFrom(injector_node, i, request, nullptr),
                  host::SendStatus::kOk);
        bed.simulator().Run();
    }
    EXPECT_EQ(ring1.counters().completed, 6u);
    EXPECT_EQ(bed.pool().ring(0).counters().completed, 0u);
}

// Satellite: multi-ring failover. One ring's stage node dies via the
// FailureInjector; the dispatcher keeps completing documents on the
// surviving rings while the failed ring rotates its spare in, and the
// recovered ring rejoins rotation afterwards.
TEST(ServicePool, FailoverKeepsServingWhileFailedRingRotates) {
    PodTestbed bed(PoolConfig(3));
    ASSERT_TRUE(bed.DeployAndSettle());

    // Kill ring 1's FFE1 node with a surprise maintenance reboot.
    const int failed_ring = 1;
    const int failed_position = 2;
    const int failed_node = bed.pool().ring(failed_ring).RingNode(failed_position);
    bed.failure_injector().ScheduleMachineReboot(
        failed_node, bed.simulator().Now() + Milliseconds(1));

    // The aggregator notices and drains the ring while the Service
    // Manager rotates the spare in (§4.2).
    bool recovered = false;
    bed.simulator().ScheduleAfter(Milliseconds(1), [&] {
        bed.pool().RecoverRing(failed_ring, failed_position,
                               [&](bool ok) { recovered = ok; });
    });

    // Steady query traffic throughout the incident window.
    rank::DocumentGenerator generator(41);
    int completed = 0, failed = 0;
    for (int i = 0; i < 60; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(500) * i + Milliseconds(2), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                const auto status = bed.pool().Inject(
                    i % 32, request, [&](const ScoreResult& r) {
                        if (r.ok) {
                            ++completed;
                        } else {
                            ++failed;
                        }
                    });
                if (status != host::SendStatus::kOk) ++failed;
            });
    }
    bed.simulator().Run();

    ASSERT_TRUE(recovered);
    EXPECT_TRUE(bed.pool().ring_available(failed_ring));
    // Every document injected after the drain completed on a survivor.
    EXPECT_EQ(completed, 60);
    EXPECT_EQ(failed, 0);
    EXPECT_GT(bed.pool().counters().redirected, 0u);
    // The spare absorbed the lost stage on the failed ring.
    EXPECT_EQ(bed.pool().ring(failed_ring).StageAt(failed_position),
              rank::PipelineStage::kSpare);

    // The rebooted machine's FPGA came back RX-halted (§3.5); the
    // Mapping Manager reconfigures it in place so the node rejoins the
    // fabric as the ring's spare.
    bool reconfigured = false;
    bed.mapping_manager().ReconfigureInPlace(
        failed_node, [&](bool ok) { reconfigured = ok; });
    bed.simulator().Run();
    ASSERT_TRUE(reconfigured);

    // The recovered ring takes traffic again: drain the others and
    // push one document through ring 1 alone.
    bed.pool().SetRingAvailable(0, false);
    bed.pool().SetRingAvailable(2, false);
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;
    bool ok_after = false;
    ASSERT_EQ(bed.pool().Inject(0, request,
                                [&](const ScoreResult& r) { ok_after = r.ok; }),
              host::SendStatus::kOk);
    bed.simulator().Run();
    EXPECT_TRUE(ok_after);
}

TEST(ServicePool, RequestingMoreRingsThanThePodHoldsFailsDeploy) {
    // 7 rings on a 6-row pod: placement falls short and the deployment
    // reports failure instead of silently serving fewer rings.
    PodTestbed bed(PoolConfig(7));
    EXPECT_FALSE(bed.DeployAndSettle());
    EXPECT_EQ(bed.pool().ring_count(), 6);
    EXPECT_EQ(bed.scheduler().counters().rejections, 1u);
}

TEST(ServicePool, AllRingsDrainedRejectsInjection) {
    PodTestbed bed(PoolConfig(2));
    ASSERT_TRUE(bed.DeployAndSettle());
    bed.pool().SetRingAvailable(0, false);
    bed.pool().SetRingAvailable(1, false);
    rank::DocumentGenerator generator(3);
    rank::CompressedRequest request = generator.Next();
    EXPECT_EQ(bed.pool().Inject(0, request, nullptr),
              host::SendStatus::kTimeout);
    EXPECT_EQ(bed.pool().counters().rejected, 1u);
}

}  // namespace
}  // namespace catapult::service
