// Federated control plane: PodContext pod-id threading, the
// FederatedDispatcher's pod-aware policies, admission control,
// whole-pod blackout failover with zero lost accepted queries,
// PodScheduler grant reuse across deploy/release/redeploy cycles under
// federation, and the always-on attach and bind misuse checks.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "service/load_generator.h"
#include "service/stage_role.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

FederationTestbed::Config FastFederation(int pods, int rings) {
    FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = rings;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    return config;
}

/** Health/reboot tuning that makes whole-pod loss conclude quickly. */
void FastFailureHandling(FederationTestbed::Config& config) {
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
}

// ------------------------------------------------------------ PodContext

TEST(PodContext, ThreadsPodIdThroughNodeIdsTelemetryAndReports) {
    FederationTestbed bed(FastFederation(/*pods=*/2, /*rings=*/1));
    ASSERT_TRUE(bed.DeployAndSettle());

    // Node ids partition into per-pod ranges; names stay distinct.
    EXPECT_EQ(bed.pod(0).pod_id(), 0);
    EXPECT_EQ(bed.pod(1).pod_id(), 1);
    EXPECT_EQ(bed.pod(0).fabric().node_base(), 0);
    EXPECT_EQ(bed.pod(1).fabric().node_base(), 48);
    EXPECT_EQ(bed.pod(1).fabric().pod_id(), 1);
    EXPECT_EQ(bed.pod(1).fabric().GlobalId(0), 48);

    // Telemetry events carry the publishing pod's id.
    mgmt::TelemetryEvent seen;
    const Subscription subscription = bed.pod(1).telemetry().Subscribe(
        [&](const mgmt::TelemetryEvent& event) { seen = event; });
    bed.pod(1).telemetry().Publish(7, mgmt::TelemetryKind::kDmaStall);
    EXPECT_EQ(seen.pod, 1);
    EXPECT_EQ(seen.node, 7);

    // Machine reports carry the investigating pod's id.
    std::vector<mgmt::MachineReport> reports;
    bed.pod(1).health_monitor().Investigate(
        {3}, [&](std::vector<mgmt::MachineReport> r) { reports = std::move(r); });
    bed.simulator().Run();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].pod, 1);
    EXPECT_EQ(reports[0].node, 3);
}

TEST(PodContext, FederationDeploysEveryPodWithDistinctRoles) {
    FederationTestbed bed(FastFederation(/*pods=*/3, /*rings=*/2));
    ASSERT_TRUE(bed.DeployAndSettle());
    EXPECT_EQ(bed.pod_count(), 3);
    EXPECT_EQ(bed.dispatcher().pod_count(), 3);
    for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(bed.pod(p).scheduler().occupied_nodes(), 16) << "pod " << p;
        EXPECT_EQ(bed.pod(p).pool().available_rings(), 2) << "pod " << p;
        // Each pod's mapping manager resolves its own pod-suffixed roles.
        const std::string role =
            "bing.ranking/pod" + std::to_string(p) + "/ring0/rank." +
            ToString(rank::PipelineStage::kFeatureExtraction);
        EXPECT_EQ(bed.pod(p).mapping_manager().NodeOfRole(role),
                  bed.pod(p).pool().ring(0).RingNode(0))
            << role;
    }
}

// --------------------------------------------------------- dispatcher

TEST(FederatedDispatcher, RoundRobinSpreadsQueriesAcrossPods) {
    auto config = FastFederation(/*pods=*/3, /*rings=*/1);
    config.dispatcher.policy = FederationPolicy::kRoundRobin;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    rank::DocumentGenerator generator(11);
    int completed = 0;
    for (int i = 0; i < 9; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        ASSERT_EQ(bed.dispatcher().Inject(
                      i, request,
                      [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; }),
                  host::SendStatus::kOk);
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 9);
    for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(bed.pod(p).pool().counters().dispatched, 3u) << "pod " << p;
    }
    EXPECT_EQ(bed.dispatcher().counters().accepted, 9u);
    EXPECT_EQ(bed.dispatcher().counters().completed, 9u);
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
}

TEST(FederatedDispatcher, ModelAffinityHashesModelsToHomePods) {
    auto config = FastFederation(/*pods=*/3, /*rings=*/1);
    config.dispatcher.policy = FederationPolicy::kModelAffinity;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    rank::DocumentGenerator generator(13);
    int completed = 0;
    for (int round = 0; round < 2; ++round) {
        for (std::uint32_t model = 0; model < 3; ++model) {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = model;
            ASSERT_EQ(
                bed.dispatcher().Inject(
                    static_cast<int>(round * 3 + model), request,
                    [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; }),
                host::SendStatus::kOk);
        }
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 6);
    EXPECT_EQ(bed.dispatcher().counters().affinity_hits, 6u);
    // model k lives on pod k (k = model_id % 3): every pod saw exactly
    // its own model's queries, so no cross-pod reload churn.
    for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(bed.pod(p).pool().counters().dispatched, 2u) << "pod " << p;
        EXPECT_LE(bed.pod(p).pool().AggregateRingCounters().model_reloads, 1u)
            << "pod " << p;
    }
}

TEST(FederatedDispatcher, AdmissionCapRejectsInsteadOfQueuing) {
    auto config = FastFederation(/*pods=*/1, /*rings=*/1);
    config.dispatcher.max_in_flight_per_pod = 4;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    rank::DocumentGenerator generator(17);
    int completed = 0;
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < 10; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        const auto status = bed.dispatcher().Inject(
            i, request, [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; });
        if (status == host::SendStatus::kOk) {
            ++accepted;
        } else {
            ++rejected;
        }
    }
    // The cap answers immediately: nothing queues behind it.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(rejected, 6);
    EXPECT_EQ(bed.dispatcher().pod_in_flight(0), 4);
    EXPECT_FALSE(bed.dispatcher().pod_eligible(0));
    bed.simulator().Run();
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(bed.dispatcher().counters().rejected, 6u);
    EXPECT_TRUE(bed.dispatcher().pod_eligible(0));
}

TEST(FederatedDispatcher, OpenLoopLoadRejectsBeyondTheAdmissionCap) {
    auto config = FastFederation(/*pods=*/2, /*rings=*/1);
    config.dispatcher.max_in_flight_per_pod = 8;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    // Far beyond two rings' capacity, so the cap must engage.
    Rng rng(23);
    const LoadResult result =
        RunOpenLoop({FederationTarget(&bed.dispatcher())},
                    {.rate = 100'000.0, .duration = Milliseconds(20)}, &rng);

    EXPECT_GT(result.completed, 0u);
    EXPECT_GT(result.rejected, 0u);  // admission control engaged
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_EQ(bed.dispatcher().counters().accepted,
              result.completed + result.timeouts);
    EXPECT_EQ(bed.dispatcher().counters().rejected, result.rejected);
}

TEST(FederatedDispatcher, WholePodBlackoutFailsOverWithZeroLostQueries) {
    auto config = FastFederation(/*pods=*/2, /*rings=*/2);
    FastFailureHandling(config);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const Time blackout_at = bed.simulator().Now() + Milliseconds(40);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);

    rank::DocumentGenerator generator(29);
    int ok_results = 0;
    int failed_results = 0;
    int accepted = 0;
    // A burst right before the lights go out: queries provably in
    // flight on the dying pod, exercising the in-flight retry path,
    // not just the immediate redirect of new arrivals.
    for (int b = 0; b < 24; ++b) {
        bed.simulator().ScheduleAt(blackout_at - Microseconds(100), [&, b] {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = 0;
            const auto status = bed.dispatcher().Inject(
                b, request, [&](const ScoreResult& r) {
                    if (r.ok) {
                        ++ok_results;
                    } else {
                        ++failed_results;
                    }
                });
            if (status == host::SendStatus::kOk) ++accepted;
        });
    }
    // Plus a paced load spanning the whole incident.
    for (int i = 0; i < 1'600; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(50) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                const auto status = bed.dispatcher().Inject(
                    i % 32, request, [&](const ScoreResult& r) {
                        if (r.ok) {
                            ++ok_results;
                        } else {
                            ++failed_results;
                        }
                    });
                if (status == host::SendStatus::kOk) ++accepted;
            });
    }
    bed.simulator().Run();

    // Zero dropped in-flight retries: every accepted query completed,
    // the ones caught on the dying pod via failover to the survivor.
    EXPECT_EQ(failed_results, 0);
    EXPECT_EQ(ok_results, accepted);
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_GT(bed.dispatcher().counters().failovers, 0u);

    // The lost pod ended latched out of rotation: every node fatal.
    EXPECT_EQ(bed.dispatcher().pod_dead_nodes(0), 48);
    EXPECT_FALSE(bed.dispatcher().pod_eligible(0));
    EXPECT_TRUE(bed.dispatcher().pod_eligible(1));
    EXPECT_GT(bed.dispatcher().pod_fault_reports(0), 0u);
    // The survivor carried traffic after the blackout.
    EXPECT_GT(bed.pod(1).pool().counters().dispatched, 0u);
}

TEST(FederatedDispatcher, CircuitBreakerHoldsSickPodOnProbation) {
    // A pod that accepts queries but fails them all (every ring stage
    // hung, health plane off so nothing drains the ring): the breaker
    // must open after the failure streak and then admit only
    // single-probe trickle traffic — not the full share — while every
    // affected query completes on the healthy pod.
    auto config = FastFederation(/*pods=*/2, /*rings=*/1);
    config.pod.autonomic = false;  // isolate the dispatcher's breaker
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    for (int i = 0; i < RankingService::kRingLength; ++i) {
        bed.pod(0).pool().ring(0).role(i).Hang();
    }

    rank::DocumentGenerator generator(31);
    int ok_results = 0;
    int failed_results = 0;
    int accepted = 0;
    for (int i = 0; i < 200; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(100) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                const auto status = bed.dispatcher().Inject(
                    i % 32, request, [&](const ScoreResult& r) {
                        if (r.ok) {
                            ++ok_results;
                        } else {
                            ++failed_results;
                        }
                    });
                if (status == host::SendStatus::kOk) ++accepted;
            });
    }
    bed.simulator().Run();

    // Every accepted query eventually completed on the healthy pod.
    EXPECT_EQ(failed_results, 0);
    EXPECT_EQ(ok_results, accepted);
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_GT(bed.dispatcher().counters().failovers, 0u);
    EXPECT_GE(bed.dispatcher().counters().breaker_trips, 1u);
    // The sick pod saw only the pre-trip streak plus half-open probes,
    // not its ~half share of the 200 queries.
    EXPECT_LT(bed.pod(0).pool().counters().dispatched, 40u);
    EXPECT_GT(bed.pod(1).pool().counters().dispatched, 160u);
}

// ------------------------------------------- scheduler grant reuse

TEST(FederationScheduler, GrantReuseAcrossRedeployCyclesStaysPodLocal) {
    auto config = FastFederation(/*pods=*/2, /*rings=*/1);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    mgmt::PodContext& pod0 = bed.pod(0);
    mgmt::PodContext& pod1 = bed.pod(1);
    const int pod0_base = pod0.scheduler().occupied_nodes();
    const int pod1_base = pod1.scheduler().occupied_nodes();
    ASSERT_EQ(pod0_base, 8);

    int first_row = -1;
    {
        ServicePool::Config extra;
        extra.ring_count = 2;
        extra.ring.service_name = "extra.pool";
        ServicePool pool(&bed.simulator(), &pod0.fabric(), pod0.hosts(),
                         &pod0.mapping_manager(), &pod0.scheduler(),
                         extra);
        bool deployed = false;
        pool.Deploy([&](bool ok) { deployed = ok; });
        bed.simulator().Run();
        EXPECT_TRUE(deployed);
        EXPECT_EQ(pod0.scheduler().occupied_nodes(), pod0_base + 16);
        // The extra pool's grants live on pod 0's scheduler only.
        EXPECT_EQ(pod1.scheduler().occupied_nodes(), pod1_base);
        first_row = pool.placement(0).row;
    }
    // Destruction released exactly the extra grants — pod-locally.
    EXPECT_EQ(pod0.scheduler().occupied_nodes(), pod0_base);
    EXPECT_EQ(pod1.scheduler().occupied_nodes(), pod1_base);

    // Redeploy: the freed regions grant again (same first row), and
    // the cycle leaks nothing into the other pod.
    {
        ServicePool::Config extra;
        extra.ring_count = 2;
        extra.ring.service_name = "extra.pool";
        ServicePool pool(&bed.simulator(), &pod0.fabric(), pod0.hosts(),
                         &pod0.mapping_manager(), &pod0.scheduler(),
                         extra);
        bool deployed = false;
        pool.Deploy([&](bool ok) { deployed = ok; });
        bed.simulator().Run();
        EXPECT_TRUE(deployed);
        EXPECT_EQ(pool.placement(0).row, first_row);
        EXPECT_EQ(pod1.scheduler().occupied_nodes(), pod1_base);
    }
    EXPECT_EQ(pod0.scheduler().occupied_nodes(), pod0_base);
    EXPECT_EQ(pod0.scheduler().counters().releases, 4u);
    EXPECT_EQ(pod1.scheduler().counters().releases, 0u);
}

TEST(FederationScheduler, PodCapacityExhaustionFailsDeployCleanlyPerPod) {
    auto config = FastFederation(/*pods=*/2, /*rings=*/1);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    mgmt::PodContext& pod0 = bed.pod(0);
    mgmt::PodContext& pod1 = bed.pod(1);

    // Pod 0 has 5 free rows; asking for 6 rings must fail the Deploy
    // cleanly (no partial service) and release every partial grant.
    {
        ServicePool::Config extra;
        extra.ring_count = 6;
        extra.ring.service_name = "too.big";
        ServicePool pool(&bed.simulator(), &pod0.fabric(), pod0.hosts(),
                         &pod0.mapping_manager(), &pod0.scheduler(),
                         extra);
        bool done = false;
        bool deployed = true;
        pool.Deploy([&](bool ok) {
            done = true;
            deployed = ok;
        });
        bed.simulator().Run();
        EXPECT_TRUE(done);
        EXPECT_FALSE(deployed);
        // Pod 1 was never touched by pod 0's exhaustion.
        EXPECT_EQ(pod1.scheduler().occupied_nodes(), 8);
    }
    EXPECT_EQ(pod0.scheduler().occupied_nodes(), 8);

    // The same 5-ring request that fits pod 1 deploys fine there,
    // proving the failure above was per-pod, not federation-wide.
    {
        ServicePool::Config extra;
        extra.ring_count = 5;
        extra.ring.service_name = "fits.fine";
        ServicePool pool(&bed.simulator(), &pod1.fabric(), pod1.hosts(),
                         &pod1.mapping_manager(), &pod1.scheduler(),
                         extra);
        bool deployed = false;
        pool.Deploy([&](bool ok) { deployed = ok; });
        bed.simulator().Run();
        EXPECT_TRUE(deployed);
        EXPECT_EQ(pod1.scheduler().occupied_nodes(), 48);
        EXPECT_EQ(pod1.scheduler().free_nodes(), 0);
    }
    EXPECT_EQ(pod1.scheduler().occupied_nodes(), 8);
}

// ------------------------------------------- federated closed loop

TEST(FederatedLoad, ClosedLoopScalesFromOneToTwoPods) {
    double tput[2] = {0.0, 0.0};
    for (int pods = 1; pods <= 2; ++pods) {
        FederationTestbed bed(FastFederation(pods, /*rings=*/1));
        ASSERT_TRUE(bed.DeployAndSettle());
        // 32 clients saturate a single ring (~12, Fig. 9).
        const LoadResult result = RunSharedLoop(
            FederationTarget(&bed.dispatcher()), 32, 400);
        EXPECT_EQ(result.completed, 400u);
        EXPECT_EQ(result.timeouts, 0u);
        tput[pods - 1] = result.ThroughputPerSecond();
    }
    // Two pods must comfortably beat one against the same offered load.
    EXPECT_GT(tput[1], tput[0] * 1.5);
}

// ------------------------------------------------------- misuse checks
//
// Attach and bind misuse aborts in every build — release included —
// naming the call and the bad value, instead of compiling out with
// NDEBUG.

/** A 3-shard group (coordinator 0) and a binding that is valid on it. */
struct ThreeShardGroup {
    sim::SimulatorGroup group{[] {
        sim::SimulatorGroup::Config config;
        config.shards = 3;
        config.epoch = Microseconds(7);
        return config;
    }()};
    FederatedDispatcher::ShardBinding binding() {
        FederatedDispatcher::ShardBinding b;
        b.group = &group;
        b.coordinator_shard = 0;
        b.inject_hop = Microseconds(7);
        b.completion_hop = Microseconds(7);
        return b;
    }
};

TEST(FederatedDispatcherDeathTest, ConstructorRejectsMisuse) {
    sim::Simulator sim;
    EXPECT_DEATH(FederatedDispatcher(nullptr, {}),
                 "FederatedDispatcher: null simulator");
    FederatedDispatcher::Config negative;
    negative.max_retries = -1;
    EXPECT_DEATH(FederatedDispatcher(&sim, negative),
                 "FederatedDispatcher: max_retries -1 < 0");
}

TEST(FederatedDispatcherDeathTest, BindShardGroupRejectsMisuse) {
    FederationTestbed bed(FastFederation(/*pods=*/1, /*rings=*/1));
    ThreeShardGroup g;
    FederatedDispatcher attached(&g.group.shard(0), {});
    attached.AttachPod(&bed.pod(0));
    EXPECT_DEATH(attached.BindShardGroup(g.binding()),
                 "BindShardGroup: called after 1 pod attach");

    FederatedDispatcher fresh(&g.group.shard(0), {});
    EXPECT_DEATH(fresh.BindShardGroup({}), "BindShardGroup: null group");
    auto out_of_range = g.binding();
    out_of_range.coordinator_shard = 3;
    EXPECT_DEATH(fresh.BindShardGroup(out_of_range),
                 "coordinator shard 3 outside \\[0, 3\\)");
    auto zero_hop = g.binding();
    zero_hop.completion_hop = 0;
    EXPECT_DEATH(fresh.BindShardGroup(zero_hop),
                 "hops must be positive \\(inject_hop=7000000 ps, "
                 "completion_hop=0 ps\\)");
}

TEST(FederatedDispatcherDeathTest, AttachShardedPodRejectsMisuse) {
    FederationTestbed bed(FastFederation(/*pods=*/1, /*rings=*/1));
    mgmt::PodContext* pod = &bed.pod(0);
    ThreeShardGroup g;
    FederatedDispatcher unbound(&g.group.shard(0), {});
    EXPECT_DEATH(unbound.AttachShardedPod(pod, 1),
                 "AttachShardedPod: no shard group bound");

    FederatedDispatcher bound(&g.group.shard(0), {});
    bound.BindShardGroup(g.binding());
    EXPECT_DEATH(bound.AttachShardedPod(nullptr, 1),
                 "AttachShardedPod: null pod");
    EXPECT_DEATH(bound.AttachShardedPod(pod, 3),
                 "pod on shard 3; pod shards are \\[0, 3\\) except the "
                 "coordinator's 0");
    EXPECT_DEATH(bound.AttachShardedPod(pod, 0), "pod on shard 0;");
}

TEST(FederatedDispatcherDeathTest, AttachPodOnABoundDispatcherAborts) {
    // Direct seams call into dispatcher state synchronously; on a pod
    // shard they would write coordinator state from another shard.
    FederationTestbed bed(FastFederation(/*pods=*/1, /*rings=*/1));
    ThreeShardGroup g;
    FederatedDispatcher bound(&g.group.shard(0), {});
    bound.BindShardGroup(g.binding());
    EXPECT_DEATH(bound.AttachPod(&bed.pod(0)),
                 "AttachPod: dispatcher is bound to a shard group "
                 "\\(coordinator shard 0\\)");
}

TEST(FederatedDispatcherDeathTest, ReadmitPodRejectsANarrowedEdge) {
    // The group ran with the declared hops; widening an edge through
    // group() afterwards makes ReadmitPod's re-declaration a narrowing.
    auto config = FastFederation(/*pods=*/1, /*rings=*/1);
    config.sharding.enabled = true;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    const Time hop = bed.group()->edge_lookahead(0, 1);
    ASSERT_TRUE(bed.group()->SetEdgeLookahead(0, 1, 2 * hop));
    EXPECT_DEATH(bed.dispatcher().ReadmitPod(0),
                 "ReadmitPod: hop [0-9]+ ps on edge 0->1 is narrower than "
                 "the [0-9]+ ps the group already ran with");
}

TEST(FederationTestbedDeathTest, RejectsPodCountOutsideTheRotation) {
    // The dispatcher's rotation holds 64 pods: a 65th would be built
    // and never attached, so the testbed refuses before building any.
    EXPECT_DEATH(FederationTestbed{FastFederation(/*pods=*/0, 1)},
                 "FederationTestbed: pod_count 0 outside \\[1, 64\\]");
    EXPECT_DEATH(FederationTestbed{FastFederation(/*pods=*/65, 1)},
                 "FederationTestbed: pod_count 65 outside \\[1, 64\\]");
}

TEST(FederationTestbedDeathTest, RejectsParallelSharding) {
    // One thread runs every shard; the field accepts only false, with
    // or without sharding.
    auto sharded = FastFederation(/*pods=*/2, /*rings=*/1);
    sharded.sharding.enabled = true;
    sharded.sharding.parallel = true;
    EXPECT_DEATH(FederationTestbed{sharded},
                 "FederationTestbed: sharding.parallel is set; shards run "
                 "lock-step on the calling thread, so the field accepts "
                 "only false");
    auto unsharded = FastFederation(/*pods=*/1, /*rings=*/1);
    unsharded.sharding.parallel = true;
    EXPECT_DEATH(FederationTestbed{unsharded},
                 "sharding.parallel is set");
}

}  // namespace
}  // namespace catapult::service
