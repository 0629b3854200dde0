// Integration tests: the full 8-FPGA ranking service on a pod (§4, §5).

#include <gtest/gtest.h>

#include "rank/document_generator.h"
#include "rank/software_ranker.h"
#include "service/load_generator.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

PodTestbed::Config FastConfig(bool compute_scores = false) {
    PodTestbed::Config config;
    // Small models keep generation fast in unit tests.
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.service.compute_scores = compute_scores;
    // Shorten configuration so deploy tests run quickly.
    config.fabric.device.configure_time = Milliseconds(10);
    return config;
}

TEST(RankingService, DeploysAcrossEightNodes) {
    PodTestbed bed(FastConfig());
    EXPECT_TRUE(bed.DeployAndSettle());
    for (int i = 0; i < RankingService::kRingLength; ++i) {
        const int node = bed.service().RingNode(i);
        EXPECT_TRUE(bed.fabric().device(node).active());
        EXPECT_FALSE(bed.fabric().shell(node).rx_halted());
    }
    // Table 1 images are loaded in ring order.
    EXPECT_EQ(bed.fabric().device(bed.service().RingNode(0)).loaded_image()
                  .role_name,
              "rank.FE");
    EXPECT_EQ(bed.fabric().device(bed.service().RingNode(7)).loaded_image()
                  .role_name,
              "rank.Spare");
}

TEST(RankingService, ScoresOneDocumentEndToEnd) {
    PodTestbed bed(FastConfig(/*compute_scores=*/true));
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(42);
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;

    ScoreResult result;
    ASSERT_EQ(bed.service().Inject(0, 0, request,
                                   [&](const ScoreResult& r) { result = r; }),
              host::SendStatus::kOk);
    bed.simulator().Run();
    EXPECT_TRUE(result.ok);
    EXPECT_GT(result.latency, 0);
    // Unloaded end-to-end latency is tens of microseconds (§5, Fig 11),
    // far under a millisecond.
    EXPECT_LT(result.latency, Milliseconds(1));
}

TEST(RankingService, FpgaScoreIdenticalToSoftware) {
    // §4: "Our implementation produces results that are identical to
    // software." The score computed by the distributed pipeline must
    // equal the software reference.
    PodTestbed bed(FastConfig(/*compute_scores=*/true));
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(7);

    const rank::Model& model = bed.service().DefaultModel();
    rank::RankingFunction reference(&model);

    for (int i = 0; i < 5; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        ScoreResult result;
        ASSERT_EQ(bed.service().Inject(i % 8, 0, request,
                                       [&](const ScoreResult& r) { result = r; }),
                  host::SendStatus::kOk);
        bed.simulator().Run();
        ASSERT_TRUE(result.ok);
        EXPECT_EQ(result.score, reference.ReferenceScore(request))
            << "doc " << i;
    }
}

TEST(RankingService, AnyNodeCanInject) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(13);
    int completed = 0;
    for (int ring_index = 0; ring_index < 8; ++ring_index) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        ASSERT_EQ(bed.service().Inject(ring_index, 0, request,
                                       [&](const ScoreResult& r) {
                                           if (r.ok) ++completed;
                                       }),
                  host::SendStatus::kOk);
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 8);
}

TEST(RankingService, SpareInjectorSeesSlightlyHigherLatency) {
    // Figure 13: the Spare (tail) node's requests travel further than
    // the head's, so its latency is slightly higher but comparable.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(17);

    // Warm up: the very first document pays the initial Model Reload.
    {
        rank::CompressedRequest warm = generator.WithTargetSize(6'500);
        warm.query.model_id = 0;
        bed.service().Inject(0, 1, warm, [](const ScoreResult&) {});
        bed.simulator().Run();
    }

    auto measure = [&](int ring_index) {
        rank::CompressedRequest request = generator.WithTargetSize(6'500);
        request.query.model_id = 0;
        Time latency = 0;
        bed.service().Inject(ring_index, 0, request,
                             [&](const ScoreResult& r) { latency = r.latency; });
        bed.simulator().Run();
        return latency;
    };
    const Time head = measure(0);
    const Time spare = measure(7);
    EXPECT_GT(spare, head);
    EXPECT_LT(static_cast<double>(spare), static_cast<double>(head) * 1.6);
}

TEST(RankingService, ClosedLoopThroughputSaturates) {
    // Figure 9: throughput grows with injecting threads then saturates
    // at the FE-bound pipeline rate.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    auto run_with_threads = [&](int threads) {
        return RunPerThreadLoop(RingTarget(&bed.service(), {0}, threads), 60)
            .ThroughputPerSecond();
    };
    const double t1 = run_with_threads(1);
    const double t8 = run_with_threads(8);
    const double t16 = run_with_threads(16);
    EXPECT_GT(t8, t1 * 2.5);
    // Saturation: 16 threads buys little over 8.
    EXPECT_LT(t16, t8 * 1.5);
}

TEST(RankingService, MultiNodeAggregateScalesNearLinearly) {
    // Figure 12: aggregate throughput grows almost linearly with the
    // number of injecting nodes (1 thread each).
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    auto run_with_nodes = [&](int nodes) {
        std::vector<int> ring_indices;
        for (int n = 0; n < nodes; ++n) ring_indices.push_back(n);
        return RunPerThreadLoop(RingTarget(&bed.service(), ring_indices, 1), 60)
            .ThroughputPerSecond();
    };
    const double one = run_with_nodes(1);
    const double four = run_with_nodes(4);
    // Near-linear: 4 injectors achieve well over 2.5x one injector
    // (queueing in the shared pipeline costs some efficiency; the full
    // curve is printed by bench_fig12).
    EXPECT_GT(four, one * 2.6);
}

TEST(RankingService, ModelSwitchesTriggerReloads) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(23);
    int completed = 0;
    for (int i = 0; i < 6; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = static_cast<std::uint32_t>(i % 3);
        bed.service().Inject(0, i % 16, request, [&](const ScoreResult& r) {
            if (r.ok) ++completed;
        });
    }
    bed.simulator().Run();
    EXPECT_EQ(completed, 6);
    // At least one reload per distinct model.
    EXPECT_GE(bed.service().counters().model_reloads, 3u);
}

TEST(RankingService, LatencyGrowsWithDocumentSize) {
    // Figure 11: unloaded pipeline latency is proportional to the
    // compressed document size.
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    rank::DocumentGenerator generator(29);

    auto measure = [&](Bytes size) {
        rank::CompressedRequest request = generator.WithTargetSize(size);
        request.query.model_id = 0;
        Time latency = 0;
        bed.service().Inject(0, 0, request,
                             [&](const ScoreResult& r) { latency = r.latency; });
        bed.simulator().Run();
        return latency;
    };
    const Time small = measure(1'024);
    const Time medium = measure(16'384);
    const Time large = measure(63'000);
    EXPECT_LT(small, medium);
    EXPECT_LT(medium, large);
    // Monotonic and strongly size-dependent (the paper's Fig. 11 spans
    // ~30x because its floor excludes host-side costs; our user-level
    // measurement carries a fixed ~40 us of stage/host latency).
    EXPECT_GT(static_cast<double>(large) / static_cast<double>(small), 2.0);
}

TEST(RankingService, OpenLoopInjectionCompletes) {
    PodTestbed bed(FastConfig());
    ASSERT_TRUE(bed.DeployAndSettle());
    Rng rng(31);
    std::vector<LoadTarget> fronts;
    for (int i = 0; i < RankingService::kRingLength; ++i) {
        fronts.push_back(HostFront(&bed.service(), i, rng));
    }
    const LoadResult result = RunOpenLoop(
        fronts, {.rate = 2'000.0, .duration = Milliseconds(20)}, &rng);
    EXPECT_GT(result.completed_in_window, 100u);
    EXPECT_EQ(result.timeouts, 0u);
    EXPECT_GT(result.latency_us.mean(), 0.0);
}

}  // namespace
}  // namespace catapult::service
