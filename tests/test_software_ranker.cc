// Unit tests for the software baseline, the shared functional pipeline,
// and — most importantly — FPGA/software score identity (§4).

#include <gtest/gtest.h>

#include "common/stats.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "sim/simulator.h"

namespace catapult::rank {
namespace {

Model::Config SmallModelConfig() {
    Model::Config config;
    config.expression_count = 150;
    config.tree_count = 450;
    return config;
}

TEST(RankingFunction, CompiledPathMatchesReferenceBitForBit) {
    // §4: "Our implementation produces results that are identical to
    // software." The compiled FFE path (what the FPGA runs) must equal
    // direct AST evaluation (what the CPU baseline runs) exactly.
    const auto model = Model::Generate(0, 1234, SmallModelConfig());
    RankingFunction function(model.get());
    DocumentGenerator generator(77);
    for (int i = 0; i < 25; ++i) {
        const CompressedRequest request = generator.Next();
        const float compiled = function.Score(request);
        const float reference = function.ReferenceScore(request);
        EXPECT_EQ(compiled, reference) << "doc " << i;
    }
}

TEST(RankingFunction, ScoresAreDeterministic) {
    const auto model = Model::Generate(0, 55, SmallModelConfig());
    RankingFunction f1(model.get());
    RankingFunction f2(model.get());
    DocumentGenerator generator(88);
    const CompressedRequest request = generator.Next();
    EXPECT_EQ(f1.Score(request), f2.Score(request));
}

TEST(RankingFunction, DifferentDocumentsScoreDifferently) {
    const auto model = Model::Generate(0, 55, SmallModelConfig());
    RankingFunction function(model.get());
    DocumentGenerator generator(99);
    const float a = function.Score(generator.Next());
    const float b = function.Score(generator.Next());
    EXPECT_NE(a, b);
}

TEST(RankingFunction, StagewiseMatchesOneShot) {
    // Running the stages the way the distributed roles do must produce
    // the same score as the one-shot path.
    const auto model = Model::Generate(0, 314, SmallModelConfig());
    RankingFunction function(model.get());
    DocumentGenerator generator(11);
    const CompressedRequest request = generator.Next();

    FeatureStore store;
    function.ExtractFeatures(request, store);
    function.RunFfe0(store);
    function.RunFfe1(store);
    FeatureStore compressed;
    function.Compress(store, compressed);
    const float staged =
        model->ensemble().shard(0).PartialScore(compressed) +
        model->ensemble().shard(1).PartialScore(compressed) +
        model->ensemble().shard(2).PartialScore(compressed);

    EXPECT_EQ(staged, function.Score(request));
}

TEST(CpuPool, ParallelismUpToCoreCount) {
    sim::Simulator sim;
    CpuPool::Config config;
    config.cores = 4;
    config.contention_alpha = 0.0;
    config.noise_sigma = 0.0;
    CpuPool pool(&sim, Rng(1), config);
    std::vector<Time> completions;
    for (int i = 0; i < 8; ++i) {
        pool.Submit(Microseconds(100),
                    [&] { completions.push_back(sim.Now()); });
    }
    EXPECT_EQ(pool.busy_cores(), 4);
    EXPECT_EQ(pool.queue_depth(), 4u);
    sim.Run();
    ASSERT_EQ(completions.size(), 8u);
    // First four finish together, second four one service later.
    EXPECT_EQ(completions[3], Microseconds(100));
    EXPECT_EQ(completions[7], Microseconds(200));
}

TEST(CpuPool, ContentionInflatesService) {
    sim::Simulator sim;
    CpuPool::Config config;
    config.cores = 12;
    config.contention_alpha = 1.0;
    config.noise_sigma = 0.0;
    CpuPool pool(&sim, Rng(1), config);

    Time solo_done = 0;
    pool.Submit(Microseconds(100), [&] { solo_done = sim.Now(); });
    sim.Run();
    EXPECT_GT(solo_done, Microseconds(100));  // 1/12 occupancy inflation
    EXPECT_LT(solo_done, Microseconds(102));

    // Saturated: inflation approaches 1 + alpha.
    sim::Simulator sim2;
    CpuPool pool2(&sim2, Rng(1), config);
    std::vector<Time> done;
    for (int i = 0; i < 12; ++i) {
        pool2.Submit(Microseconds(100), [&] { done.push_back(sim2.Now()); });
    }
    sim2.Run();
    EXPECT_GT(done.back(), Microseconds(150));
}

// A pool of no cores aborts in every build: in release it would queue
// every job forever.
TEST(CpuPoolDeathTest, RejectsFewerThanOneCore) {
    sim::Simulator sim;
    CpuPool::Config config;
    config.cores = 0;
    EXPECT_DEATH(CpuPool(&sim, Rng(1), config), "CpuPool: cores 0 < 1");
}

TEST(SoftwareCostModel, FullRankingIsMilliseconds) {
    // Software ranking of an average document takes O(1 ms) on a core —
    // the scale that makes a 95% throughput gain meaningful.
    const auto model = Model::Generate(0, 42, Model::Config{});
    const SoftwareCostModel cost;
    DocumentGenerator generator(5);
    RunningStat service_us;
    for (int i = 0; i < 200; ++i) {
        const Time t = cost.FullServiceTime(generator.Next(), *model);
        service_us.Add(ToMicroseconds(t));
    }
    EXPECT_GT(service_us.mean(), 500.0);
    EXPECT_LT(service_us.mean(), 4'000.0);
}

TEST(SoftwareCostModel, PrepIsFractionOfFull) {
    // §4: the FPGA path still pays SSD lookup + hit-vector computation
    // on the host, a fraction of the full software ranking cost.
    const auto model = Model::Generate(0, 42, Model::Config{});
    const SoftwareCostModel cost;
    DocumentGenerator generator(6);
    for (int i = 0; i < 50; ++i) {
        const CompressedRequest request = generator.Next();
        const Time full = cost.FullServiceTime(request, *model);
        const Time prep = cost.PrepServiceTime(request);
        EXPECT_LT(prep, full);
        EXPECT_GT(prep, full / 20);
    }
}

TEST(SoftwareRankServer, CompletesWithLatency) {
    sim::Simulator sim;
    const auto model = Model::Generate(0, 42, SmallModelConfig());
    SoftwareRankServer server(&sim, Rng(3));
    DocumentGenerator generator(7);
    Time latency = 0;
    server.Submit(generator.Next(), *model, [&](Time t) { latency = t; });
    sim.Run();
    EXPECT_GT(latency, 0);
}

TEST(SoftwareRankServer, LatencyGrowsWithQueueing) {
    const auto model = Model::Generate(0, 42, Model::Config{});
    DocumentGenerator generator(7);
    auto run_batch = [&](int batch) {
        sim::Simulator sim;
        SoftwareRankServer server(&sim, Rng(3));
        RunningStat latency;
        for (int i = 0; i < batch; ++i) {
            server.Submit(generator.Next(), *model,
                          [&](Time t) { latency.Add(ToMicroseconds(t)); });
        }
        sim.Run();
        return latency.mean();
    };
    const double light = run_batch(4);
    const double heavy = run_batch(96);
    EXPECT_GT(heavy, light * 1.5);
}

}  // namespace
}  // namespace catapult::rank
