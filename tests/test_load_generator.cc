// Tests for the load generator: one transcript pin per arrival process
// x target pairing in use, and the misuse checks.
//
// Each pin hashes (FNV-1a) a run's counters, elapsed time, every latency
// sample in order and every phase field, so a pin that moves means an
// arrival process or a target changed what it simulates.

#include <bit>
#include <initializer_list>

#include <gtest/gtest.h>

#include "service/federation_testbed.h"
#include "service/load_generator.h"
#include "service/stage_loopback.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

class Fnv1a {
  public:
    void Add(std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }
    void Add(std::initializer_list<std::uint64_t> words) {
        for (const std::uint64_t word : words) Add(word);
    }
    void Add(double x) { Add(std::bit_cast<std::uint64_t>(x)); }
    void Add(const SampleStat& stat) {
        Add(static_cast<std::uint64_t>(stat.count()));
        for (const double x : stat.samples()) Add(x);
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t Ps(Time t) { return static_cast<std::uint64_t>(t); }

/** Both counts, timeouts, rejects, elapsed and every latency sample. */
std::uint64_t TranscriptHash(const LoadResult& r) {
    Fnv1a h;
    h.Add({r.completed, r.completed_in_window, r.timeouts, r.rejected,
           Ps(r.elapsed)});
    h.Add(r.latency_us);
    return h.value();
}

PodTestbed::Config SmallPod(int rings) {
    PodTestbed::Config config;
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.fabric.device.configure_time = Milliseconds(5);
    config.ring_count = rings;
    return config;
}

FederationTestbed::Config SmallFederation(int max_in_flight_per_pod = 0) {
    FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 1;
    config.pod.service.models.model.expression_count = 300;
    config.pod.service.models.model.tree_count = 900;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.dispatcher.max_in_flight_per_pod = max_in_flight_per_pod;
    return config;
}

TEST(LoadGenerator, RingPerThreadLoopIsPinned) {
    PodTestbed bed(SmallPod(1));
    ASSERT_TRUE(bed.DeployAndSettle());
    const LoadResult r =
        RunPerThreadLoop(RingTarget(&bed.service(), {0, 3, 7}, 2), 6);
    EXPECT_EQ(r.completed, 36u);
    EXPECT_EQ(TranscriptHash(r), 0x47de2d3ebc6b1f01ull);
}

TEST(LoadGenerator, StageLoopbackPerThreadLoopIsPinned) {
    StageLoopback::Config config;
    config.stage = rank::PipelineStage::kFfe0;
    config.via_sl3 = true;
    config.threads = 3;
    config.documents_per_thread = 8;
    config.model.expression_count = 300;
    config.model.tree_count = 900;
    const LoadResult r = StageLoopback(config).Run();
    EXPECT_EQ(r.completed, 24u);
    EXPECT_EQ(r.timeouts, 0u);
    Fnv1a h;
    h.Add(r.completed);
    h.Add(r.ThroughputPerSecond());  // completed / elapsed
    h.Add(r.latency_us);
    EXPECT_EQ(h.value(), 0x7cc64984828a7aa9ull);
}

TEST(LoadGenerator, PoolSharedLoopIsPinned) {
    PodTestbed bed(SmallPod(2));
    ASSERT_TRUE(bed.DeployAndSettle());
    const LoadResult r = RunSharedLoop(PoolTarget(&bed.pool()), 12, 60);
    EXPECT_EQ(r.completed, 60u);
    EXPECT_EQ(TranscriptHash(r), 0xb93b08ef49e20284ull);
}

TEST(LoadGenerator, FederationSharedLoopIsPinned) {
    FederationTestbed bed(SmallFederation());
    ASSERT_TRUE(bed.DeployAndSettle());
    const LoadResult r = RunSharedLoop(
        FederationTarget(&bed.dispatcher()), 10, 50);
    EXPECT_EQ(r.completed, 50u);
    EXPECT_EQ(TranscriptHash(r), 0x00ec8d9338a096fbull);
}

TEST(LoadGenerator, HostFrontPoissonIsPinned) {
    PodTestbed bed(SmallPod(1));
    ASSERT_TRUE(bed.DeployAndSettle());
    Rng rng(5);
    const std::vector<LoadTarget> fronts = {
        HostFront(&bed.service(), 0, rng), HostFront(&bed.service(), 5, rng)};
    const LoadResult r = RunOpenLoop(
        fronts, {.rate = 9'000.0, .duration = Milliseconds(8)}, &rng);
    // Backlog drain after the window counts in `completed` only.
    EXPECT_EQ(r.completed, 150u);
    EXPECT_EQ(r.completed_in_window, 131u);
    EXPECT_EQ(r.phases.at(0).completed, r.completed);
    EXPECT_EQ(r.phases.at(0).arrivals, r.accepted);
    EXPECT_EQ(TranscriptHash(r), 0x38892c91cefd9664ull);
}

TEST(LoadGenerator, SoftwarePoissonIsPinned) {
    sim::Simulator sim;
    rank::Model::Config model_config;
    model_config.expression_count = 300;
    model_config.tree_count = 900;
    const auto model = rank::Model::Generate(0, 0xCA7A9017ull, model_config);
    Rng rng(9);
    std::vector<LoadTarget> servers;
    for (int s = 0; s < 3; ++s) {
        servers.push_back(SoftwareServer(&sim, model.get(), rng));
    }
    const LoadResult r = RunOpenLoop(
        servers, {.rate = 7'000.0, .duration = Milliseconds(8)}, &rng);
    EXPECT_EQ(r.completed, 172u);
    EXPECT_EQ(r.completed_in_window, 153u);
    EXPECT_EQ(TranscriptHash(r), 0x24287cfadff71f56ull);
}

TEST(LoadGenerator, FederationPoissonIsPinned) {
    FederationTestbed bed(SmallFederation(/*max_in_flight_per_pod=*/6));
    ASSERT_TRUE(bed.DeployAndSettle());
    Rng rng(23);
    const LoadResult r =
        RunOpenLoop({FederationTarget(&bed.dispatcher())},
                    {.rate = 60'000.0, .duration = Milliseconds(5)}, &rng);
    EXPECT_EQ(r.rejected, 1u);
    EXPECT_EQ(r.accepted, r.completed + r.timeouts);
    Fnv1a h;
    h.Add({r.completed, r.timeouts, r.rejected, Ps(r.elapsed)});
    h.Add(r.latency_us);
    EXPECT_EQ(h.value(), 0x8fcafb30b9049024ull);
}

TEST(LoadGenerator, FederationFixedBeatWithPhasesAndSloIsPinned) {
    FederationTestbed bed(SmallFederation(/*max_in_flight_per_pod=*/4));
    ASSERT_TRUE(bed.DeployAndSettle());
    const LoadResult r = RunOpenLoop(
        {FederationTarget(&bed.dispatcher())},
        {.rate = 100'000.0,
         .duration = Milliseconds(6),
         .phase_offsets = {Milliseconds(2), Milliseconds(4)},
         .slo = Microseconds(120)},
        /*poisson=*/nullptr);
    ASSERT_EQ(r.phases.size(), 3u);
    EXPECT_EQ(r.accepted, 539u);
    EXPECT_EQ(r.rejected, 61u);
    Fnv1a h;
    h.Add({r.accepted, r.rejected, r.completed, r.timeouts});
    for (const LoadPhase& p : r.phases) {
        h.Add({Ps(p.start), Ps(p.span), p.arrivals, p.accepted, p.rejected,
               p.completed, p.completed_in_slo, p.failed});
        h.Add(p.latency_us);
    }
    EXPECT_EQ(h.value(), 0x2233d62d3453abfaull);
}

// ------------------------------------------------------- misuse checks
//
// Misuse aborts in every build — release included — naming the call
// and the bad value.

TEST(LoadGeneratorDeathTest, TargetsRejectMisuse) {
    PodTestbed bed(SmallPod(1));
    RankingService* service = &bed.service();
    EXPECT_DEATH(RingTarget(nullptr, {0}, 1), "RingTarget: null service");
    EXPECT_DEATH(RingTarget(service, {0}, 0),
                 "RingTarget: threads_per_node 0 outside \\[1, 64\\]");
    EXPECT_DEATH(RingTarget(service, {0}, 65),
                 "RingTarget: threads_per_node 65 outside \\[1, 64\\]");
    EXPECT_DEATH(RingTarget(service, {0, 8}, 1),
                 "RingTarget: ring position 8 outside \\[0, 8\\)");
    EXPECT_DEATH(PoolTarget(nullptr), "PoolTarget: null pool");

    EXPECT_DEATH(FederationTarget(nullptr),
                 "FederationTarget: null dispatcher");
    sim::Simulator sim;
    FederatedDispatcher podless(&sim, {});
    EXPECT_DEATH(FederationTarget(&podless),
                 "FederationTarget: the dispatcher fronts no pod");

    Rng rng(1);
    EXPECT_DEATH(HostFront(nullptr, 0, rng), "HostFront: null service");
    EXPECT_DEATH(HostFront(service, -1, rng),
                 "HostFront: ring position -1 outside \\[0, 8\\)");
    rank::Model::Config tiny;
    tiny.expression_count = 10;
    tiny.tree_count = 10;
    const auto model = rank::Model::Generate(0, 1, tiny);
    EXPECT_DEATH(SoftwareServer(nullptr, model.get(), rng),
                 "SoftwareServer: null simulator");
    EXPECT_DEATH(SoftwareServer(&sim, nullptr, rng),
                 "SoftwareServer: null model");
}

TEST(LoadGeneratorDeathTest, ClosedLoopsRejectMisuse) {
    const LoadTarget one_client{.clients = 1};
    EXPECT_DEATH(RunPerThreadLoop(LoadTarget{}, 5),
                 "RunPerThreadLoop: clients 0 <= 0");
    EXPECT_DEATH(RunPerThreadLoop(one_client, 0),
                 "RunPerThreadLoop: documents 0 <= 0");
    EXPECT_DEATH(RunSharedLoop(one_client, -2, 5),
                 "RunSharedLoop: clients -2 <= 0");
    EXPECT_DEATH(RunSharedLoop(one_client, 4, 0),
                 "RunSharedLoop: documents 0 <= 0");
}

TEST(LoadGeneratorDeathTest, OpenLoopRejectsMisuse) {
    const std::vector<LoadTarget> one(1);
    const OpenLoop ok{.rate = 1'000.0, .duration = Milliseconds(1)};
    EXPECT_DEATH(RunOpenLoop(one, {.rate = 0.0, .duration = Milliseconds(1)},
                             nullptr),
                 "RunOpenLoop: rate 0 <= 0");
    EXPECT_DEATH(RunOpenLoop(one, {.rate = 1'000.0, .duration = 0}, nullptr),
                 "RunOpenLoop: duration 0 ps <= 0");
    EXPECT_DEATH(RunOpenLoop({}, ok, nullptr), "RunOpenLoop: no targets");
    EXPECT_DEATH(RunOpenLoop(std::vector<LoadTarget>(2), ok, nullptr),
                 "RunOpenLoop: a fixed beat drives one target, not 2");
    OpenLoop late = ok;
    late.phase_offsets = {Milliseconds(2)};
    EXPECT_DEATH(RunOpenLoop(one, late, nullptr),
                 "RunOpenLoop: phase offset 2000000000 ps outside "
                 "\\[0, 1000000000\\] ps");
    OpenLoop descending = ok;
    descending.phase_offsets = {Microseconds(500), Microseconds(200)};
    EXPECT_DEATH(RunOpenLoop(one, descending, nullptr),
                 "RunOpenLoop: phase offset 200000000 ps outside "
                 "\\[500000000, 1000000000\\] ps");
}

}  // namespace
}  // namespace catapult::service
