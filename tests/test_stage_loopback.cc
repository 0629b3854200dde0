// Tests for the Figure 8 stage-loopback rig.

#include <gtest/gtest.h>

#include "service/stage_loopback.h"
#include "shell/packet.h"

namespace catapult::service {
namespace {

StageLoopback::Config SmallConfig(rank::PipelineStage stage, bool via_sl3,
                                  int threads) {
    StageLoopback::Config config;
    config.stage = stage;
    config.via_sl3 = via_sl3;
    config.threads = threads;
    config.documents_per_thread = 60;
    config.model.expression_count = 300;
    config.model.tree_count = 900;
    return config;
}

TEST(StageLoopback, CompletesAllDocuments) {
    const std::ptrdiff_t packets = shell::LivePackets();
    StageLoopback rig(SmallConfig(rank::PipelineStage::kFeatureExtraction,
                                  false, 2));
    const auto result = rig.Run();
    EXPECT_EQ(result.completed, 120u);
    EXPECT_GT(result.ThroughputPerSecond(), 0.0);
    // Every request and response went back to the packet pool.
    EXPECT_EQ(shell::LivePackets(), packets);
}

TEST(StageLoopback, MultithreadingRaisesThroughput) {
    // Figure 8: 12-thread injection beats 1-thread on every stage.
    const auto one = StageLoopback(SmallConfig(
        rank::PipelineStage::kFeatureExtraction, false, 1)).Run();
    const auto twelve = StageLoopback(SmallConfig(
        rank::PipelineStage::kFeatureExtraction, false, 12)).Run();
    EXPECT_GT(twelve.ThroughputPerSecond(), one.ThroughputPerSecond() * 1.5);
}

TEST(StageLoopback, Sl3LoopbackAddsLatency) {
    const std::ptrdiff_t packets = shell::LivePackets();
    const auto pcie = StageLoopback(SmallConfig(
        rank::PipelineStage::kCompression, false, 1)).Run();
    const auto sl3 = StageLoopback(SmallConfig(
        rank::PipelineStage::kCompression, true, 1)).Run();
    EXPECT_GT(sl3.latency_us.mean(), pcie.latency_us.mean());
    // Single-threaded throughput drops when round-trip latency grows.
    EXPECT_LT(sl3.ThroughputPerSecond(), pcie.ThroughputPerSecond());
    // Packets crossing the SL3 loop went back to the pool too.
    EXPECT_EQ(shell::LivePackets(), packets);
}

TEST(StageLoopback, FeatureExtractionIsSlowestStage) {
    // Figure 8 / §5: "the pipeline is limited by the throughput of FE."
    double fe_rate = 0.0;
    double min_other = 1e18;
    for (int s = 0; s < rank::kPipelineStageCount; ++s) {
        const auto stage = static_cast<rank::PipelineStage>(s);
        if (stage == rank::PipelineStage::kSpare) continue;
        const auto result =
            StageLoopback(SmallConfig(stage, false, 12)).Run();
        if (stage == rank::PipelineStage::kFeatureExtraction) {
            fe_rate = result.ThroughputPerSecond();
        } else {
            min_other = std::min(min_other, result.ThroughputPerSecond());
        }
    }
    EXPECT_LT(fe_rate, min_other);
}

}  // namespace
}  // namespace catapult::service
