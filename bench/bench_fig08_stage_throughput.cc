// Figure 8: per-stage injection throughput in PCIe-only and SL3
// loopback modes, single- and multi-threaded.
//
// "Figure 8 reports the average throughput of each pipeline stage
// (normalized to the slowest stage) in two loopback modes ... Although
// the stages devoted to scoring achieve very high processing rates, the
// pipeline is limited by the throughput of FE."

#include <cstdio>

#include "bench_util.h"
#include "service/stage_loopback.h"

using namespace catapult;

namespace {

double RunLoopback(rank::PipelineStage stage, bool via_sl3, int threads) {
    service::StageLoopback::Config config;
    config.stage = stage;
    config.via_sl3 = via_sl3;
    config.threads = threads;
    config.documents_per_thread = 120;
    service::StageLoopback rig(config);
    return rig.Run().ThroughputPerSecond();
}

}  // namespace

int main() {
    bench::Banner("Figure 8: per-stage injection throughput",
                  "Putnam et al., ISCA 2014, Fig. 8 / §5 node-level");

    const rank::PipelineStage stages[] = {
        rank::PipelineStage::kFeatureExtraction, rank::PipelineStage::kFfe0,
        rank::PipelineStage::kFfe1, rank::PipelineStage::kCompression,
        rank::PipelineStage::kScoring0, rank::PipelineStage::kScoring1,
        rank::PipelineStage::kScoring2, rank::PipelineStage::kSpare};

    // Normalization: single-threaded SL3 throughput of the slowest
    // stage (FE), per the figure's y-axis.
    const double fe_1thread_sl3 =
        RunLoopback(rank::PipelineStage::kFeatureExtraction, true, 1);

    std::printf("\nThroughput normalized to FE single-thread SL3 (= 1.0):\n");
    bench::Row({"stage", "1t_pcie", "1t_sl3", "12t_pcie", "12t_sl3"});
    double fe_12t = 0, min_other_12t = 1e300;
    for (const auto stage : stages) {
        const double p1 = RunLoopback(stage, false, 1);
        const double s1 = RunLoopback(stage, true, 1);
        const double p12 = RunLoopback(stage, false, 12);
        const double s12 = RunLoopback(stage, true, 12);
        bench::Row({ToString(stage), bench::Fmt(p1 / fe_1thread_sl3),
                    bench::Fmt(s1 / fe_1thread_sl3),
                    bench::Fmt(p12 / fe_1thread_sl3),
                    bench::Fmt(s12 / fe_1thread_sl3)});
        if (stage == rank::PipelineStage::kFeatureExtraction) {
            fe_12t = s12;
        } else {
            min_other_12t = std::min(min_other_12t, s12);
        }
    }
    std::printf(
        "\nShape check: FE saturated throughput %.2fx the next-slowest stage "
        "[paper: FE is the pipeline bottleneck -> expect < 1.0]\n",
        fe_12t / min_other_12t);
    return 0;
}
