// Ablation: slot-count sensitivity of the DMA interface (§3.1).
//
// The paper picked 64 slots of 64 KB: one slot per hardware thread on
// the 2-socket 12-core servers with headroom, and a slot size matching
// the 64 KB truncation bound (§4.1). This ablation sweeps the number of
// concurrently used slots (injecting threads) and reports achieved
// throughput and latency, showing where extra outstanding requests stop
// paying.

#include <cstdio>

#include "bench_util.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Ablation: DMA slot count / outstanding request depth",
                  "Putnam et al., ISCA 2014, §3.1 (64 slots x 64 KB)");

    service::PodTestbed bed(bench::RingBenchConfig());
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    std::printf("\nAll 8 nodes inject; threads (slots in use) per node vary:\n");
    bench::Row({"slots/node", "tput_docs_s", "mean_us", "p95_us"});
    for (const int threads : {1, 2, 4, 8, 16, 32, 64}) {
        const auto result = service::RunPerThreadLoop(
            service::RingTarget(&bed.service(), {0, 1, 2, 3, 4, 5, 6, 7},
                                threads),
            std::max(20, 240 / threads));
        bench::Row({bench::FmtInt(threads),
                    bench::Fmt(result.ThroughputPerSecond(), 0),
                    bench::Fmt(result.latency_us.mean(), 1),
                    bench::Fmt(result.latency_us.P95(), 1)});
    }
    std::printf(
        "\nTakeaway: throughput saturates at the FE-bound pipeline rate "
        "well below 64 outstanding slots per node; the extra slots exist "
        "for thread-exclusive ownership (§3.1 thread safety), not for "
        "queue depth.\n");
    return 0;
}
