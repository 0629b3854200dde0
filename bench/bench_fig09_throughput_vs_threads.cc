// Figure 9: pipeline throughput vs number of injecting CPU threads
// (single injecting node).
//
// "Figure 9 shows the normalized pipeline throughput when a single node
// (in this case FE) injects documents with a varying number of CPU
// threads ... we achieve full pipeline saturation at around 12 CPU
// threads."

#include <cstdio>

#include "bench_util.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Figure 9: throughput vs #CPU threads injecting",
                  "Putnam et al., ISCA 2014, Fig. 9 / §5 ring-level");

    service::PodTestbed bed(bench::RingBenchConfig());
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    double one_thread = 0.0;
    std::printf("\nThroughput normalized to 1 thread:\n");
    bench::Row({"threads", "norm_tput", "docs_per_s"});
    for (const int threads : {1, 2, 4, 8, 12, 16, 24, 32}) {
        const double tput =
            service::RunPerThreadLoop(
                service::RingTarget(&bed.service(), {0}, threads),
                400 / threads + 50)
                .ThroughputPerSecond();
        if (threads == 1) one_thread = tput;
        bench::Row({bench::FmtInt(threads), bench::Fmt(tput / one_thread),
                    bench::Fmt(tput, 0)});
    }
    std::printf(
        "\nShape check [paper: saturation ~12 threads at ~5-6x 1-thread]\n");
    return 0;
}
