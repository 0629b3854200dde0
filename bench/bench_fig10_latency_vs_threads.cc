// Figure 10: user-level latency vs number of injecting CPU threads.
//
// "Figure 10 plots the normalized latency for the user-level software
// (i.e., between the time the ranking application injects a document
// and when the response is received) as thread count increases" —
// latency grows with queueing as the pipeline saturates.

#include <cstdio>

#include "bench_util.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Figure 10: latency vs #CPU threads injecting",
                  "Putnam et al., ISCA 2014, Fig. 10 / §5 ring-level");

    service::PodTestbed bed(bench::RingBenchConfig());
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    double one_thread_latency = 0.0;
    std::printf("\nMean user-level latency normalized to 1 thread:\n");
    bench::Row({"threads", "norm_latency", "mean_us", "p95_us"});
    for (const int threads : {1, 2, 4, 8, 12, 16, 24, 32}) {
        const auto result = service::RunPerThreadLoop(
            service::RingTarget(&bed.service(), {0}, threads),
            400 / threads + 50);
        const double mean = result.latency_us.mean();
        if (threads == 1) one_thread_latency = mean;
        bench::Row({bench::FmtInt(threads),
                    bench::Fmt(mean / one_thread_latency),
                    bench::Fmt(mean, 1),
                    bench::Fmt(result.latency_us.P95(), 1)});
    }
    std::printf(
        "\nShape check [paper: latency grows ~linearly with threads beyond "
        "saturation due to queuing]\n");
    return 0;
}
