// Figure 12: aggregate throughput vs number of injecting nodes.
//
// "Figure 12 shows the aggregate pipeline throughput as we increase the
// total number of injecting nodes. When all eight servers are
// injecting, the peak pipeline saturation is reached (equal to the rate
// at which FE can process scoring requests)." One thread per node.

#include <cstdio>

#include "bench_util.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Figure 12: aggregate throughput vs #nodes injecting",
                  "Putnam et al., ISCA 2014, Fig. 12 / §5 ring-level");

    service::PodTestbed bed(bench::RingBenchConfig());
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    double one_node = 0.0;
    std::printf("\nAggregate throughput normalized to 1 node (1 thread each):\n");
    bench::Row({"nodes", "norm_tput", "docs_per_s"});
    for (int nodes = 1; nodes <= 8; ++nodes) {
        std::vector<int> ring_indices;
        for (int n = 0; n < nodes; ++n) ring_indices.push_back(n);
        const double tput =
            service::RunPerThreadLoop(
                service::RingTarget(&bed.service(), ring_indices, 1), 250)
                .ThroughputPerSecond();
        if (nodes == 1) one_node = tput;
        bench::Row({bench::FmtInt(nodes), bench::Fmt(tput / one_node),
                    bench::Fmt(tput, 0)});
    }
    std::printf(
        "\nShape check [paper: near-linear scaling to ~6x at 8 nodes]\n");
    return 0;
}
