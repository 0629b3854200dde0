// Pool scale-out: completed-docs/sim-second vs ring count, 1..6 rings
// on one pod.
//
// §2's elasticity claim — "services allocate groups of FPGAs" on the
// 6x8 torus — at service level: the PodScheduler places 1..6 ranking
// rings (one per torus row), the ServicePool shards a fixed offered
// load across them, and throughput should rise with every ring the
// scheduler grants. The harness fails (exit 1) if a 3-ring pool does
// not strictly beat one ring, so run_all catches scale-out regressions.

#include <cstdio>

#include "bench_util.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Pool scaling: throughput vs ring count (1..6 rings)",
                  "Putnam et al., ISCA 2014, §2 elasticity / §4.2 Service "
                  "Manager");

    // Offered load saturating several rings: ~16 outstanding docs per
    // ring at full pod width (single-ring saturation is ~12, Fig. 9).
    constexpr int kConcurrency = 96;
    constexpr int kDocuments = 1'500;

    std::printf("\nFixed offered load: %d outstanding documents, %d total\n",
                kConcurrency, kDocuments);
    bench::Row({"rings", "docs_per_s", "speedup", "mean_us", "p99_us",
                "timeouts"});

    double one_ring = 0.0;
    double three_ring = 0.0;
    for (int rings = 1; rings <= 6; ++rings) {
        service::PodTestbed::Config config = bench::RingBenchConfig();
        config.ring_count = rings;
        config.policy = service::DispatchPolicy::kLeastInFlight;
        service::PodTestbed bed(config);
        if (!bed.DeployAndSettle()) {
            std::printf("deployment failed at %d rings\n", rings);
            return 1;
        }

        const service::LoadResult result = service::RunSharedLoop(
            service::PoolTarget(&bed.pool()), kConcurrency, kDocuments);
        const double tput = result.ThroughputPerSecond();
        if (rings == 1) one_ring = tput;
        if (rings == 3) three_ring = tput;
        bench::Row({bench::FmtInt(rings), bench::Fmt(tput, 0),
                    bench::Fmt(one_ring > 0 ? tput / one_ring : 0.0),
                    bench::Fmt(result.latency_us.mean(), 1),
                    bench::Fmt(result.latency_us.P99(), 1),
                    bench::FmtInt(static_cast<long long>(result.timeouts))});
    }

    std::printf("\nShape check [scheduler-placed rings absorb a fixed "
                "offered load: throughput rises with ring count]\n");
    if (three_ring <= one_ring) {
        std::printf("FAIL: 3-ring pool (%.0f docs/s) does not beat one ring "
                    "(%.0f docs/s)\n", three_ring, one_ring);
        return 1;
    }
    std::printf("PASS: 3 rings sustain %.2fx one ring\n",
                three_ring / one_ring);
    return 0;
}
