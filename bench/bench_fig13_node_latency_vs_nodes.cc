// Figure 13: per-node latency (head vs tail injector) vs number of
// injecting nodes.
//
// "Figure 13 shows the latencies observed by two different nodes
// injecting requests from the head (FE) and tail (Spare) of the
// pipeline. Because the Spare FPGA must forward its requests along a
// channel shared with responses, it perceives a slightly higher but
// negligible latency increase over FE at maximum throughput."

#include <cstdio>

#include "bench_util.h"
#include "rank/document_generator.h"
#include "service/load_generator.h"

using namespace catapult;

int main() {
    bench::Banner("Figure 13: node latency vs #nodes injecting (FE vs Spare)",
                  "Putnam et al., ISCA 2014, Fig. 13 / §5 ring-level");

    service::PodTestbed bed(bench::RingBenchConfig());
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }
    rank::DocumentGenerator generator(0xF16'13);

    // Per-node latency is measured by injecting probe documents from
    // the head (FE) and tail (Spare) while background nodes keep the
    // pipeline loaded in closed loop.
    std::printf("\nLatency normalized to FE@1 node:\n");
    bench::Row({"nodes", "fe_latency", "spare_latency", "ratio"});
    double fe_base = 0.0;
    for (int nodes = 1; nodes <= 8; ++nodes) {
        // Background load: `nodes` injectors, one thread each.
        std::vector<int> ring_indices;
        for (int n = 0; n < nodes; ++n) ring_indices.push_back(n);
        service::RunPerThreadLoop(
            service::RingTarget(&bed.service(), ring_indices, 1), 120);

        // Re-partition the drivers: slot 0 for the probe thread, slot 1
        // for the background keep-alive injections below.
        for (int n = 0; n < 8; ++n) {
            bed.service().host(n)->driver().AssignThreads(2);
        }

        // Probe both ends against the drained pipeline + repeat with
        // fresh background each probe for steady-state measurements.
        auto probe = [&](int ring_index) {
            SampleStat latency;
            for (int i = 0; i < 40; ++i) {
                // Keep background in flight.
                for (int n = 0; n < nodes; ++n) {
                    rank::CompressedRequest bg = generator.WithTargetSize(6'500);
                    bg.query.model_id = 0;
                    bed.service().Inject(n, 1, bg,
                                         [](const service::ScoreResult&) {});
                }
                rank::CompressedRequest request = generator.WithTargetSize(6'500);
                request.query.model_id = 0;
                bed.service().Inject(ring_index, 0, request,
                                     [&](const service::ScoreResult& r) {
                                         if (r.ok) {
                                             latency.Add(ToMicroseconds(r.latency));
                                         }
                                     });
                bed.simulator().Run();
            }
            return latency.mean();
        };
        const double fe = probe(0);
        const double spare = probe(7);
        if (nodes == 1) fe_base = fe;
        bench::Row({bench::FmtInt(nodes), bench::Fmt(fe / fe_base),
                    bench::Fmt(spare / fe_base), bench::Fmt(spare / fe)});
    }
    std::printf(
        "\nShape check [paper: Spare slightly above FE, both rising "
        "gently with contention]\n");
    return 0;
}
