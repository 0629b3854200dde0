// Pod-level orchestration walkthrough (§2, §4.2): the PodScheduler
// places three ranking rings onto the torus, a ServicePool shards
// query traffic across them through the QueryDispatcher, one ring's
// stage node dies mid-service, the dispatcher drains it — traffic
// redirects to the survivors — while the spare rotates in, and the
// recovered ring rejoins rotation.

#include <cstdio>

#include "rank/document_generator.h"
#include "service/load_generator.h"
#include "service/testbed.h"

using namespace catapult;

int main() {
    service::PodTestbed::Config config;
    config.fabric.device.configure_time = Milliseconds(20);
    config.host.crash_reboot_delay = Milliseconds(200);
    config.host.soft_reboot_duration = Seconds(2);
    config.ring_count = 3;
    config.policy = service::DispatchPolicy::kLeastInFlight;
    service::PodTestbed bed(config);
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    // --- Scheduler-granted placements ---------------------------------
    std::printf("[t=%s] pool deployed: %d rings, policy %s\n",
                FormatTime(bed.simulator().Now()).c_str(),
                bed.pool().ring_count(),
                ToString(bed.pool().dispatcher().policy()));
    for (int k = 0; k < bed.pool().ring_count(); ++k) {
        const auto& placement = bed.pool().placement(k);
        std::printf("  ring %d -> torus row %d (cols %d..%d), head node %d\n",
                    k, placement.row, placement.head_col,
                    placement.head_col + placement.length - 1,
                    bed.pool().ring(k).RingNode(0));
    }
    std::printf("  scheduler: %d/%d nodes granted\n",
                bed.scheduler().occupied_nodes(), bed.scheduler().node_count());

    // --- Sharded load across the pool ---------------------------------
    const service::LoadResult result =
        service::RunSharedLoop(service::PoolTarget(&bed.pool()), 24, 240);
    std::printf("\n[t=%s] %llu documents scored across the pool:\n",
                FormatTime(bed.simulator().Now()).c_str(),
                static_cast<unsigned long long>(result.completed));
    for (int k = 0; k < bed.pool().ring_count(); ++k) {
        std::printf("  ring %d completed %llu\n", k,
                    static_cast<unsigned long long>(
                        bed.pool().ring(k).counters().completed));
    }

    // --- Ring failure: drain, redirect, rotate the spare in -----------
    const int failed_ring = 1;
    const int failed_position = 2;  // FFE1
    const int failed_node = bed.pool().ring(failed_ring).RingNode(failed_position);
    std::printf("\n[t=%s] node %d (ring %d, %s) crashes; draining ring %d\n",
                FormatTime(bed.simulator().Now()).c_str(), failed_node,
                failed_ring,
                ToString(bed.pool().ring(failed_ring).StageAt(failed_position)),
                failed_ring);
    bed.host(failed_node).CrashAndReboot("simulated production incident");

    bool recovered = false;
    bed.pool().RecoverRing(failed_ring, failed_position,
                           [&](bool ok) { recovered = ok; });

    // Traffic keeps flowing while the spare rotation runs.
    rank::DocumentGenerator generator(7);
    int during = 0;
    for (int i = 0; i < 24; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        bed.pool().Inject(i % 24, request,
                          [&](const service::ScoreResult& r) {
                              if (r.ok) ++during;
                          });
    }
    bed.simulator().Run();
    std::printf("[t=%s] recovery %s; %d/24 documents completed on the "
                "surviving rings (%llu redirected)\n",
                FormatTime(bed.simulator().Now()).c_str(),
                recovered ? "complete" : "FAILED", during,
                static_cast<unsigned long long>(
                    bed.pool().counters().redirected));

    // --- Recovered ring back in rotation ------------------------------
    const auto totals = bed.pool().AggregateRingCounters();
    std::printf("\n[t=%s] pool totals: injected=%llu completed=%llu "
                "timeouts=%llu\n",
                FormatTime(bed.simulator().Now()).c_str(),
                static_cast<unsigned long long>(totals.injected),
                static_cast<unsigned long long>(totals.completed),
                static_cast<unsigned long long>(totals.timeouts));
    return recovered && during == 24 ? 0 : 1;
}
