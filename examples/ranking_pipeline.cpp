// Ranking pipeline under load: all eight servers of the ring inject
// documents, as in the paper's ring-level experiments (§5). Prints
// throughput, the latency distribution, per-stage counters, and a
// Flight Data Recorder excerpt from the head FPGA.

#include <cstdio>

#include "service/load_generator.h"
#include "service/stage_role.h"
#include "service/testbed.h"

using namespace catapult;

int main() {
    service::PodTestbed::Config config;
    config.fabric.device.configure_time = Milliseconds(20);
    service::PodTestbed bed(config);
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }

    // All eight ring servers inject in closed loop with 8 threads each,
    // enough to saturate the FE-bound pipeline (Fig. 9/12).
    const service::LoadResult result = service::RunPerThreadLoop(
        service::RingTarget(&bed.service(), {0, 1, 2, 3, 4, 5, 6, 7}, 8), 150);

    std::printf("completed %llu documents, %llu timeouts\n",
                static_cast<unsigned long long>(result.completed),
                static_cast<unsigned long long>(result.timeouts));
    std::printf("aggregate throughput : %10.0f docs/s\n",
                result.ThroughputPerSecond());
    std::printf("latency mean / p95 / p99 : %.1f / %.1f / %.1f us\n",
                result.latency_us.mean(), result.latency_us.P95(),
                result.latency_us.P99());

    std::printf("\nper-stage role counters:\n");
    for (int i = 0; i < service::RankingService::kRingLength; ++i) {
        const auto& role = bed.service().role(i);
        std::printf("  ring[%d] %-7s processed=%-7llu forwarded=%-7llu "
                    "reloads=%llu\n",
                    i, ToString(role.stage()),
                    static_cast<unsigned long long>(role.counters().processed),
                    static_cast<unsigned long long>(role.counters().forwarded),
                    static_cast<unsigned long long>(role.counters().reloads));
    }

    // The Flight Data Recorder on the head FPGA (§3.6): the most recent
    // 512 router events, including trace ids that can be replayed.
    const auto& fdr = bed.fabric().shell(bed.service().RingNode(0)).fdr();
    const auto records = fdr.StreamOut();
    std::printf("\nFDR at head FPGA: %llu events total, window holds %zu\n",
                static_cast<unsigned long long>(fdr.total_recorded()),
                records.size());
    std::printf("last 5 records (trace_id, type, bytes, in->out):\n");
    for (std::size_t i = records.size() >= 5 ? records.size() - 5 : 0;
         i < records.size(); ++i) {
        const auto& r = records[i];
        std::printf("  t=%-12s trace=%-8llu %-16s %6lld B  %s->%s\n",
                    FormatTime(r.timestamp).c_str(),
                    static_cast<unsigned long long>(r.trace_id),
                    ToString(r.type), static_cast<long long>(r.size),
                    ToString(r.ingress), ToString(r.egress));
    }
    return 0;
}
