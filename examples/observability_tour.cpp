// Observability plane walkthrough: the federation-wide metrics
// registry, distributed query tracing and round-schedule profiling, end
// to end on a sharded 2-pod federation that loses a pod mid-run and
// gets it back.
//
// The run drives session scatter-gather traffic through the front door
// while pod 0 suffers a power-domain blackout and is later field
// serviced and re-admitted. Every hop of every query — session instant,
// gather span, dispatcher query span with inject/failover instants,
// pod-side document spans, per-stage service intervals, DMA completion
// instants and the victim's Flight Data Recorder postmortem — lands in
// per-shard trace rings stitched into one Chrome trace-event timeline
// on simulated timestamps. The merged metric registry snapshots on a
// simulated-time cadence and exports JSON + Prometheus text.
//
// Artifacts (written to argv[1], default "."):
//   obs_trace.json     Chrome trace-event timeline (chrome://tracing)
//   obs_metrics.json   merged registry, full view incl. volatile metrics
//   obs_metrics.prom   Prometheus text exposition
//
// tools/check_obs_schema.py validates the two JSON artifacts in CI.

#include <cstdio>
#include <fstream>
#include <string>

#include "rank/document_generator.h"
#include "service/federation_testbed.h"

using namespace catapult;

namespace {

bool WriteFile(const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
    return static_cast<bool>(out);
}

std::vector<rank::CompressedRequest> MakeDocs(rank::DocumentGenerator& gen,
                                              int count) {
    std::vector<rank::CompressedRequest> docs;
    docs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        rank::CompressedRequest request = gen.Next();
        request.query.model_id = 0;
        docs.push_back(std::move(request));
    }
    return docs;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_dir = argc > 1 ? argv[1] : ".";

    service::FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 2;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    // Sharded: each pod's stack on its own simulator shard, so every
    // coordinator <-> pod hop pays its latency and the group's round
    // profile lands in the registry.
    config.sharding.enabled = true;
    // The whole plane on: per-shard registries and trace rings, merged
    // at epoch barriers, snapshotted every 10 ms of simulated time.
    config.observability.enabled = true;
    config.observability.tracing = true;
    config.observability.hub.cadence = Milliseconds(10);
    service::FederationTestbed bed(config);
    if (!bed.DeployAndSettle()) {
        std::printf("deployment failed\n");
        return 1;
    }
    obs::ObservabilityPlane& plane = *bed.observability();
    std::printf("[t=%s] federation up: %d pods, %d observability shards "
                "(1 coordinator + %d pod), tracing %s\n",
                FormatTime(bed.Now()).c_str(), bed.pod_count(),
                plane.shard_count(), plane.shard_count() - 1,
                plane.config().tracing ? "on" : "off");

    // --- Traffic through the front door, blackout, re-admission -------
    service::SessionFrontEnd& door = bed.front_end();
    const std::uint64_t session = door.OpenSession();
    const Time blackout_at = bed.Now() + Milliseconds(30);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    bool reattach_ok = false;
    bed.simulator().ScheduleAt(blackout_at + Milliseconds(40), [&] {
        bed.ReattachPod(0, [&](bool ok) { reattach_ok = ok; });
    });
    std::printf("[t=%s] pod 0 blackout scheduled at t=%s, re-admission "
                "40 ms later; driving session traffic across the incident\n",
                FormatTime(bed.Now()).c_str(),
                FormatTime(blackout_at).c_str());

    rank::DocumentGenerator generator(13);
    int delivered = 0;
    for (int i = 0; i < 120; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(700) * i + Milliseconds(1), [&] {
                door.Submit(
                    session, rank::Query{}, MakeDocs(generator, 8), 4,
                    /*budget=*/0,
                    [&](const service::ScatterGatherDispatcher::GatherResult&) {
                        ++delivered;
                    });
            });
    }
    bed.Run();
    door.CloseSession(session);

    const auto& counters = bed.dispatcher().counters();
    std::printf("[t=%s] run over: %d gathers delivered, failovers=%llu, "
                "readmissions=%llu, pod 0 %s\n",
                FormatTime(bed.Now()).c_str(), delivered,
                static_cast<unsigned long long>(counters.failovers),
                static_cast<unsigned long long>(counters.readmissions),
                reattach_ok ? "back in rotation" : "NOT re-admitted");

    // --- Export the three artifacts ------------------------------------
    const std::string trace_json = plane.TraceJson();
    const std::string metrics_json = plane.MetricsJson(true);
    const std::string prom = plane.PrometheusText();
    if (!WriteFile(out_dir + "/obs_trace.json", trace_json) ||
        !WriteFile(out_dir + "/obs_metrics.json", metrics_json) ||
        !WriteFile(out_dir + "/obs_metrics.prom", prom)) {
        std::printf("FAILURE: could not write artifacts to %s\n",
                    out_dir.c_str());
        return 1;
    }
    std::uint64_t spans_recorded = 0;
    for (int s = 0; s < plane.shard_count(); ++s) {
        spans_recorded += plane.shard(s)->tracer.total_recorded();
    }
    std::printf("\n[t=%s] exported to %s:\n", FormatTime(bed.Now()).c_str(),
                out_dir.c_str());
    std::printf("  obs_trace.json    %zu bytes, %llu records across %d "
                "shard rings\n",
                trace_json.size(),
                static_cast<unsigned long long>(spans_recorded),
                plane.shard_count());
    std::printf("  obs_metrics.json  %zu bytes\n", metrics_json.size());
    std::printf("  obs_metrics.prom  %zu bytes\n", prom.size());
    std::printf("  hub snapshots     %llu taken at %s cadence\n",
                static_cast<unsigned long long>(
                    plane.hub().snapshots_taken()),
                FormatTime(config.observability.hub.cadence).c_str());

    // The scenario must have produced the whole story: delivered
    // gathers, a failover, a readmitted pod, a postmortem in the
    // timeline, and cadence snapshots.
    const bool ok = delivered > 0 && counters.failovers > 0 && reattach_ok &&
                    plane.hub().snapshots_taken() > 0 &&
                    trace_json.find("\"gather\"") != std::string::npos &&
                    trace_json.find("\"failover\"") != std::string::npos &&
                    trace_json.find("\"fdr\"") != std::string::npos;
    std::printf("\n%s: blackout + re-admission fully observable — load the "
                "trace in chrome://tracing\n",
                ok ? "SUCCESS" : "FAILURE");
    return ok ? 0 : 1;
}
