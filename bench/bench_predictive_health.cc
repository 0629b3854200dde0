// Predictive health plane: degradation-ramp shed vs reactive-only
// dispatch, and live pod re-admission.
//
// Two claims, both gated (exit 1 on violation):
//
//  1. Shed-before-failure: a 3-pod federation under paced open-loop
//     load suffers a staged degradation of pod 0 — a thermal/link-flap
//     ramp marching across both of its rings, the §3.5 "slow death"
//     (flapped ring links kill the documents crossing them, so the pod
//     accepts queries and times them out while its hosts keep
//     answering heartbeats). The federation is lossless either way —
//     every doomed query retries onto a survivor — so the damage is
//     *lateness*, measured as §5-style goodput: completions within a
//     2 ms latency SLO. The predictive config (score-weighted routing
//     + shed floor) must retain at least as much incident-phase SLO
//     goodput as the reactive-only baseline (PR 4 behavior:
//     least-in-flight + breaker), with a lower incident p99, at least
//     one shed, and zero lost accepted queries.
//
//  2. Re-admission: the same federation under the same paced load
//     loses pod 0 to a blackout, then gets it back mid-run via
//     FederationTestbed::ReattachPod (field service + redeploy +
//     dispatcher hot-attach with warm-up ramp). After the warm-up the
//     federation must be back within 10% of its pre-failure
//     throughput, with zero lost accepted queries and the re-admitted
//     pod demonstrably serving again.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "service/load_generator.h"

using namespace catapult;

namespace {

constexpr int kPods = 3;
constexpr int kRingsPerPod = 2;

service::FederationTestbed::Config BaseConfig(bool predictive) {
    service::FederationTestbed::Config config;
    config.pod_count = kPods;
    config.pod.ring_count = kRingsPerPod;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    // Fast failure handling so whole-pod loss concludes within the run.
    config.pod.host.soft_reboot_duration = Milliseconds(30);
    config.pod.host.hard_reboot_duration = Milliseconds(40);
    config.pod.host.crash_reboot_delay = Milliseconds(10);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(30);
    config.pod.predictive = predictive;
    config.dispatcher.policy = predictive
                                   ? service::FederationPolicy::kScoreWeighted
                                   : service::FederationPolicy::kLeastInFlight;
    return config;
}

// --- Part 1: degradation ramp, predictive vs reactive ---------------

constexpr Time kRampStart = Milliseconds(60);
constexpr Time kIncidentEnd = Milliseconds(310);
constexpr Time kLoadEnd = Milliseconds(440);
constexpr Time kSlo = Milliseconds(2);

struct RampResult {
    service::LoadResult load;  // phases: pre/incident/recovery
    std::uint64_t lost = 0;
    std::uint64_t failovers = 0;
    std::uint64_t sheds = 0;
    std::uint64_t pod0_shed_queries = 0;

    const service::LoadPhase& Incident() const {
        return load.phases[1];
    }
};

RampResult RunRamp(bool predictive) {
    auto config = BaseConfig(predictive);
    service::FederationTestbed bed(config);
    RampResult result;
    if (!bed.DeployAndSettle()) return result;

    // The §3.5 slow death: a link-flap storm (failing cabling) marches
    // across both of pod 0's rings for ~150 ms, with a thermal event
    // on each hit node. A flapped ring link kills every document
    // crossing it, so pod 0 keeps accepting and timing out — while its
    // hosts answer every heartbeat, which is exactly the episode the
    // reactive plane cannot see coming and the trend model can.
    // Intermittent, not total: 14 ms flaps on a 12 ms stagger leave
    // each ring passing roughly half its documents, so pod 0 mixes
    // successes in with the failures — the streak-based breaker never
    // holds it out for long, which is precisely the §3.5 failure shape
    // a consecutive-failure counter is blind to and a windowed trend
    // is not.
    std::vector<int> ramp_nodes;
    for (int step = 0; step < 10; ++step) {
        ramp_nodes.push_back(
            bed.pod(0).pool().ring(0).RingNode(1 + step % 5));
        ramp_nodes.push_back(
            bed.pod(0).pool().ring(1).RingNode(2 + step % 5));
    }
    const Time load_start = bed.simulator().Now();
    bed.pod(0).failure_injector().ScheduleDegradationRamp(
        ramp_nodes, load_start + kRampStart, Milliseconds(12),
        /*flap_duration=*/Milliseconds(14));

    result.load = service::RunOpenLoop(
        {service::FederationTarget(&bed.dispatcher())},
        {.rate = 100'000.0,
         .duration = kLoadEnd,
         .phase_offsets = {kRampStart, kIncidentEnd},
         .slo = kSlo},
        /*poisson=*/nullptr);

    result.lost = bed.dispatcher().counters().lost;
    result.failovers = bed.dispatcher().counters().failovers;
    result.sheds = bed.dispatcher().counters().sheds;
    result.pod0_shed_queries = bed.dispatcher().pod_stats(0).shed_queries;
    return result;
}

// --- Part 2: blackout + live re-admission ---------------------------

constexpr Time kFaultAt = Milliseconds(60);
constexpr Time kReattachAt = Milliseconds(250);
constexpr Time kSettledAt = Milliseconds(380);
constexpr Time kReadmitDuration = Milliseconds(470);

struct ReadmitResult {
    service::LoadResult load;
    bool reattach_ok = false;
    std::uint64_t lost = 0;
    std::uint64_t readmitted = 0;
    std::uint64_t pod0_served_after_readmit = 0;
    int pod0_dead_nodes_after = 0;
};

ReadmitResult RunReadmission() {
    auto config = BaseConfig(/*predictive=*/true);
    config.dispatcher.readmission_warmup = Milliseconds(40);
    service::FederationTestbed bed(config);
    ReadmitResult result;
    if (!bed.DeployAndSettle()) return result;

    const Time load_start = bed.simulator().Now();
    bed.pod(0).failure_injector().SchedulePodBlackout(load_start + kFaultAt);
    std::uint64_t pod0_before_readmit = 0;
    bed.simulator().ScheduleAt(load_start + kReattachAt, [&] {
        pod0_before_readmit = bed.pod(0).pool().counters().dispatched;
        bed.ReattachPod(0, [&](bool ok) { result.reattach_ok = ok; });
    });

    result.load = service::RunOpenLoop(
        {service::FederationTarget(&bed.dispatcher())},
        {.rate = 25'000.0,
         .duration = kReadmitDuration,
         .phase_offsets = {kFaultAt, kReattachAt, kSettledAt}},
        /*poisson=*/nullptr);

    result.lost = bed.dispatcher().counters().lost;
    result.readmitted = bed.dispatcher().counters().readmissions;
    result.pod0_served_after_readmit =
        bed.pod(0).pool().counters().dispatched - pod0_before_readmit;
    result.pod0_dead_nodes_after = bed.dispatcher().pod_dead_nodes(0);
    return result;
}

}  // namespace

int main() {
    bench::Banner("Predictive health: shed-before-failure + re-admission",
                  "Putnam et al., ISCA 2014, §3.5 failure handling taken "
                  "predictive; §2 multi-pod deployment");

    std::printf("\nDegradation ramp: 3 pods, paced 100k QPS, thermal/link-"
                "flap storm across pod 0's rings from t=%lld ms (SLO %lld "
                "ms)\n",
                static_cast<long long>(kRampStart / Milliseconds(1)),
                static_cast<long long>(kSlo / Milliseconds(1)));
    bench::Row({"config", "incident_qps", "slo_goodput_qps",
                "incident_p99_us", "failovers", "sheds", "lost"});
    const RampResult reactive = RunRamp(/*predictive=*/false);
    const RampResult predictive = RunRamp(/*predictive=*/true);
    for (const auto* run : {&reactive, &predictive}) {
        bench::Row({run == &reactive ? "reactive_only" : "predictive",
                    bench::Fmt(run->Incident().Qps(), 0),
                    bench::Fmt(run->Incident().SloQps(), 0),
                    bench::Fmt(run->Incident().latency_us.P99(), 1),
                    bench::FmtInt(static_cast<long long>(run->failovers)),
                    bench::FmtInt(static_cast<long long>(run->sheds)),
                    bench::FmtInt(static_cast<long long>(run->lost))});
    }

    std::printf("\nRe-admission: 3 pods, paced 25k QPS, pod 0 blacked out "
                "at %lld ms, re-attached at %lld ms\n",
                static_cast<long long>(kFaultAt / Milliseconds(1)),
                static_cast<long long>(kReattachAt / Milliseconds(1)));
    const ReadmitResult readmit = RunReadmission();
    const auto& phases = readmit.load.phases;
    bench::Row({"phase", "arrivals", "completed", "failed", "qps"});
    const char* names[] = {"pre_fault", "blackout", "service", "settled"};
    for (std::size_t p = 0; p < phases.size(); ++p) {
        bench::Row({names[p],
                    bench::FmtInt(static_cast<long long>(phases[p].arrivals)),
                    bench::FmtInt(static_cast<long long>(phases[p].completed)),
                    bench::FmtInt(static_cast<long long>(phases[p].failed)),
                    bench::Fmt(phases[p].Qps(), 0)});
    }
    const double pre_qps = phases[0].Qps();
    const double settled_qps = phases[3].Qps();
    const double recovered = pre_qps > 0 ? settled_qps / pre_qps : 0.0;
    bench::Row({"recovered_vs_prefault",
                bench::Fmt(100.0 * recovered, 1) + "%"});
    bench::Row({"pod0_served_after_readmit",
                bench::FmtInt(static_cast<long long>(
                    readmit.pod0_served_after_readmit))});

    std::printf("\nShape check [predictive incident SLO goodput >= reactive "
                "with lower p99; shed engaged; re-admitted federation "
                "within 10%% of pre-fault QPS; zero lost accepted "
                "queries]\n");
    bool ok = true;
    if (reactive.load.accepted == 0 || predictive.load.accepted == 0) {
        std::printf("FAIL: a ramp run did not complete its load\n");
        ok = false;
    }
    if (predictive.Incident().SloQps() < reactive.Incident().SloQps()) {
        std::printf("FAIL: predictive retains less SLO goodput than "
                    "reactive (%.0f < %.0f)\n",
                    predictive.Incident().SloQps(),
                    reactive.Incident().SloQps());
        ok = false;
    }
    if (predictive.Incident().latency_us.P99() >=
        reactive.Incident().latency_us.P99()) {
        std::printf("FAIL: predictive incident p99 not better (%.1f >= "
                    "%.1f us)\n",
                    predictive.Incident().latency_us.P99(),
                    reactive.Incident().latency_us.P99());
        ok = false;
    }
    if (predictive.sheds == 0 || predictive.pod0_shed_queries == 0) {
        std::printf("FAIL: predictive shed never engaged\n");
        ok = false;
    }
    if (predictive.failovers >= reactive.failovers) {
        std::printf("FAIL: predictive burned at least as many in-flight "
                    "retries as reactive (%llu >= %llu)\n",
                    static_cast<unsigned long long>(predictive.failovers),
                    static_cast<unsigned long long>(reactive.failovers));
        ok = false;
    }
    if (predictive.lost != 0 || reactive.lost != 0 ||
        predictive.load.timeouts != 0 || reactive.load.timeouts != 0) {
        std::printf("FAIL: accepted queries lost during the ramp\n");
        ok = false;
    }
    if (!readmit.reattach_ok || readmit.readmitted != 1) {
        std::printf("FAIL: pod re-admission did not complete\n");
        ok = false;
    }
    if (readmit.pod0_dead_nodes_after != 0 ||
        readmit.pod0_served_after_readmit == 0) {
        std::printf("FAIL: re-admitted pod is not serving (dead=%d, "
                    "served=%llu)\n",
                    readmit.pod0_dead_nodes_after,
                    static_cast<unsigned long long>(
                        readmit.pod0_served_after_readmit));
        ok = false;
    }
    if (recovered < 0.9) {
        std::printf("FAIL: settled QPS only %.1f%% of pre-fault\n",
                    100.0 * recovered);
        ok = false;
    }
    if (readmit.lost != 0 || readmit.load.timeouts != 0) {
        std::printf("FAIL: accepted queries lost across the blackout / "
                    "re-admission (lost=%llu failed=%llu)\n",
                    static_cast<unsigned long long>(readmit.lost),
                    static_cast<unsigned long long>(readmit.load.timeouts));
        ok = false;
    }
    if (!ok) return 1;
    std::printf("PASS: predictive retained %.2fx reactive incident SLO "
                "goodput (%.0f vs %.0f QPS, p99 %.1f vs %.1f us) with %llu "
                "shed(s); re-admitted federation recovered %.1f%% of "
                "pre-fault QPS with zero lost queries\n",
                predictive.Incident().SloQps() / reactive.Incident().SloQps(),
                predictive.Incident().SloQps(), reactive.Incident().SloQps(),
                predictive.Incident().latency_us.P99(),
                reactive.Incident().latency_us.P99(),
                static_cast<unsigned long long>(predictive.sheds),
                100.0 * recovered);
    return 0;
}
