// Scatter-gather front door: cross-pod fan-out vs single-pod dispatch,
// merge overhead, and deadline-bounded partial results.
//
// The paper's ranking tier is one slice of the search pipeline (§2):
// above it a front end owns the user's query, scatters the candidate
// document set across the fleet, and merges per-server top-k lists.
// This harness measures the SessionFrontEnd built on that shape:
//
//  1. Aggregate QPS: the same closed-loop gather load (multi-shard
//     queries) against a 1-pod and a 3-pod federation. Scatter across
//     3 pods must beat single-pod dispatch by >= 2x on document
//     throughput — the fan-out seam must not serialize the pods.
//  2. Merge overhead: the cross-pod top-k merge is front-door host
//     code; its mean wall-clock cost must stay under 10% of the
//     simulated end-to-end gather p50 it sits on top of.
//  3. Deadlines: a paced run under a budget of half the unloaded
//     gather latency must deliver partial results (the merge of
//     whoever answered) with zero lost accepted shards — every shard
//     the federation accepted is merged, failed, or accounted a
//     straggler, never dropped.
//
// Exits 1 when any shape is violated, so bench/run_all (and CI's
// --compare gate plus its numeric merge-overhead assertion) catches
// front-door regressions.

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"

using namespace catapult;

namespace {

constexpr int kRingsPerPod = 2;
constexpr int kSessions = 6;
constexpr int kDocsPerGather = 16;
constexpr std::size_t kTopK = 8;
constexpr int kGathersPerRun = 300;

service::FederationTestbed::Config FrontDoorConfig(int pods) {
    service::FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = kRingsPerPod;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    // Saturation produces transient slot contention; a generous
    // client-side retry budget keeps refusals from puncturing complete
    // gathers (the deadline phase gates on partials explicitly).
    config.front_end.scatter.max_reject_retries = 100;
    return config;
}

struct GatherRunResult {
    bool ok = false;
    std::uint64_t gathers = 0;
    std::uint64_t partial = 0;
    std::uint64_t docs_answered = 0;
    double docs_per_s = 0.0;
    double gather_p50_us = 0.0;
    double merge_mean_us = 0.0;
};

/**
 * Closed-loop gather load: `kSessions` sessions each keep one gather
 * outstanding until `kGathersPerRun` gathers have been delivered.
 */
GatherRunResult MeasureGatherThroughput(int pods) {
    service::FederationTestbed bed(FrontDoorConfig(pods));
    GatherRunResult out;
    if (!bed.DeployAndSettle()) return out;
    service::SessionFrontEnd& door = bed.front_end();

    rank::DocumentGenerator generator(61);
    auto make_docs = [&] {
        std::vector<rank::CompressedRequest> docs;
        docs.reserve(kDocsPerGather);
        for (int i = 0; i < kDocsPerGather; ++i) {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = 0;
            docs.push_back(std::move(request));
        }
        return docs;
    };

    SampleStat latency_us;
    int submitted = 0;
    int delivered = 0;
    bool all_complete = true;
    const Time start = bed.simulator().Now();
    std::function<void(std::uint64_t)> pump = [&](std::uint64_t session) {
        if (submitted >= kGathersPerRun) return;
        ++submitted;
        door.Submit(
            session, rank::Query{}, make_docs(), kTopK, /*budget=*/0,
            [&, session](
                const service::ScatterGatherDispatcher::GatherResult& r) {
                ++delivered;
                latency_us.Add(ToMicroseconds(r.latency));
                if (r.partial) all_complete = false;
                pump(session);
            });
    };
    for (int s = 0; s < kSessions; ++s) pump(door.OpenSession());
    bed.Run();

    const auto& counters = door.scatter().counters();
    const double elapsed_s = ToSeconds(bed.simulator().Now() - start);
    out.gathers = counters.delivered;
    out.partial = counters.partial;
    out.docs_answered = counters.docs_answered;
    out.docs_per_s =
        elapsed_s > 0.0
            ? static_cast<double>(counters.docs_answered) / elapsed_s
            : 0.0;
    out.gather_p50_us = latency_us.Median();
    out.merge_mean_us =
        counters.merges > 0
            ? static_cast<double>(counters.merge_wall_ns) /
                  static_cast<double>(counters.merges) / 1000.0
            : 0.0;
    out.ok = delivered == kGathersPerRun && all_complete &&
             bed.dispatcher().counters().lost == 0;
    return out;
}

// --- Part 3: deadline-bounded partial results -------------------------

struct DeadlineRunResult {
    bool ok = false;
    Time budget = 0;
    std::uint64_t delivered = 0;
    std::uint64_t partial = 0;
    std::uint64_t answered = 0;
    std::uint64_t scattered = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t failed = 0;
    std::uint64_t dispatcher_lost = 0;
};

DeadlineRunResult RunDeadlines() {
    service::FederationTestbed bed(FrontDoorConfig(3));
    DeadlineRunResult out;
    if (!bed.DeployAndSettle()) return out;
    service::SessionFrontEnd& door = bed.front_end();
    rank::DocumentGenerator generator(67);

    auto make_docs = [&] {
        std::vector<rank::CompressedRequest> docs;
        docs.reserve(kDocsPerGather);
        for (int i = 0; i < kDocsPerGather; ++i) {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = 0;
            docs.push_back(std::move(request));
        }
        return docs;
    };

    // Calibrate: one unloaded gather's complete latency sets the bar.
    const std::uint64_t probe_session = door.OpenSession();
    Time unloaded = 0;
    door.Submit(probe_session, rank::Query{}, make_docs(), kTopK, 0,
                [&](const service::ScatterGatherDispatcher::GatherResult& r) {
                    unloaded = r.latency;
                });
    bed.simulator().Run();
    if (unloaded == 0) return out;
    out.budget = unloaded * 3 / 4;

    // Paced run at 3/4 of the unloaded latency: every gather must give
    // up its slowest shards at the deadline, merge whoever answered,
    // and deliver partial — while the late completions drain as
    // stragglers.
    constexpr int kDeadlineGathers = 100;
    std::uint64_t sessions[kSessions];
    for (int s = 0; s < kSessions; ++s) sessions[s] = door.OpenSession();
    for (int i = 0; i < kDeadlineGathers; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(100) * i, [&, i] {
                door.Submit(
                    sessions[i % kSessions], rank::Query{}, make_docs(),
                    kTopK, out.budget,
                    [&](const service::ScatterGatherDispatcher::GatherResult&
                            r) {
                        if (r.answered > 0 && r.partial) {
                            // Merge-of-whoever-answered observed.
                        }
                    });
            });
    }
    bed.simulator().Run();

    const auto& counters = door.scatter().counters();
    out.delivered = counters.delivered;
    out.partial = counters.partial;
    out.answered = counters.docs_answered;
    out.scattered = counters.docs_scattered;
    out.stragglers = counters.stragglers;
    out.failed = counters.docs_failed;
    out.dispatcher_lost = bed.dispatcher().counters().lost;
    out.ok = out.delivered == static_cast<std::uint64_t>(kDeadlineGathers) + 1;
    return out;
}

}  // namespace

int main() {
    bench::Banner("Scatter-gather front door: fan-out QPS, merge overhead, "
                  "deadlines",
                  "Putnam et al., ISCA 2014, §2 pipeline context / §5 "
                  "latency-bounded throughput");

    std::printf("\nAggregate QPS: closed-loop multi-shard gathers (%d "
                "sessions, %d docs/gather, %d gathers) vs pod count\n",
                kSessions, kDocsPerGather, kGathersPerRun);
    bench::Row({"pods", "docs_per_s", "gather_p50_us", "merge_mean_us",
                "partials"});
    const GatherRunResult one_pod = MeasureGatherThroughput(1);
    const GatherRunResult three_pod = MeasureGatherThroughput(3);
    for (const auto* run : {&one_pod, &three_pod}) {
        bench::Row({bench::FmtInt(run == &one_pod ? 1 : 3),
                    bench::Fmt(run->docs_per_s, 0),
                    bench::Fmt(run->gather_p50_us, 1),
                    bench::Fmt(run->merge_mean_us, 3),
                    bench::FmtInt(static_cast<long long>(run->partial))});
    }
    if (!one_pod.ok || !three_pod.ok) {
        std::printf("FAIL: a gather run did not complete cleanly (every "
                    "gather must deliver complete with zero lost queries)\n");
        return 1;
    }

    const DeadlineRunResult deadlines = RunDeadlines();
    std::printf("\nDeadlines: 100 paced gathers, budget = 3/4 of the "
                "unloaded gather latency (%.0f us)\n",
                ToMicroseconds(deadlines.budget));
    bench::Row({"metric", "value"});
    bench::Row({"delivered",
                bench::FmtInt(static_cast<long long>(deadlines.delivered))});
    bench::Row({"partial",
                bench::FmtInt(static_cast<long long>(deadlines.partial))});
    bench::Row({"docs_scattered",
                bench::FmtInt(static_cast<long long>(deadlines.scattered))});
    bench::Row({"docs_answered",
                bench::FmtInt(static_cast<long long>(deadlines.answered))});
    bench::Row({"stragglers",
                bench::FmtInt(static_cast<long long>(deadlines.stragglers))});
    bench::Row({"docs_failed",
                bench::FmtInt(static_cast<long long>(deadlines.failed))});

    std::printf("\nShape check [3-pod fan-out >= 2x single-pod docs/s; merge "
                "overhead < 10%% of gather p50; deadline run delivers "
                "partials with zero lost accepted shards]\n");
    bool ok = true;
    const double speedup = three_pod.docs_per_s / one_pod.docs_per_s;
    if (speedup < 2.0) {
        std::printf("FAIL: 3-pod scatter-gather sustains only %.2fx "
                    "single-pod dispatch\n", speedup);
        ok = false;
    }
    const double overhead_pct =
        100.0 * three_pod.merge_mean_us / three_pod.gather_p50_us;
    if (!(overhead_pct < 10.0)) {
        std::printf("FAIL: merge overhead %.2f%% of gather p50 (need < "
                    "10%%)\n", overhead_pct);
        ok = false;
    }
    if (!deadlines.ok || deadlines.partial == 0) {
        std::printf("FAIL: deadline run delivered %llu gathers, %llu "
                    "partial (expected every gather delivered, partials > "
                    "0)\n",
                    static_cast<unsigned long long>(deadlines.delivered),
                    static_cast<unsigned long long>(deadlines.partial));
        ok = false;
    }
    // Zero lost accepted shards: everything the federation accepted is
    // merged, failed, or accounted a straggler after its deadline.
    const std::uint64_t resolved =
        deadlines.answered + deadlines.failed + deadlines.stragglers;
    if (resolved != deadlines.scattered || deadlines.dispatcher_lost != 0) {
        std::printf("FAIL: shard accounting leaks (scattered=%llu resolved="
                    "%llu dispatcher_lost=%llu)\n",
                    static_cast<unsigned long long>(deadlines.scattered),
                    static_cast<unsigned long long>(resolved),
                    static_cast<unsigned long long>(deadlines.dispatcher_lost));
        ok = false;
    }
    if (!ok) return 1;

    std::printf("PASS: 3-pod scatter-gather sustains %.2fx single-pod "
                "dispatch; merge overhead %.2f%% of gather p50; %llu/%llu "
                "deadline gathers partial with 0 lost shards\n",
                speedup, overhead_pct,
                static_cast<unsigned long long>(deadlines.partial),
                static_cast<unsigned long long>(deadlines.delivered));
    return 0;
}
