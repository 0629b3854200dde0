// Observability plane: metric registry algebra, trace recorder and
// stitcher contracts, hub cadence on simulated time, and the end-to-end
// federation wiring — span parent/child integrity across a
// retry-onto-survivor failover, and the pod-blackout FDR postmortem
// landing in the stitched timeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "obs/metrics_hub.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"

namespace catapult::obs {
namespace {

// ------------------------------------------------------ metric registry

TEST(MetricRegistry, FindOrCreateReturnsStablePointers) {
    MetricRegistry reg;
    Counter* c = reg.counter("a.count");
    Gauge* g = reg.gauge("a.level", GaugeMerge::kMax);
    Histogram* h = reg.histogram("a.latency_us");
    c->Inc(3);
    g->SetMax(7);
    h->Observe(4.0);
    // Second lookup is the same object; options on a later lookup are
    // ignored (first registration wins).
    EXPECT_EQ(reg.counter("a.count"), c);
    EXPECT_EQ(reg.gauge("a.level", GaugeMerge::kSum), g);
    EXPECT_EQ(reg.histogram("a.latency_us"), h);
    EXPECT_EQ(c->value(), 3u);
    EXPECT_EQ(g->value(), 7);
    EXPECT_EQ(reg.size(), 3u);
}

// The three shard populations the merge tests combine: overlapping and
// disjoint names, both gauge merge modes, histograms spanning buckets.
void FillA(MetricRegistry& r) {
    r.counter("shared.count")->Inc(5);
    r.counter("only_a.count")->Inc(2);
    r.gauge("shared.sum")->Set(10);
    r.gauge("shared.hwm", GaugeMerge::kMax)->Set(4);
    r.histogram("shared.hist")->Observe(1.5);
    r.histogram("shared.hist")->Observe(100.0);
}
void FillB(MetricRegistry& r) {
    r.counter("shared.count")->Inc(7);
    r.gauge("shared.sum")->Set(-3);
    r.gauge("shared.hwm", GaugeMerge::kMax)->Set(9);
    r.histogram("shared.hist")->Observe(0.25);
    r.histogram("only_b.hist")->Observe(2.0);
}
void FillC(MetricRegistry& r) {
    r.counter("shared.count")->Inc(1);
    r.counter("only_c.count", /*volatile_metric=*/true)->Inc(11);
    r.gauge("shared.sum")->Set(6);
    r.gauge("shared.hwm", GaugeMerge::kMax)->Set(2);
    r.histogram("shared.hist")->Observe(3.9);
}

TEST(MetricRegistry, MergeIsCommutative) {
    MetricRegistry ab;
    FillA(ab);
    {
        MetricRegistry b;
        FillB(b);
        ab.MergeFrom(b);
    }
    MetricRegistry ba;
    FillB(ba);
    {
        MetricRegistry a;
        FillA(a);
        ba.MergeFrom(a);
    }
    EXPECT_EQ(ab.ToJson(true), ba.ToJson(true));
}

TEST(MetricRegistry, MergeIsAssociative) {
    // (a ⊕ b) ⊕ c
    MetricRegistry left;
    FillA(left);
    {
        MetricRegistry b;
        FillB(b);
        left.MergeFrom(b);
        MetricRegistry c;
        FillC(c);
        left.MergeFrom(c);
    }
    // a ⊕ (b ⊕ c)
    MetricRegistry right;
    FillA(right);
    {
        MetricRegistry bc;
        FillB(bc);
        MetricRegistry c;
        FillC(c);
        bc.MergeFrom(c);
        right.MergeFrom(bc);
    }
    EXPECT_EQ(left.ToJson(true), right.ToJson(true));
    // Spot-check the merged values themselves.
    EXPECT_EQ(left.counter("shared.count")->value(), 13u);
    EXPECT_EQ(left.gauge("shared.sum")->value(), 13);
    EXPECT_EQ(left.gauge("shared.hwm")->value(), 9);
    EXPECT_EQ(left.histogram("shared.hist")->data().total(), 4);
}

TEST(MetricRegistry, VolatileMetricsExcludedFromDeterministicView) {
    MetricRegistry reg;
    reg.counter("stable.count")->Inc(1);
    reg.counter("wall.busy_ns", /*volatile_metric=*/true)->Inc(123456);
    const std::string deterministic = reg.ToJson(false);
    const std::string full = reg.ToJson(true);
    EXPECT_EQ(deterministic.find("wall.busy_ns"), std::string::npos);
    EXPECT_NE(deterministic.find("stable.count"), std::string::npos);
    EXPECT_NE(full.find("wall.busy_ns"), std::string::npos);
    // Prometheus exposition carries everything (volatile marked).
    const std::string prom = reg.ToPrometheus();
    EXPECT_NE(prom.find("stable_count"), std::string::npos);
    EXPECT_NE(prom.find("volatile"), std::string::npos);
}

// Bucket edges per common/stats.h: bucket i counts [2^i, 2^(i+1)),
// values below 1.0 land in the underflow bin.
TEST(MetricRegistry, HistogramBucketEdges) {
    MetricRegistry reg;
    Histogram* h = reg.histogram("edges");
    h->Observe(0.5);    // underflow
    h->Observe(0.999);  // underflow
    h->Observe(1.0);    // bucket 0: [1, 2)
    h->Observe(1.999);  // bucket 0
    h->Observe(2.0);    // bucket 1: [2, 4)
    h->Observe(3.999);  // bucket 1
    h->Observe(4.0);    // bucket 2: [4, 8)
    const Log2Histogram& data = h->data();
    EXPECT_EQ(data.total(), 7);
    EXPECT_EQ(data.underflow(), 2);
    ASSERT_GE(data.buckets().size(), 3u);
    EXPECT_EQ(data.buckets()[0], 2);
    EXPECT_EQ(data.buckets()[1], 2);
    EXPECT_EQ(data.buckets()[2], 1);
    // ObserveLatency converts simulated time to microseconds before
    // bucketing: 8 us lands in bucket 3 ([8, 16)).
    h->ObserveLatency(Microseconds(8));
    ASSERT_GE(data.buckets().size(), 4u);
    EXPECT_EQ(data.buckets()[3], 1);
}

// ----------------------------------------------------------- hub cadence

TEST(MetricsHub, SnapshotsOnceGetPerCadenceBoundary) {
    MetricsHub::Config config;
    config.cadence = Milliseconds(10);
    MetricsHub hub(config);
    int renders = 0;
    auto render = [&renders] { return std::to_string(++renders); };

    // Below the first boundary: nothing fires.
    hub.AdvanceTo(Milliseconds(5), render);
    EXPECT_EQ(hub.snapshots_taken(), 0u);
    EXPECT_EQ(renders, 0);
    EXPECT_EQ(hub.next_boundary(), Milliseconds(10));

    // Crossing two boundaries in one barrier renders ONCE — the value
    // "as of the first barrier at or past the boundary" — recorded for
    // both the 10 ms and 20 ms boundaries.
    hub.AdvanceTo(Milliseconds(25), render);
    ASSERT_EQ(hub.snapshots_taken(), 2u);
    EXPECT_EQ(renders, 1);
    EXPECT_EQ(hub.snapshots()[0].at, Milliseconds(10));
    EXPECT_EQ(hub.snapshots()[1].at, Milliseconds(20));
    EXPECT_EQ(hub.snapshots()[0].json, hub.snapshots()[1].json);

    // A barrier exactly on a boundary fires it; re-advancing to the
    // same frontier is idempotent.
    hub.AdvanceTo(Milliseconds(30), render);
    hub.AdvanceTo(Milliseconds(30), render);
    EXPECT_EQ(hub.snapshots_taken(), 3u);
    EXPECT_EQ(renders, 2);
    EXPECT_EQ(hub.snapshots()[2].at, Milliseconds(30));
    EXPECT_EQ(hub.next_boundary(), Milliseconds(40));
}

TEST(MetricsHub, RetainedSnapshotsAreBounded) {
    MetricsHub::Config config;
    config.cadence = Milliseconds(1);
    config.max_snapshots = 4;
    MetricsHub hub(config);
    int renders = 0;
    auto render = [&renders] { return std::to_string(++renders); };
    hub.AdvanceTo(Milliseconds(10), render);
    EXPECT_EQ(hub.snapshots_taken(), 10u);
    ASSERT_EQ(hub.snapshots().size(), 4u);
    // Oldest evicted: the ring keeps the last four boundaries.
    EXPECT_EQ(hub.snapshots().front().at, Milliseconds(7));
    EXPECT_EQ(hub.snapshots().back().at, Milliseconds(10));
}

// -------------------------------------------------------- trace recorder

TEST(TraceRecorder, DeterministicShardStridedIds) {
    TraceRecorder a(3, 16, true);
    TraceRecorder b(3, 16, true);
    // Same shard, same call sequence, same ids — this is what makes a
    // run's trace byte-identical to the next run's.
    EXPECT_EQ(a.NextTraceId(), b.NextTraceId());
    EXPECT_EQ(a.NextSpanId(), b.NextSpanId());
    EXPECT_EQ(a.NextSpanId(), (std::uint64_t{3} << 48) | 2u);
    // A different shard allocates from a disjoint id space.
    TraceRecorder other(4, 16, true);
    EXPECT_EQ(other.NextSpanId(), (std::uint64_t{4} << 48) | 1u);
}

TEST(TraceRecorder, RingWrapsOldestFirst) {
    TraceRecorder rec(0, 4, true);
    for (int i = 1; i <= 6; ++i) {
        rec.Instant("tick", 1, 0, 0, Microseconds(i), i);
    }
    EXPECT_EQ(rec.total_recorded(), 6u);
    EXPECT_EQ(rec.dropped(), 2u);
    const auto records = rec.Records();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records.front().a1, 3);  // 1 and 2 evicted
    EXPECT_EQ(records.back().a1, 6);
}

TEST(TraceRecorder, DisabledRecorderIsANoOp) {
    TraceRecorder rec(0, 4, false);
    rec.Span("s", 1, 2, 0, 0, 0, Microseconds(5));
    rec.Instant("i", 1, 2, 0, Microseconds(1));
    EXPECT_FALSE(rec.enabled());
    EXPECT_EQ(rec.total_recorded(), 0u);
    EXPECT_TRUE(rec.Records().empty());
}

TEST(StitchChromeTrace, CanonicalOrderAndFdrJoin) {
    TraceRecorder coord(0, 16, true);
    TraceRecorder pod(1, 16, true);
    const std::uint64_t trace = coord.NextTraceId();
    const std::uint64_t query_span = coord.NextSpanId();
    coord.Span("query", trace, query_span, 0, 0, Microseconds(1),
               Microseconds(50));
    const std::uint64_t doc_span = pod.NextSpanId();
    pod.Span("doc", trace, doc_span, query_span, /*doc=*/42,
             Microseconds(10), Microseconds(40));
    // FDR-style record: no trace id of its own, joined via the doc id.
    pod.Instant("fdr", 0, 0, /*doc=*/42, Microseconds(20));

    const std::string ab = StitchChromeTrace({&coord, &pod});
    const std::string ba = StitchChromeTrace({&pod, &coord});
    // Canonical sort makes the stitch independent of shard list order.
    EXPECT_EQ(ab, ba);
    EXPECT_NE(ab.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(ab.find("\"ph\":\"X\""), std::string::npos);  // spans
    EXPECT_NE(ab.find("\"ph\":\"i\""), std::string::npos);  // instants
    EXPECT_NE(ab.find("\"fdr\""), std::string::npos);
}

// --------------------------------------- federation wiring, end to end

/**
 * The failover integrity scenario: sharded 2-pod federation, pod 0
 * blacked out mid-load, queries retried onto the survivor, pod 0
 * re-admitted. Every span and instant the layers emit must agree on
 * parent/child ids across the coordinator and pod shards.
 */
TEST(ObservabilityPlane, SpanParentageSurvivesFailover) {
    service::FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 2;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    config.sharding.enabled = true;
    config.observability.enabled = true;
    service::FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const Time blackout_at = bed.Now() + Milliseconds(20);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    rank::DocumentGenerator generator(17);
    for (int i = 0; i < 400; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(80) * i + Milliseconds(1), [&bed, &generator, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                bed.dispatcher().Inject(i % 16, request,
                                        [](const service::ScoreResult&) {});
            });
    }
    bed.Run();
    ASSERT_GT(bed.dispatcher().counters().failovers, 0u);

    ObservabilityPlane* plane = bed.observability();
    ASSERT_NE(plane, nullptr);

    // Coordinator shard: "query" spans and their "inject"/"failover"
    // instants. parent of every instant must be a query span id of the
    // same trace.
    std::map<std::uint64_t, std::uint64_t> query_trace_by_span;
    for (const auto& r : plane->shard(0)->tracer.Records()) {
        if (std::string(r.name) == "query") {
            EXPECT_EQ(r.span >> 48, 0u);  // coordinator id space
            query_trace_by_span[r.span] = r.trace;
        }
    }
    EXPECT_FALSE(query_trace_by_span.empty());
    std::uint64_t failovers_checked = 0;
    for (const auto& r : plane->shard(0)->tracer.Records()) {
        const std::string name = r.name;
        if (name != "failover" && name != "inject") continue;
        ASSERT_NE(r.parent, 0u);
        auto it = query_trace_by_span.find(r.parent);
        // Lost queries never emit their closing span; every instant
        // whose query did complete must agree with it on the trace id.
        if (it != query_trace_by_span.end()) {
            EXPECT_EQ(it->second, r.trace);
            if (name == "failover") ++failovers_checked;
        }
    }
    EXPECT_GT(failovers_checked, 0u);

    // Pod shards: every "doc" span's parent is a coordinator query
    // span, and every "stage" span's parent is a doc span of the same
    // trace — the cross-shard parent/child chain the stitcher renders.
    std::uint64_t docs_checked = 0, stages_checked = 0;
    for (int s = 1; s < plane->shard_count(); ++s) {
        std::map<std::uint64_t, std::uint64_t> doc_trace_by_span;
        for (const auto& r : plane->shard(s)->tracer.Records()) {
            if (std::string(r.name) != "doc") continue;
            EXPECT_EQ(r.span >> 48, static_cast<std::uint64_t>(s));
            EXPECT_EQ(r.parent >> 48, 0u);  // dispatcher's span id
            auto it = query_trace_by_span.find(r.parent);
            if (it != query_trace_by_span.end()) {
                EXPECT_EQ(it->second, r.trace);
                ++docs_checked;
            }
            doc_trace_by_span[r.span] = r.trace;
        }
        for (const auto& r : plane->shard(s)->tracer.Records()) {
            if (std::string(r.name) != "stage") continue;
            auto it = doc_trace_by_span.find(r.parent);
            ASSERT_NE(it, doc_trace_by_span.end());
            EXPECT_EQ(it->second, r.trace);
            ++stages_checked;
        }
    }
    EXPECT_GT(docs_checked, 0u);
    EXPECT_GT(stages_checked, 0u);

    // Both pods took traffic, so both pod shards must carry doc spans —
    // failover landed the retried documents on the survivor.
    EXPECT_GT(plane->shard(1)->tracer.total_recorded(), 0u);
    EXPECT_GT(plane->shard(2)->tracer.total_recorded(), 0u);
}

/**
 * Pod-blackout postmortem: when the Health Monitor classifies the
 * victim's machines, it streams each one's last FDR records into the
 * trace timeline — the stitched JSON is the flight-data postmortem.
 */
TEST(ObservabilityPlane, BlackoutPostmortemCarriesVictimFdrRecords) {
    service::FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 1;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    config.observability.enabled = true;
    service::FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    // Traffic first, so the victim's FDRs hold real per-packet records.
    rank::DocumentGenerator generator(11);
    for (int i = 0; i < 200; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(50) * i + Milliseconds(1), [&bed, &generator, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                bed.dispatcher().Inject(i % 8, request,
                                        [](const service::ScoreResult&) {});
            });
    }
    const Time blackout_at = bed.Now() + Milliseconds(15);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    bed.RunUntil(blackout_at + Seconds(2));

    const auto& counters = bed.pod(0).health_monitor().counters();
    EXPECT_GT(counters.fdr_postmortem_records, 0u);

    // The victim's records are in the stitched timeline alongside the
    // fault classification instants.
    const std::string trace_json = bed.observability()->TraceJson();
    EXPECT_NE(trace_json.find("\"fault\""), std::string::npos);
    EXPECT_NE(trace_json.find("\"fdr\""), std::string::npos);

    // At least one streamed record's document trace id matches a real
    // record still in the victim's FDR spill — the postmortem is the
    // victim's own flight data, not a synthesized marker.
    std::set<std::uint64_t> fdr_docs;
    const auto fdr_records =
        bed.pod(0).fabric().shell(0).fdr().StreamOutExtended();
    for (const auto& r : fdr_records) fdr_docs.insert(r.trace_id);
    bool matched = false;
    for (int s = 0; s < bed.observability()->shard_count(); ++s) {
        for (const auto& r :
             bed.observability()->shard(s)->tracer.Records()) {
            if (std::string(r.name) == "fdr" && fdr_docs.count(r.doc)) {
                matched = true;
            }
        }
    }
    EXPECT_TRUE(matched);

    // The merged snapshot surfaces the postmortem counter and the
    // FlightDataRecorder's own JSON dump is a valid-looking document.
    MetricRegistry merged;
    bed.observability()->BuildMerged(&merged);
    EXPECT_GT(merged.counter("pod0.fdr_postmortem_records")->value(), 0u);
    const std::string dump = bed.pod(0).fabric().shell(0).fdr().DumpJson();
    EXPECT_NE(dump.find("\"records\""), std::string::npos);
}

}  // namespace
}  // namespace catapult::obs
