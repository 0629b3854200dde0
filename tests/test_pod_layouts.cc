// Pod layouts, pinned: the same 2-pod blackout + re-admission scenario
// run unsharded (every pod on one simulator) and as whole-pod shards
// (each pod on its own SimulatorGroup shard). Every observable —
// per-query records, dispatcher counters, events fired, end and
// re-attach times, the deterministic metrics export and the
// dispatcher's per-pod stats sampled every 2 ms — folds into one FNV-1a
// hash per layout, compared with a pinned constant.
//
// The constants were taken before the whole-pod shard became a
// one-slice pod and are unchanged since; a refactor of the attach,
// inject, health, mailbox or re-admission paths must leave every
// layout's transcript exactly where it was.
//
// `health_score` enters the hash only once a pod is past warm-up: the
// score a warming pod reports is a readout that routing never reads.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "rank/document_generator.h"
#include "service/federation_testbed.h"

namespace catapult::service {
namespace {

enum class Layout { kUnsharded, kWholePodShards };

/** FNV-1a, 64-bit. */
class Hasher {
  public:
    void Add(std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            Byte(static_cast<std::uint8_t>(value >> (8 * i)));
        }
    }
    void Add(std::int64_t value) { Add(static_cast<std::uint64_t>(value)); }
    void Add(int value) { Add(static_cast<std::int64_t>(value)); }
    void Add(bool value) { Byte(value ? 1 : 0); }
    void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
    void Add(std::string_view text) {
        Add(static_cast<std::uint64_t>(text.size()));
        for (const char c : text) Byte(static_cast<std::uint8_t>(c));
    }
    std::uint64_t digest() const { return state_; }

  private:
    void Byte(std::uint8_t b) {
        state_ ^= b;
        state_ *= 0x100000001B3ull;
    }
    std::uint64_t state_ = 0xCBF29CE484222325ull;
};

FederationTestbed::Config LayoutConfig(Layout layout) {
    FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 2;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    // Score-weighted routing over the predictive plane (on by default
    // in the pod template): the health feed steers every pick.
    config.dispatcher.policy = FederationPolicy::kScoreWeighted;
    config.sharding.enabled = layout == Layout::kWholePodShards;
    config.observability.enabled = true;
    config.observability.hub.cadence = Milliseconds(10);
    return config;
}

/**
 * Blackout of pod 0, re-attach 30 ms later, paced load throughout;
 * returns the transcript's hash.
 */
std::uint64_t RunLayout(Layout layout) {
    FederationTestbed bed(LayoutConfig(layout));
    EXPECT_TRUE(bed.DeployAndSettle());
    Hasher hash;

    const Time blackout_at = bed.Now() + Milliseconds(30);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    bool reattach_ok = false;
    Time reattach_done_at = -1;
    bed.simulator().ScheduleAt(blackout_at + Milliseconds(30), [&] {
        bed.ReattachPod(0, [&](bool ok) {
            reattach_ok = ok;
            reattach_done_at = bed.simulator().Now();
        });
    });

    struct QueryRecord {
        bool accepted = false;
        bool ok = false;
        Time latency = -1;
        Time completed_at = -1;
    };
    const int kQueries = 1'200;
    std::vector<QueryRecord> queries(kQueries);
    rank::DocumentGenerator generator(29);
    for (int i = 0; i < kQueries; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(60) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                QueryRecord& record = queries[static_cast<std::size_t>(i)];
                const Time injected_at = bed.simulator().Now();
                const auto status = bed.dispatcher().Inject(
                    i % 32, request,
                    [&record, &bed, injected_at](const ScoreResult& r) {
                        record.ok = r.ok;
                        record.latency = r.ok
                            ? r.latency
                            : bed.simulator().Now() - injected_at;
                        record.completed_at = bed.simulator().Now();
                    });
                record.accepted = status == host::SendStatus::kOk;
            });
    }

    // Per-pod dispatcher stats every 2 ms on the coordinator. A daemon
    // tick: it never keeps the run alive once the load drains.
    Hasher stats_hash;
    std::function<void()> sample = [&] {
        stats_hash.Add(bed.simulator().Now());
        for (int k = 0; k < bed.dispatcher().pod_count(); ++k) {
            const auto s = bed.dispatcher().pod_stats(k);
            stats_hash.Add(s.in_flight);
            stats_hash.Add(s.eligible);
            stats_hash.Add(s.shed);
            stats_hash.Add(static_cast<int>(s.band));
            if (s.band != mgmt::HealthBand::kWarmingUp) {
                stats_hash.Add(s.health_score);
            }
            stats_hash.Add(s.shed_queries);
            stats_hash.Add(s.shed_transitions);
            stats_hash.Add(s.rejected);
            stats_hash.Add(s.readmitted);
            stats_hash.Add(s.fault_reports);
            stats_hash.Add(s.dead_nodes);
        }
        bed.simulator().ScheduleDaemonAfter(Milliseconds(2),
                                            [&] { sample(); });
    };
    bed.simulator().ScheduleDaemonAfter(Milliseconds(2), [&] { sample(); });

    const std::uint64_t events_fired = bed.Run();

    for (const QueryRecord& q : queries) {
        hash.Add(q.accepted);
        hash.Add(q.ok);
        hash.Add(q.latency);
        hash.Add(q.completed_at);
    }
    const auto& c = bed.dispatcher().counters();
    for (const std::uint64_t v :
         {c.accepted, c.rejected, c.completed, c.lost, c.failovers,
          c.affinity_hits, c.breaker_trips, c.sheds, c.readmissions}) {
        hash.Add(v);
    }
    hash.Add(events_fired);
    hash.Add(bed.Now());
    hash.Add(reattach_ok);
    hash.Add(reattach_done_at);
    hash.Add(bed.observability()->MetricsJson(false));
    hash.Add(stats_hash.digest());

    // The scenario did what it claims in every layout: load completed,
    // the blackout forced failovers and the pod came back.
    EXPECT_GT(c.completed, 0u);
    EXPECT_GT(c.failovers, 0u);
    EXPECT_EQ(c.readmissions, 1u);
    EXPECT_TRUE(reattach_ok);
    return hash.digest();
}

TEST(PodLayouts, UnshardedTranscriptIsPinned) {
    EXPECT_EQ(RunLayout(Layout::kUnsharded), 0xA3CADEB777FA48DCull);
}

TEST(PodLayouts, WholePodShardTranscriptIsPinned) {
    EXPECT_EQ(RunLayout(Layout::kWholePodShards), 0xEAA47B22E86B95E1ull);
}

}  // namespace
}  // namespace catapult::service
