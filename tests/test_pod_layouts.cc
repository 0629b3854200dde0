// Pod layouts, pinned: the same 2-pod blackout + re-admission scenario
// run unsharded (every pod on one simulator) and as whole-pod shards
// (each pod on its own SimulatorGroup shard). Each layout pins three
// things apart:
//
//  * a behaviour hash: per-query records, dispatcher counters, end and
//    re-attach times, the dispatcher's per-pod stats sampled every
//    2 ms, and the deterministic metrics export without its `exec.*`
//    keys — everything the simulated system did, folded into one
//    FNV-1a hash;
//  * `events_fired`, the kernel work it took;
//  * the `exec.*` entries of the metrics export (the shard group's
//    rounds, items, mailbox drains and high-water marks), which count
//    kernel and group work too.
//
// A change that only makes the kernel's work cheaper (fewer events for
// the same behaviour) re-pins the two counts and must leave the
// behaviour hash where it is. The behaviour hashes were computed with
// this split on the code from before the one-event SL3 transmitter
// and are unchanged since.
//
// `health_score` enters the hash only once a pod is past warm-up: the
// score a warming pod reports is a readout that routing never reads.
//
// Packets are pooled handles: once the load drains, the pool's live
// count is back where it started.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "shell/packet.h"

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
 * Split a metrics export into its `exec.*` entries and everything else.
 * Entries are `"name":value` pairs inside the counters, gauges and
 * histograms objects; a value is a number or a nested object.
 */
void SplitExec(std::string_view json, std::string* rest, std::string* exec) {
    std::size_t i = 0;
    while (i < json.size()) {
        const bool entry_start =
            json[i] == '"' && i > 0 && (json[i - 1] == '{' || json[i - 1] == ',');
        if (!entry_start || json.substr(i + 1, 5) != "exec.") {
            rest->push_back(json[i++]);
            continue;
        }
        // Find the end of the value: the comma or closing brace at
        // nesting depth zero.
        std::size_t j = json.find(':', i) + 1;
        int depth = 0;
        while (j < json.size() &&
               !(depth == 0 && (json[j] == ',' || json[j] == '}'))) {
            if (json[j] == '{') ++depth;
            if (json[j] == '}') --depth;
            ++j;
        }
        exec->append(json.substr(i, j - i));
        exec->push_back(';');
        if (j < json.size() && json[j] == ',') {
            ++j;  // drop the separator after the entry
        } else if (!rest->empty() && rest->back() == ',') {
            rest->pop_back();  // last entry: drop the one before it
        }
        i = j;
    }
}

struct LayoutRun {
    std::uint64_t behaviour = 0;
    std::uint64_t events_fired = 0;
    std::string exec;
    /** Pooled packets still live once the load drained, minus before. */
    std::ptrdiff_t leaked_packets = 0;
};

/** Blackout of pod 0, re-attach 30 ms later, paced load throughout. */
LayoutRun RunLayout(Layout layout) {
    const std::ptrdiff_t packets_before = shell::LivePackets();
    LayoutRun run;
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

    run.events_fired = bed.Run();
    run.leaked_packets = shell::LivePackets() - packets_before;

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
    hash.Add(bed.Now());
    hash.Add(reattach_ok);
    hash.Add(reattach_done_at);
    std::string metrics;
    SplitExec(bed.observability()->MetricsJson(false), &metrics, &run.exec);
    hash.Add(metrics);
    hash.Add(stats_hash.digest());

    // The scenario did what it claims in every layout: load completed,
    // the blackout forced failovers and the pod came back.
    EXPECT_GT(c.completed, 0u);
    EXPECT_GT(c.failovers, 0u);
    EXPECT_EQ(c.readmissions, 1u);
    EXPECT_TRUE(reattach_ok);
    run.behaviour = hash.digest();
    return run;
}

TEST(PodLayouts, UnshardedTranscriptIsPinned) {
    const LayoutRun run = RunLayout(Layout::kUnsharded);
    EXPECT_EQ(run.behaviour, 0x65EC48FD2D8B4861ull);
    EXPECT_EQ(run.events_fired, 58'715u);
    EXPECT_EQ(run.exec, "");
    EXPECT_EQ(run.leaked_packets, 0);
}

TEST(PodLayouts, WholePodShardTranscriptIsPinned) {
    const LayoutRun run = RunLayout(Layout::kWholePodShards);
    EXPECT_EQ(run.behaviour, 0xE17E2CECD5E274DFull);
    EXPECT_EQ(run.events_fired, 62'638u);
    EXPECT_EQ(run.exec,
              "\"exec.messages_drained\":3519;\"exec.round_items\":8329;"
              "\"exec.rounds\":5165;\"exec.frontier_advance_ps\":835610000000;"
              "\"exec.mailbox_hwm.0.1\":1;\"exec.mailbox_hwm.0.2\":2;"
              "\"exec.mailbox_hwm.1.0\":32;\"exec.mailbox_hwm.2.0\":3;");
    EXPECT_EQ(run.leaked_packets, 0);
}

}  // namespace
}  // namespace catapult::service
