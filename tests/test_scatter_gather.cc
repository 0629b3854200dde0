// Scatter-gather front door: ResultMerger property tests (seeded RNG —
// merge equals sort-of-concatenation truncated to k, deterministic
// tie-breaking, round-robin interleave of equal-score runs), deadline
// edge cases (zero pods answered, every pod answered exactly at the
// budget instant, stragglers after delivery), mid-scatter pod blackout
// with live re-admission, and the dispatcher's 64-pod rotation limit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "service/scatter_gather.h"

namespace catapult::service {
namespace {

FederationTestbed::Config FastFederation(int pods, int rings) {
    FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = rings;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    return config;
}

/** Health/reboot tuning that makes whole-pod loss conclude quickly. */
void FastFailureHandling(FederationTestbed::Config& config) {
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
}

/** A deterministic batch of documents, all carrying `query`. */
std::vector<rank::CompressedRequest> MakeDocs(int count,
                                              std::uint64_t seed = 17) {
    rank::DocumentGenerator generator(seed);
    std::vector<rank::CompressedRequest> docs;
    docs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        docs.push_back(std::move(request));
    }
    return docs;
}

// ---------------------------------------------------------- ResultMerger

/**
 * Random per-pod lists with deliberately colliding scores (drawn from a
 * handful of buckets) and globally unique doc ids.
 */
std::vector<std::vector<RankedDoc>> RandomLists(Rng& rng, int max_pods,
                                                int max_docs_per_pod) {
    const int pods = static_cast<int>(rng.UniformInt(1, max_pods));
    std::vector<std::vector<RankedDoc>> lists(
        static_cast<std::size_t>(pods));
    std::uint64_t next_doc_id = 1;
    for (int p = 0; p < pods; ++p) {
        // Empty pods are a first-class input (a pod may answer nothing).
        const int docs = static_cast<int>(rng.UniformInt(0, max_docs_per_pod));
        for (int d = 0; d < docs; ++d) {
            RankedDoc doc;
            doc.doc_id = next_doc_id++;
            // Five score buckets: duplicate scores across (and within)
            // pods are the common case, not the corner case.
            doc.score = 0.25f * static_cast<float>(rng.UniformInt(0, 4));
            doc.pod = p;
            lists[static_cast<std::size_t>(p)].push_back(doc);
        }
    }
    return lists;
}

TEST(ResultMerger, PropertyMergeEqualsSortedConcatenationTruncated) {
    Rng rng(0x5EA7C4ull);
    for (int trial = 0; trial < 200; ++trial) {
        const auto lists = RandomLists(rng, /*max_pods=*/6,
                                       /*max_docs_per_pod=*/20);
        std::vector<RankedDoc> all;
        for (const auto& list : lists) {
            all.insert(all.end(), list.begin(), list.end());
        }
        const auto k = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(all.size()) + 4));

        const auto merged = ResultMerger::Merge(lists, k);

        // Size: exactly min(k, total).
        ASSERT_EQ(merged.size(), std::min(k, all.size()))
            << "trial " << trial;
        // Scores: identical to the sorted concatenation, truncated.
        std::vector<float> oracle;
        oracle.reserve(all.size());
        for (const auto& doc : all) oracle.push_back(doc.score);
        std::sort(oracle.begin(), oracle.end(), std::greater<float>());
        for (std::size_t i = 0; i < merged.size(); ++i) {
            ASSERT_EQ(merged[i].score, oracle[i])
                << "trial " << trial << " position " << i;
        }
        // Every merged doc is an input doc, no doc merged twice (doc
        // ids are globally unique by construction).
        std::vector<std::uint64_t> ids;
        ids.reserve(merged.size());
        for (const auto& doc : merged) {
            ASSERT_TRUE(std::any_of(all.begin(), all.end(),
                                    [&](const RankedDoc& d) {
                                        return d == doc;
                                    }))
                << "trial " << trial;
            ids.push_back(doc.doc_id);
        }
        std::sort(ids.begin(), ids.end());
        ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
            << "trial " << trial;
    }
}

TEST(ResultMerger, PropertyDeterministicUnderInputPermutation) {
    Rng rng(0xD37E12ull);
    for (int trial = 0; trial < 100; ++trial) {
        auto lists = RandomLists(rng, /*max_pods=*/5, /*max_docs_per_pod=*/12);
        std::size_t total = 0;
        for (const auto& list : lists) total += list.size();
        const auto k = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(total)));

        const auto first = ResultMerger::Merge(lists, k);
        // Same input twice: byte-identical output.
        ASSERT_EQ(ResultMerger::Merge(lists, k), first) << "trial " << trial;
        // Shuffle each pod's list (completion order is arbitrary in
        // production); the merger canonicalizes, so output is identical.
        for (auto& list : lists) {
            for (std::size_t i = list.size(); i > 1; --i) {
                std::swap(list[i - 1],
                          list[static_cast<std::size_t>(rng.UniformInt(
                              0, static_cast<std::int64_t>(i) - 1))]);
            }
        }
        ASSERT_EQ(ResultMerger::Merge(lists, k), first) << "trial " << trial;
    }
}

TEST(ResultMerger, RoundRobinInterleavesEqualScoreRuns) {
    // Pod 0 holds three docs at 1.0, pod 2 two docs at 1.0 plus a 0.5
    // tail. The tied band must alternate 0,2,0,2,0 — ascending pod id
    // first, doc id ascending within each pod — then the run below.
    std::vector<std::vector<RankedDoc>> lists = {
        {{11, 1.0f, 0}, {13, 1.0f, 0}, {12, 1.0f, 0}},
        {{21, 1.0f, 2}, {20, 0.5f, 2}, {22, 1.0f, 2}},
    };
    const auto merged = ResultMerger::Merge(lists, 6);
    const std::vector<RankedDoc> expected = {
        {11, 1.0f, 0}, {21, 1.0f, 2}, {12, 1.0f, 0},
        {22, 1.0f, 2}, {13, 1.0f, 0}, {20, 0.5f, 2},
    };
    EXPECT_EQ(merged, expected);
}

TEST(ResultMerger, EmptyAndDegenerateInputs) {
    EXPECT_TRUE(ResultMerger::Merge({}, 8).empty());
    EXPECT_TRUE(ResultMerger::Merge({{}, {}, {}}, 8).empty());
    EXPECT_TRUE(
        ResultMerger::Merge({{{1, 1.0f, 0}}}, 0).empty());
    const auto merged = ResultMerger::Merge({{}, {{7, 2.0f, 1}}, {}}, 4);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].doc_id, 7u);
}

// ------------------------------------------------- scatter-gather tier

TEST(ScatterGather, MergesCrossPodTopKWithPerPodAccounting) {
    FederationTestbed bed(FastFederation(/*pods=*/3, /*rings=*/1));
    ASSERT_TRUE(bed.DeployAndSettle());
    SessionFrontEnd& door = bed.front_end();

    const std::uint64_t session = door.OpenSession();
    ASSERT_GT(session, 0u);
    ASSERT_EQ(door.session_stats(session).connection_pool.size(), 4u);

    ScatterGatherDispatcher::GatherResult result;
    bool delivered = false;
    rank::Query query;
    query.query_id = 42;
    const std::uint64_t gather = door.Submit(
        session, query, MakeDocs(24), /*top_k=*/10, /*budget=*/0,
        [&](const ScatterGatherDispatcher::GatherResult& r) {
            result = r;
            delivered = true;
        });
    ASSERT_GT(gather, 0u);
    bed.simulator().Run();

    ASSERT_TRUE(delivered);
    EXPECT_FALSE(result.partial);
    EXPECT_EQ(result.doc_count, 24u);
    EXPECT_EQ(result.accepted, 24u);
    EXPECT_EQ(result.answered, 24u);
    EXPECT_EQ(result.rejected, 0u);
    ASSERT_EQ(result.top.size(), 10u);
    // Merged order: scores never increase.
    for (std::size_t i = 1; i < result.top.size(); ++i) {
        EXPECT_LE(result.top[i].score, result.top[i - 1].score) << i;
    }
    // The scatter partition covered all three pods evenly, and the
    // answered/missing ledger closes: every assigned shard is either
    // answered (by someone) or missing.
    ASSERT_EQ(result.pods.size(), 3u);
    std::size_t answered = 0;
    std::size_t missing = 0;
    for (const auto& shard : result.pods) {
        EXPECT_EQ(shard.assigned, 8) << "pod " << shard.pod;
        EXPECT_EQ(shard.missing, 0) << "pod " << shard.pod;
        answered += static_cast<std::size_t>(shard.answered);
        missing += static_cast<std::size_t>(shard.missing);
    }
    EXPECT_EQ(answered + missing, result.doc_count);
    // Every merged doc carries the pod that served it.
    for (const auto& doc : result.top) {
        EXPECT_GE(doc.pod, 0);
        EXPECT_LT(doc.pod, 3);
    }
    const auto& counters = door.scatter().counters();
    EXPECT_EQ(counters.delivered, 1u);
    EXPECT_EQ(counters.partial, 0u);
    EXPECT_EQ(counters.docs_answered, 24u);
    EXPECT_EQ(counters.stragglers, 0u);
    EXPECT_EQ(counters.merges, 1u);
    const auto stats = door.session_stats(session);
    EXPECT_EQ(stats.delivered, 1u);
    EXPECT_EQ(stats.in_flight, 0);
}

TEST(ScatterGather, DeadlineWithZeroPodsAnsweredDeliversEmptyPartial) {
    FederationTestbed bed(FastFederation(/*pods=*/2, /*rings=*/1));
    ASSERT_TRUE(bed.DeployAndSettle());
    SessionFrontEnd& door = bed.front_end();
    const std::uint64_t session = door.OpenSession();

    // A 1 µs budget is below even the software injection overhead: the
    // deadline fires with every accepted shard still in flight.
    ScatterGatherDispatcher::GatherResult result;
    bool delivered = false;
    ASSERT_GT(door.Submit(session, rank::Query{}, MakeDocs(12),
                          /*top_k=*/8, Microseconds(1),
                          [&](const ScatterGatherDispatcher::GatherResult& r) {
                              result = r;
                              delivered = true;
                          }),
              0u);
    bed.simulator().Run();

    ASSERT_TRUE(delivered);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.answered, 0u);
    EXPECT_TRUE(result.top.empty());
    EXPECT_EQ(result.latency, Microseconds(1));
    std::size_t missing = 0;
    for (const auto& shard : result.pods) {
        missing += static_cast<std::size_t>(shard.missing);
        EXPECT_EQ(shard.answered, 0) << "pod " << shard.pod;
    }
    EXPECT_EQ(missing, result.doc_count);

    // Zero lost accepted shards: every shard the federation accepted
    // completed after the deadline and was accounted as a straggler —
    // never merged, never dropped, never delivered twice.
    const auto& counters = door.scatter().counters();
    EXPECT_EQ(counters.stragglers, result.accepted);
    EXPECT_EQ(counters.docs_answered, 0u);
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);

    // The session survives an empty partial intact: the next gather on
    // the same session runs to a complete result.
    const auto stats = door.session_stats(session);
    EXPECT_EQ(stats.delivered, 1u);
    EXPECT_EQ(stats.partial, 1u);
    EXPECT_EQ(stats.stragglers, result.accepted);
    EXPECT_EQ(stats.in_flight, 0);
    bool delivered2 = false;
    ScatterGatherDispatcher::GatherResult result2;
    ASSERT_GT(door.Submit(session, rank::Query{}, MakeDocs(12, /*seed=*/23),
                          /*top_k=*/8, /*budget=*/0,
                          [&](const ScatterGatherDispatcher::GatherResult& r) {
                              result2 = r;
                              delivered2 = true;
                          }),
              0u);
    bed.simulator().Run();
    ASSERT_TRUE(delivered2);
    EXPECT_FALSE(result2.partial);
    EXPECT_EQ(result2.answered, 12u);
    EXPECT_EQ(door.session_stats(session).delivered, 2u);
    // Stragglers from gather 1 did not double-count into gather 2.
    EXPECT_EQ(door.scatter().counters().stragglers, result.accepted);
}

TEST(ScatterGather, AllPodsAnsweringExactlyAtBudgetIsComplete) {
    // Pass 1: measure the exact completion instant of a gather on a
    // fresh federation. Pass 2: identical federation (same seeds, same
    // deploy schedule), identical workload, budget set to exactly the
    // measured latency. Completions carry delivery priority, the
    // deadline carries timeout priority, so the same-instant gather
    // must deliver complete — answering exactly at the budget is on
    // time, not late.
    Time measured = 0;
    for (int pass = 0; pass < 2; ++pass) {
        FederationTestbed bed(FastFederation(/*pods=*/3, /*rings=*/1));
        ASSERT_TRUE(bed.DeployAndSettle());
        SessionFrontEnd& door = bed.front_end();
        const std::uint64_t session = door.OpenSession();

        ScatterGatherDispatcher::GatherResult result;
        bool delivered = false;
        const Time budget = pass == 0 ? Time{0} : measured;
        ASSERT_GT(door.Submit(session, rank::Query{}, MakeDocs(18),
                              /*top_k=*/6, budget,
                              [&](const ScatterGatherDispatcher::GatherResult& r) {
                                  result = r;
                                  delivered = true;
                              }),
                  0u);
        bed.simulator().Run();
        ASSERT_TRUE(delivered) << "pass " << pass;
        EXPECT_FALSE(result.partial) << "pass " << pass;
        EXPECT_EQ(result.answered, 18u) << "pass " << pass;
        if (pass == 0) {
            measured = result.latency;
            ASSERT_GT(measured, 0);
        } else {
            // The gather really did land on the deadline instant.
            EXPECT_EQ(result.latency, measured);
            EXPECT_EQ(door.scatter().counters().stragglers, 0u);
        }
    }
}

TEST(ScatterGather, PodBlackoutMidScatterSurvivorsCompleteAndPodRejoins) {
    auto config = FastFederation(/*pods=*/3, /*rings=*/1);
    FastFailureHandling(config);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    SessionFrontEnd& door = bed.front_end();
    const std::uint64_t session = door.OpenSession();

    // Lights out on pod 0 moments after the scatter: its accepted
    // shards are in flight on dying hardware. The budget expires
    // before the 8 ms ring request timeout can trigger failover, so
    // the delivered result is partial with the hole attributed to
    // pod 0 — and the failover completions that land later are
    // stragglers, not corruption.
    const Time blackout_at = bed.simulator().Now() + Milliseconds(5);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);

    ScatterGatherDispatcher::GatherResult result;
    bool delivered = false;
    // 10 µs before the blackout: below even the 12 µs software
    // injection overhead, so every shard is still in flight when pod 0
    // dies.
    bed.simulator().ScheduleAt(blackout_at - Microseconds(10), [&] {
        ASSERT_GT(door.Submit(
                      session, rank::Query{}, MakeDocs(30), /*top_k=*/10,
                      /*budget=*/Milliseconds(5),
                      [&](const ScatterGatherDispatcher::GatherResult& r) {
                          result = r;
                          delivered = true;
                      }),
                  0u);
    });
    bed.simulator().Run();

    ASSERT_TRUE(delivered);
    EXPECT_TRUE(result.partial);
    ASSERT_EQ(result.pods.size(), 3u);
    // All three pods were in the scatter set (blackout hit after the
    // partition), survivors answered their shards, and pod 0's shards
    // surface as missing.
    EXPECT_EQ(result.pods[0].assigned, 10);
    EXPECT_GT(result.pods[0].missing, 0);
    EXPECT_GT(result.pods[1].answered, 0);
    EXPECT_GT(result.pods[2].answered, 0);
    std::size_t answered = 0;
    std::size_t missing = 0;
    for (const auto& shard : result.pods) {
        answered += static_cast<std::size_t>(shard.answered);
        missing += static_cast<std::size_t>(shard.missing);
    }
    EXPECT_EQ(answered + missing, result.doc_count);
    EXPECT_EQ(answered, result.answered);
    // Nothing lost below: accepted shards either merged or straggled.
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_EQ(door.scatter().counters().stragglers +
                  door.scatter().counters().docs_answered +
                  door.scatter().counters().docs_failed,
              door.scatter().counters().docs_scattered);

    // Live re-admission: the serviced pod rejoins the scatter set.
    ASSERT_FALSE(bed.dispatcher().pod_eligible(0));
    bool reattached = false;
    bed.ReattachPod(0, [&](bool ok) { reattached = ok; });
    bed.simulator().Run();
    ASSERT_TRUE(reattached);
    ASSERT_TRUE(bed.dispatcher().pod_eligible(0));

    bool delivered2 = false;
    ScatterGatherDispatcher::GatherResult result2;
    ASSERT_GT(door.Submit(session, rank::Query{}, MakeDocs(30, /*seed=*/31),
                          /*top_k=*/10, /*budget=*/0,
                          [&](const ScatterGatherDispatcher::GatherResult& r) {
                              result2 = r;
                              delivered2 = true;
                          }),
              0u);
    bed.simulator().Run();
    ASSERT_TRUE(delivered2);
    EXPECT_FALSE(result2.partial);
    EXPECT_EQ(result2.answered, 30u);
    // The readmitted pod is back in the partition and serving.
    EXPECT_EQ(result2.pods[0].assigned, 10);
    EXPECT_GT(result2.pods[0].answered, 0);
}

TEST(SessionFrontEnd, InFlightCapRefusesAndClosedSessionRefuses) {
    auto config = FastFederation(/*pods=*/2, /*rings=*/1);
    config.front_end.max_gathers_per_session = 1;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    SessionFrontEnd& door = bed.front_end();
    const std::uint64_t session = door.OpenSession();

    int completions = 0;
    auto on_complete =
        [&](const ScatterGatherDispatcher::GatherResult&) { ++completions; };
    ASSERT_GT(door.Submit(session, rank::Query{}, MakeDocs(4), 4, 0,
                          on_complete),
              0u);
    // Cap of one: the second concurrent gather is refused, accounted,
    // and the first still delivers.
    EXPECT_EQ(door.Submit(session, rank::Query{}, MakeDocs(4), 4, 0,
                          on_complete),
              0u);
    bed.simulator().Run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(door.session_stats(session).refused, 1u);
    EXPECT_EQ(door.counters().refused, 1u);

    ASSERT_TRUE(door.CloseSession(session));
    EXPECT_FALSE(door.SessionOpen(session));
    EXPECT_EQ(door.Submit(session, rank::Query{}, MakeDocs(4), 4, 0,
                          on_complete),
              0u);
    EXPECT_EQ(door.counters().refused, 2u);
}

// ------------------------------------------------------ rotation limit

// A front end with no driver threads aborts in every build: in release
// OpenSession would take a remainder modulo zero.
TEST(SessionFrontEndDeathTest, RejectsFewerThanOneDriverThread) {
    sim::Simulator sim;
    FederatedDispatcher dispatcher(&sim, {});
    SessionFrontEnd::Config config;
    config.driver_threads = 0;
    EXPECT_DEATH(SessionFrontEnd(&sim, &dispatcher, config),
                 "SessionFrontEnd: driver_threads 0 < 1");
}

TEST(FederatedDispatcher, AttachPodRefusesTheSixtyFifthPod) {
    // The per-query tried-set is a 64-bit mask, so the rotation holds
    // at most 64 pods; the 65th attach is refused with -1. One real
    // PodContext stands in for all 64 slots — the limit is on the
    // dispatcher's table, not on pod identity.
    FederationTestbed bed(FastFederation(/*pods=*/1, /*rings=*/1));
    mgmt::PodContext& pod = bed.pod(0);
    for (int i = 1; i < 64; ++i) {
        ASSERT_EQ(bed.dispatcher().AttachPod(&pod), i) << "slot " << i;
    }
    EXPECT_EQ(bed.dispatcher().pod_count(), 64);
    EXPECT_EQ(bed.dispatcher().AttachPod(&pod), -1);
    EXPECT_EQ(bed.dispatcher().pod_count(), 64);
}

}  // namespace
}  // namespace catapult::service
