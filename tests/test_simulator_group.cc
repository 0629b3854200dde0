// Unit tests for the conservative sharded simulation group: epoch
// barriers, canonical mailbox drain order, boundary-exact delivery,
// skip-ahead, daemon termination, teardown with in-flight traffic,
// pinned multi-round transcripts and misuse that aborts in every build.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator_group.h"

namespace catapult::sim {
namespace {

SimulatorGroup::Config GroupConfig(int shards, Time epoch) {
    SimulatorGroup::Config config;
    config.shards = shards;
    config.epoch = epoch;
    return config;
}

/**
 * FNV-1a (64-bit) over a run's transcript words and its round
 * statistics: pins what each shard saw, in which order, and the round
 * schedule that delivered it.
 */
std::uint64_t TranscriptDigest(const std::vector<std::uint64_t>& transcript,
                               std::uint64_t events_fired,
                               const SimulatorGroup::GroupProfile& profile) {
    std::uint64_t state = 0xCBF29CE484222325ull;
    const auto add = [&state](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            state ^= static_cast<std::uint8_t>(value >> (8 * i));
            state *= 0x100000001B3ull;
        }
    };
    add(transcript.size());
    for (const std::uint64_t word : transcript) add(word);
    add(events_fired);
    add(profile.rounds);
    add(profile.round_items);
    add(profile.messages_drained);
    add(static_cast<std::uint64_t>(profile.frontier_advance));
    for (const std::uint32_t hwm : profile.edge_mailbox_hwm) add(hwm);
    return state;
}

TEST(SimulatorGroup, CrossShardMessageFiresAtDeliverTime) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    Time fired_at = -1;
    group.shard(1).ScheduleAt(Microseconds(3), [&] {
        group.Post(1, 0, group.shard(1).Now() + Microseconds(10),
                   [&] { fired_at = group.shard(0).Now(); });
    });
    group.Run();
    EXPECT_EQ(fired_at, Microseconds(13));
}

// A message landing exactly on an epoch barrier is the boundary case of
// the half-open epoch contract: posted during [S, S+W) with
// deliver_at == S+W, it must be visible the instant the next epoch
// opens, not one epoch late and not (incorrectly) inside the epoch that
// produced it.
TEST(SimulatorGroup, MessageExactlyOnEpochBoundary) {
    const Time epoch = Microseconds(10);
    SimulatorGroup group(GroupConfig(2, epoch));
    Time fired_at = -1;
    std::vector<std::string> order;
    group.shard(1).ScheduleAt(0, [&] {
        order.push_back("post");
        group.Post(1, 0, epoch, [&] {
            fired_at = group.shard(0).Now();
            order.push_back("deliver");
        });
    });
    // A local event on the destination shard at the same tick and
    // priority as the barrier delivery: it was scheduled before the
    // mailbox drained, so it keeps its earlier sequence number and
    // fires first.
    group.shard(0).ScheduleAt(epoch, [&] { order.push_back("local"); },
                              EventPriority::kDeliver);
    group.Run();
    EXPECT_EQ(fired_at, epoch);
    EXPECT_EQ(order,
              (std::vector<std::string>{"post", "local", "deliver"}));
}

// Canonical drain order: same deliver time and priority from different
// source shards must arrive ordered by source shard id, then by
// per-source posting sequence.
TEST(SimulatorGroup, MailboxTieOrderIsCanonical) {
    SimulatorGroup group(GroupConfig(4, Microseconds(5)));
    std::vector<int> arrivals;
    const Time deliver = Microseconds(5);
    for (int s = 1; s < 4; ++s) {
        group.shard(s).ScheduleAt(0, [&group, &arrivals, s, deliver] {
            // Two messages per source; both land at the same barrier
            // tick on shard 0. Tag = source * 10 + message index.
            group.Post(s, 0, deliver,
                       [&arrivals, s] { arrivals.push_back(s * 10); });
            group.Post(s, 0, deliver,
                       [&arrivals, s] { arrivals.push_back(s * 10 + 1); });
        });
    }
    group.Run();
    EXPECT_EQ(arrivals, (std::vector<int>{10, 11, 20, 21, 30, 31}));
}

TEST(SimulatorGroup, ChatterTranscriptIsPinned) {
    // A multi-epoch ping-pong across three pods and a coordinator;
    // each shard records its own transcript, and the transcripts plus
    // the round statistics hash to a constant pinned before the
    // mailbox drain lost its sort.
    SimulatorGroup group(GroupConfig(4, Microseconds(7)));
    std::vector<std::vector<std::uint64_t>> per_shard(4);
    // Coordinator sprays a token to each pod; each pod bounces it
    // back twice with pod-dependent local work in between.
    group.shard(0).ScheduleAt(0, [&] {
        for (int s = 1; s < 4; ++s) {
            group.Post(0, s, Microseconds(7), [&, s] {
                Simulator& pod = group.shard(s);
                per_shard[static_cast<std::size_t>(s)].push_back(
                    static_cast<std::uint64_t>(s) * 1000000 +
                    static_cast<std::uint64_t>(pod.Now()));
                for (int r = 0; r < 2; ++r) {
                    pod.ScheduleAfter(Microseconds(s), [&, s] {
                        group.Post(
                            s, 0,
                            group.shard(s).Now() + Microseconds(7),
                            [&, s] {
                                per_shard[0].push_back(
                                    static_cast<std::uint64_t>(s) +
                                    static_cast<std::uint64_t>(
                                        group.shard(0).Now()) *
                                        10);
                            });
                    });
                }
            });
        }
    });
    const std::uint64_t fired = group.Run();
    std::vector<std::uint64_t> transcript;
    for (const auto& t : per_shard) {
        transcript.insert(transcript.end(), t.begin(), t.end());
    }
    EXPECT_EQ(transcript.size(), 9u);  // 3 pod receipts + 6 bounces.
    EXPECT_EQ(TranscriptDigest(transcript, fired, group.profile()),
              0x8EB3CC4EF856C83Cull);
}

TEST(SimulatorGroup, SkipAheadCrossesIdleGaps) {
    // One event now, the next a simulated second later: Run() must
    // jump the gap instead of spinning ~200k empty 5µs epochs — pinned
    // indirectly by the fired count (2 events, not epochs * overhead)
    // and exactly by the fire times.
    SimulatorGroup group(GroupConfig(2, Microseconds(5)));
    std::vector<Time> fired;
    group.shard(1).ScheduleAt(Microseconds(1),
                              [&] { fired.push_back(group.shard(1).Now()); });
    group.shard(1).ScheduleAt(Seconds(1),
                              [&] { fired.push_back(group.shard(1).Now()); });
    const std::uint64_t total = group.Run();
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(fired, (std::vector<Time>{Microseconds(1), Seconds(1)}));
}

TEST(SimulatorGroup, DaemonsDoNotKeepRunAlive) {
    // A self-rescheduling daemon heartbeat on shard 1 must not prevent
    // Run() from terminating once foreground work drains.
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    int beats = 0;
    std::function<void()> beat = [&] {
        ++beats;
        group.shard(1).ScheduleDaemonAfter(Microseconds(1), [&] { beat(); });
    };
    group.shard(1).ScheduleDaemonAt(Microseconds(1), [&] { beat(); });
    bool foreground_done = false;
    group.shard(0).ScheduleAt(Microseconds(25), [&] {
        foreground_done = true;
    });
    group.Run();
    EXPECT_TRUE(foreground_done);
    EXPECT_GT(beats, 0);
}

TEST(SimulatorGroup, RunUntilFinalEpochIsInclusive) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    bool at_horizon = false;
    bool beyond = false;
    group.shard(1).ScheduleAt(Microseconds(30), [&] { at_horizon = true; });
    group.shard(1).ScheduleAt(Microseconds(31), [&] { beyond = true; });
    group.RunUntil(Microseconds(30));
    EXPECT_TRUE(at_horizon);
    EXPECT_FALSE(beyond);
    EXPECT_EQ(group.Now(), Microseconds(30));
    group.Run();
    EXPECT_TRUE(beyond);
}

// Teardown pin: destroying the group while shards still hold pending
// cross-shard deliveries (scheduled beyond the last horizon) must
// destroy the undelivered closures — and whatever they own — without
// invoking them. ASan/LSan turn a leak or double-free here into a
// failure.
TEST(SimulatorGroup, TeardownWithInFlightMailboxTraffic) {
    auto payload = std::make_shared<int>(42);
    bool invoked = false;
    {
        SimulatorGroup group(GroupConfig(3, Microseconds(10)));
        group.shard(1).ScheduleAt(Microseconds(1), [&, payload] {
            group.Post(1, 2, Microseconds(500), [&invoked, payload] {
                invoked = true;
            });
            group.Post(1, 0, Microseconds(500), [&invoked, payload] {
                invoked = true;
            });
        });
        // Stop long before the deliveries: the posts crossed the first
        // barrier and now sit queued on shards 0 and 2.
        // The posting event has fired (its copy died with it); the two
        // undelivered closures hold one reference each.
        group.RunUntil(Microseconds(20));
        EXPECT_EQ(payload.use_count(), 3);
    }
    EXPECT_FALSE(invoked);
    EXPECT_EQ(payload.use_count(), 1);
}

TEST(SimulatorGroup, PostOutsideRunAppliesDirectly) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    // Outside Run() there is no epoch to respect: the message applies
    // directly, even at a delivery nearer than the epoch width.
    Time fired_at = -1;
    group.Post(0, 1, Microseconds(2), [&] { fired_at = group.shard(1).Now(); });
    group.Run();
    EXPECT_EQ(fired_at, Microseconds(2));
}

TEST(SimulatorGroup, EventsFiredAggregatesAcrossShards) {
    const std::uint64_t before = GlobalEventsFired();
    SimulatorGroup group(GroupConfig(4, Microseconds(5)));
    for (int s = 0; s < 4; ++s) {
        for (int i = 0; i < 10; ++i) {
            group.shard(s).ScheduleAt(Microseconds(i + 1), [] {});
        }
    }
    const std::uint64_t fired = group.Run();
    EXPECT_EQ(fired, 40u);
    // Multi-shard runs report to the process-wide counter like
    // single-simulator ones.
    EXPECT_EQ(GlobalEventsFired() - before, 40u);
}

// ---- Per-edge lookahead ----------------------------------------------

// A narrow edge must let its destination receive messages closer than
// the group's default epoch — and the reverse direction must keep its
// own, wider guarantee. Delivery times pin both.
TEST(SimulatorGroupEdges, AsymmetricMatrixDeliversPerEdge) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    ASSERT_TRUE(group.SetEdgeLookahead(0, 1, Microseconds(2)));
    EXPECT_EQ(group.edge_lookahead(0, 1), Microseconds(2));
    EXPECT_EQ(group.edge_lookahead(1, 0), Microseconds(10));
    Time forward = -1;
    Time backward = -1;
    group.shard(0).ScheduleAt(Microseconds(5), [&] {
        group.Post(0, 1, group.shard(0).Now() + Microseconds(2), [&] {
            forward = group.shard(1).Now();
            group.Post(1, 0, group.shard(1).Now() + Microseconds(10),
                       [&] { backward = group.shard(0).Now(); });
        });
    });
    group.Run();
    EXPECT_EQ(forward, Microseconds(7));
    EXPECT_EQ(backward, Microseconds(17));
}

// The per-round bound is the min-plus closure of the edge matrix, not
// the raw matrix: with the direct 1 -> 2 edge severed, the 1 -> 0 -> 2
// relay still bounds how soon shard 2 can hear from shard 1.
TEST(SimulatorGroupEdges, ClosureFollowsRelayPath) {
    SimulatorGroup group(GroupConfig(3, Microseconds(10)));
    ASSERT_TRUE(
        group.SetEdgeLookahead(1, 2, SimulatorGroup::kUnreachable));
    ASSERT_TRUE(group.SetEdgeLookahead(1, 0, Microseconds(3)));
    ASSERT_TRUE(group.SetEdgeLookahead(0, 2, Microseconds(4)));
    EXPECT_EQ(group.edge_lookahead(1, 2), SimulatorGroup::kUnreachable);
    EXPECT_EQ(group.path_lookahead(1, 2), Microseconds(7));
    EXPECT_EQ(group.path_lookahead(1, 0), Microseconds(3));
}

// Tightest-incoming-edge advance: with a huge default epoch, a single
// narrow edge still delivers at its own pace, and a local event that
// predates the delivery keeps its place in time.
TEST(SimulatorGroupEdges, TightestIncomingEdgeGovernsAdvance) {
    SimulatorGroup group(GroupConfig(3, Microseconds(50)));
    ASSERT_TRUE(group.SetEdgeLookahead(0, 2, Microseconds(2)));
    std::vector<std::pair<int, Time>> fired;  // (tag, when)
    group.shard(2).ScheduleAt(Microseconds(1), [&] {
        fired.emplace_back(0, group.shard(2).Now());
    });
    group.shard(0).ScheduleAt(Microseconds(1), [&] {
        group.Post(0, 2, group.shard(0).Now() + Microseconds(2), [&] {
            fired.emplace_back(1, group.shard(2).Now());
        });
    });
    group.Run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], std::make_pair(0, Microseconds(1)));
    EXPECT_EQ(fired[1], std::make_pair(1, Microseconds(3)));
}

// Attach-time contract: before the first run an edge may narrow (the
// attach asserts what the path really guarantees); after the first run
// a narrower promise would retroactively invalidate already-executed
// rounds, so it is rejected. Same or wider is always accepted.
TEST(SimulatorGroupEdges, NarrowingRejectedOnceRunning) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    EXPECT_TRUE(group.SetEdgeLookahead(0, 1, Microseconds(4)));
    group.shard(1).ScheduleAt(Microseconds(1), [] {});
    group.Run();
    EXPECT_FALSE(group.SetEdgeLookahead(0, 1, Microseconds(3)));
    EXPECT_EQ(group.edge_lookahead(0, 1), Microseconds(4));
    EXPECT_TRUE(group.SetEdgeLookahead(0, 1, Microseconds(4)));
    EXPECT_TRUE(group.SetEdgeLookahead(0, 1, Microseconds(9)));
    EXPECT_EQ(group.edge_lookahead(0, 1), Microseconds(9));
}

// Mutually unreachable shards decouple completely: each runs its local
// timeline to completion without epoch round-trips with the other.
TEST(SimulatorGroupEdges, UnreachableEdgesDecoupleShards) {
    SimulatorGroup group(GroupConfig(2, Microseconds(5)));
    ASSERT_TRUE(
        group.SetEdgeLookahead(0, 1, SimulatorGroup::kUnreachable));
    ASSERT_TRUE(
        group.SetEdgeLookahead(1, 0, SimulatorGroup::kUnreachable));
    std::vector<Time> fired0;
    std::vector<Time> fired1;
    for (int i = 1; i <= 3; ++i) {
        group.shard(0).ScheduleAt(Seconds(i),
                                  [&] { fired0.push_back(group.shard(0).Now()); });
        group.shard(1).ScheduleAt(Milliseconds(i),
                                  [&] { fired1.push_back(group.shard(1).Now()); });
    }
    EXPECT_EQ(group.Run(), 6u);
    EXPECT_EQ(fired0,
              (std::vector<Time>{Seconds(1), Seconds(2), Seconds(3)}));
    EXPECT_EQ(fired1, (std::vector<Time>{Milliseconds(1), Milliseconds(2),
                                         Milliseconds(3)}));
}

// An asymmetric edge matrix under multi-round chatter: seven pods with
// per-pod inject and completion lookaheads, so bounces from different
// pods tie at the coordinator. The transcript (which records each
// bounce's source, in arrival order) and the round statistics hash to
// a constant pinned before the mailbox drain lost its sort.
TEST(SimulatorGroupEdges, AsymmetricChatterTranscriptIsPinned) {
    SimulatorGroup group(GroupConfig(8, Microseconds(20)));
    for (int s = 1; s < 8; ++s) {
        // Inject edge narrower than the epoch (legal pre-run),
        // completion edge per-pod asymmetric.
        EXPECT_TRUE(group.SetEdgeLookahead(0, s, Microseconds(2 + s)));
        EXPECT_TRUE(group.SetEdgeLookahead(s, 0, Microseconds(17 - s)));
    }
    std::vector<std::vector<std::uint64_t>> per_shard(8);
    group.shard(0).ScheduleAt(0, [&] {
        for (int s = 1; s < 8; ++s) {
            const Time out = group.edge_lookahead(0, s);
            group.Post(0, s, group.shard(0).Now() + out, [&, s] {
                Simulator& pod = group.shard(s);
                per_shard[static_cast<std::size_t>(s)].push_back(
                    static_cast<std::uint64_t>(s) * 1000000 +
                    static_cast<std::uint64_t>(pod.Now()));
                for (int r = 0; r < 3; ++r) {
                    pod.ScheduleAfter(Microseconds(s + r), [&, s] {
                        const Time back = group.edge_lookahead(s, 0);
                        group.Post(s, 0, group.shard(s).Now() + back, [&, s] {
                            per_shard[0].push_back(
                                static_cast<std::uint64_t>(s) +
                                static_cast<std::uint64_t>(
                                    group.shard(0).Now()) *
                                    10);
                        });
                    });
                }
            });
        }
    });
    const std::uint64_t fired = group.Run();
    std::vector<std::uint64_t> transcript;
    for (const auto& t : per_shard) {
        transcript.insert(transcript.end(), t.begin(), t.end());
    }
    EXPECT_EQ(transcript.size(), 28u);  // 7 receipts + 21 bounces.
    EXPECT_EQ(TranscriptDigest(transcript, fired, group.profile()),
              0x880A077C04FC1C63ull);
}

// ---- Misuse ------------------------------------------------------------
//
// Each aborts in every build, release included, naming the call and the
// bad value.

TEST(SimulatorGroupDeathTest, ConstructorRejectsMisuse) {
    EXPECT_DEATH(SimulatorGroup{GroupConfig(0, Microseconds(5))},
                 "SimulatorGroup: shards 0 < 1");
    EXPECT_DEATH(SimulatorGroup{GroupConfig(2, 0)},
                 "SimulatorGroup: epoch 0 ps; the default lookahead must "
                 "be positive");
}

TEST(SimulatorGroupDeathTest, SetEdgeLookaheadRejectsMisuse) {
    SimulatorGroup group(GroupConfig(3, Microseconds(5)));
    EXPECT_DEATH(group.SetEdgeLookahead(3, 0, Microseconds(1)),
                 "SetEdgeLookahead: from shard 3 outside \\[0, 3\\)");
    EXPECT_DEATH(group.SetEdgeLookahead(1, 1, Microseconds(1)),
                 "SetEdgeLookahead: self-edge 1->1");
    EXPECT_DEATH(group.SetEdgeLookahead(0, 2, 0),
                 "SetEdgeLookahead: lookahead 0 ps on edge 0->2 must be "
                 "positive");
}

TEST(SimulatorGroupDeathTest, LookupsRejectAShardOutOfRange) {
    SimulatorGroup group(GroupConfig(3, Microseconds(5)));
    EXPECT_DEATH(group.edge_lookahead(0, -1),
                 "edge_lookahead: to shard -1 outside \\[0, 3\\)");
    EXPECT_DEATH(group.path_lookahead(4, 0),
                 "path_lookahead: from shard 4 outside \\[0, 3\\)");
}

TEST(SimulatorGroupDeathTest, PostRejectsMisuse) {
    SimulatorGroup group(GroupConfig(2, Microseconds(10)));
    EXPECT_DEATH(group.Post(0, 2, Microseconds(20), [] {}),
                 "Post: to shard 2 outside \\[0, 2\\)");
    // A 1 us hop on a 10 us edge: shard 0 may already have run past
    // the delivery time.
    group.shard(1).ScheduleAt(Microseconds(3), [&group] {
        group.Post(1, 0, group.shard(1).Now() + Microseconds(1), [] {});
    });
    EXPECT_DEATH(group.Run(),
                 "Post: message 1->0 delivers at 4000000 ps, before the "
                 "destination's round bound 13000000 ps \\(cross-shard hop "
                 "shorter than the declared edge lookahead\\)");
}

}  // namespace
}  // namespace catapult::sim
