// Simulator-core microbenchmark: raw event-queue throughput.
//
// The table/figure benches measure whole-pipeline wall time, where the
// kernel is one cost among many. This harness isolates the event queue
// itself: schedule/cancel/pop mixes at different pending-set densities
// and horizon spreads, with both inline-stored and heap-boxed callables.
// Events/second per scenario is the figure of merit the PR-over-PR
// baselines track. The reference binary heap now lives only in the
// tests (as an oracle), so its sweep rows are gone: this bench's
// events_fired is 12 x 400,000 lower than in baselines that ran them.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "sim/simulator.h"
#include "sim/simulator_group.h"

namespace catapult {
namespace {

using sim::EventHandle;
using sim::Simulator;

struct Lcg {
    std::uint64_t state = 0x853C49E6748FEA9Bull;
    std::uint64_t Next() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
};

/** Delay spreads: how far ahead of now_ new events land. */
enum class Spread { kNear, kMid, kFar, kMixed };

const char* ToString(Spread spread) {
    switch (spread) {
      case Spread::kNear: return "near(ns)";
      case Spread::kMid: return "mid(us)";
      case Spread::kFar: return "far(ms)";
      case Spread::kMixed: return "mixed";
    }
    return "?";
}

Time DrawDelay(Spread spread, Lcg& rng) {
    switch (spread) {
      case Spread::kNear:
        return Nanoseconds(static_cast<Time>(rng.Next() % 500));
      case Spread::kMid:
        return Microseconds(static_cast<Time>(rng.Next() % 100));
      case Spread::kFar:
        return Milliseconds(static_cast<Time>(rng.Next() % 200));
      case Spread::kMixed:
        switch (rng.Next() % 3) {
          case 0: return Nanoseconds(static_cast<Time>(rng.Next() % 500));
          case 1: return Microseconds(static_cast<Time>(rng.Next() % 100));
          default: return Milliseconds(static_cast<Time>(rng.Next() % 200));
        }
    }
    return 0;
}

struct Scenario {
    Spread spread;
    int pending;          ///< Steady-state pending-event density.
    int cancel_percent;   ///< Share of scheduled events cancelled early.
    bool boxed_callable;  ///< Pad captures past the SBO budget.
};

struct Outcome {
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
};

/**
 * Self-sustaining churn: each fired event reschedules itself, keeping
 * `pending` events in flight; a slice of schedules is cancelled and
 * immediately replaced (the timeout-path pattern). Runs until
 * `target_fired` events have fired.
 */
Outcome RunScenario(const Scenario& scenario, std::uint64_t target_fired) {
    Simulator sim;
    Lcg rng;
    std::uint64_t fired = 0;

    // Oversized ballast forces the heap-boxed callable path.
    struct Ballast {
        std::array<std::uint64_t, 12> pad{};
    };

    std::function<void()> pump = [&] {
        ++fired;
        Time delay = DrawDelay(scenario.spread, rng);
        if (static_cast<int>(rng.Next() % 100) < scenario.cancel_percent) {
            // Schedule-then-cancel: the cancelled event still costs a
            // slot acquire + lazy skip, the mix the timeout paths make.
            EventHandle doomed = sim.ScheduleAfter(delay, [] {});
            sim.Cancel(doomed);
            delay = DrawDelay(scenario.spread, rng);
        }
        if (scenario.boxed_callable) {
            Ballast ballast;
            ballast.pad[11] = rng.Next();
            sim.ScheduleAfter(delay, [&pump, ballast] {
                (void)ballast.pad[11];
                pump();
            });
        } else {
            sim.ScheduleAfter(delay, [&pump] { pump(); });
        }
    };

    for (int i = 0; i < scenario.pending; ++i) {
        sim.ScheduleAfter(DrawDelay(scenario.spread, rng),
                          [&pump] { pump(); });
    }

    const auto start = std::chrono::steady_clock::now();
    while (fired < target_fired && sim.Step()) {
    }
    const auto end = std::chrono::steady_clock::now();

    Outcome out;
    out.events = fired;
    out.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    out.events_per_sec =
        out.wall_ms > 0.0 ? static_cast<double>(fired) / (out.wall_ms / 1e3)
                          : 0.0;
    return out;
}

/**
 * SimulatorGroup sweep: self-sustaining churn on every shard where a
 * slice of fired events crosses a shard boundary through the mailbox
 * at the edge's lookahead. Isolates the cost of rounds, bound
 * computation and canonical drains as shard count, lookahead width and
 * cross-shard traffic ratio vary — in lock-step and on the
 * work-stealing executor pool.
 */
Outcome RunGroupScenario(int shards, Time lookahead, int mailbox_pct,
                         bool parallel, Time horizon) {
    sim::SimulatorGroup::Config config;
    config.shards = shards;
    config.epoch = lookahead;
    config.parallel = parallel;
    config.max_threads = shards;
    sim::SimulatorGroup group(config);

    struct ShardState {
        Lcg rng;
        std::function<void()> pump;
    };
    std::vector<ShardState> state(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        ShardState& st = state[static_cast<std::size_t>(s)];
        st.rng.state ^=
            0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(s + 1);
        // Each firing continues exactly one pump: locally after a short
        // draw, or on the ring-neighbour shard one lookahead out. Every
        // shard touches only its own state, so the parallel run is
        // race-free by construction.
        st.pump = [&group, &state, s, shards, mailbox_pct, lookahead] {
            ShardState& self = state[static_cast<std::size_t>(s)];
            if (static_cast<int>(self.rng.Next() % 100) < mailbox_pct) {
                const int to = (s + 1) % shards;
                group.Post(s, to, group.shard(s).Now() + lookahead,
                           [&state, to] {
                               state[static_cast<std::size_t>(to)].pump();
                           });
            } else {
                group.shard(s).ScheduleAfter(
                    Microseconds(
                        static_cast<Time>(self.rng.Next() % 10)),
                    [&state, s] {
                        state[static_cast<std::size_t>(s)].pump();
                    });
            }
        };
        for (int i = 0; i < 64; ++i) {
            group.shard(s).ScheduleAfter(
                Microseconds(static_cast<Time>(st.rng.Next() % 10)),
                [&state, s] {
                    state[static_cast<std::size_t>(s)].pump();
                });
        }
    }

    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t fired = group.RunUntil(horizon);
    const auto end = std::chrono::steady_clock::now();

    Outcome out;
    out.events = fired;
    out.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    out.events_per_sec =
        out.wall_ms > 0.0 ? static_cast<double>(fired) / (out.wall_ms / 1e3)
                          : 0.0;
    return out;
}

/**
 * Observability overhead probe: a fig15-style paced-load run on a
 * sharded 2-pod federation that loses pod 0 mid-run and re-admits it —
 * the scenario where every pillar of the plane is live (query spans,
 * failover instants, FDR postmortem, executor profile, hub snapshots).
 */
enum class ObsMode { kOff, kMetrics, kTracing };

struct ObsOutcome {
    Outcome run;
    std::string snapshot_json;  ///< One-line merged snapshot (kTracing).
    bool trace_complete = false;  ///< failover + fdr present in timeline.
};

ObsOutcome RunObservedFederation(ObsMode mode) {
    service::FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 2;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(30);
    config.pod.host.hard_reboot_duration = Milliseconds(40);
    config.pod.host.crash_reboot_delay = Milliseconds(10);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(30);
    config.sharding.enabled = true;
    config.observability.enabled = mode != ObsMode::kOff;
    config.observability.tracing = mode == ObsMode::kTracing;
    service::FederationTestbed bed(config);
    ObsOutcome out;
    if (!bed.DeployAndSettle()) return out;

    const Time blackout_at = bed.Now() + Milliseconds(30);
    bed.pod(0).failure_injector().SchedulePodBlackout(blackout_at);
    bed.simulator().ScheduleAt(blackout_at + Milliseconds(30), [&] {
        bed.ReattachPod(0, [](bool) {});
    });
    rank::DocumentGenerator generator(41);
    for (int i = 0; i < 4'000; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(20) * i + Milliseconds(1), [&bed, &generator, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                bed.dispatcher().Inject(i % 32, request,
                                        [](const service::ScoreResult&) {});
            });
    }

    const auto start = std::chrono::steady_clock::now();
    out.run.events = bed.Run();
    const auto end = std::chrono::steady_clock::now();
    out.run.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    out.run.events_per_sec =
        out.run.wall_ms > 0.0
            ? static_cast<double>(out.run.events) / (out.run.wall_ms / 1e3)
            : 0.0;
    if (mode == ObsMode::kTracing) {
        out.snapshot_json =
            bed.observability()->SnapshotJson(bed.Now(), true);
        const std::string trace = bed.observability()->TraceJson();
        out.trace_complete =
            trace.find("\"failover\"") != std::string::npos &&
            trace.find("\"fdr\"") != std::string::npos &&
            trace.find("\"query\"") != std::string::npos;
    }
    return out;
}

}  // namespace
}  // namespace catapult

int main() {
    using namespace catapult;
    bench::Banner(
        "Simulator core: event-queue schedule/cancel/pop throughput",
        "kernel for all of Putnam et al., ISCA 2014 reproductions");

    constexpr std::uint64_t kTarget = 400'000;

    std::printf("\nDensity x spread sweep (%llu events each, 10%% cancel)\n",
                static_cast<unsigned long long>(kTarget));
    bench::Row({"spread", "pending", "wall_ms", "events_per_s"});
    for (const auto spread :
         {Spread::kNear, Spread::kMid, Spread::kFar, Spread::kMixed}) {
        for (const int pending : {16, 256, 4096}) {
            Scenario scenario{spread, pending, 10, false};
            const Outcome out = RunScenario(scenario, kTarget);
            bench::Row({ToString(spread), bench::FmtInt(pending),
                        bench::Fmt(out.wall_ms, 1),
                        bench::FmtInt(
                            static_cast<long long>(out.events_per_sec))});
        }
    }

    std::printf("\nCancellation-heavy mix (wheel, mixed spread, 256 pending)\n");
    bench::Row({"cancel_pct", "wall_ms", "events_per_s"});
    for (const int cancel : {0, 30, 70}) {
        Scenario scenario{Spread::kMixed, 256, cancel, false};
        const Outcome out = RunScenario(scenario, kTarget);
        bench::Row({bench::FmtInt(cancel), bench::Fmt(out.wall_ms, 1),
                    bench::FmtInt(
                        static_cast<long long>(out.events_per_sec))});
    }

    std::printf("\nCallable storage (wheel, mixed spread, 256 pending)\n");
    bench::Row({"callable", "wall_ms", "events_per_s"});
    for (const bool boxed : {false, true}) {
        Scenario scenario{Spread::kMixed, 256, 10, boxed};
        const Outcome out = RunScenario(scenario, kTarget);
        bench::Row({boxed ? "heap-boxed" : "inline-sbo",
                    bench::Fmt(out.wall_ms, 1),
                    bench::FmtInt(
                        static_cast<long long>(out.events_per_sec))});
    }

    // Sharded-runtime sweep. On a single hardware core the parallel
    // column reports executor-pool overhead, not speedup — the
    // differential tests guarantee both columns simulate identically.
    std::printf(
        "\nSimulatorGroup sweep (10 ms simulated horizon, cores=%u):\n",
        std::thread::hardware_concurrency());
    bench::Row({"shards", "lookahead_us", "mailbox_pct", "events",
                "lockstep_ev_s", "parallel_ev_s"});
    const Time horizon = Milliseconds(10);
    for (const int shards : {2, 8}) {
        for (const Time lookahead : {Microseconds(5), Microseconds(50)}) {
            for (const int mailbox : {0, 10, 50}) {
                const Outcome lockstep = RunGroupScenario(
                    shards, lookahead, mailbox, /*parallel=*/false,
                    horizon);
                const Outcome threaded = RunGroupScenario(
                    shards, lookahead, mailbox, /*parallel=*/true,
                    horizon);
                bench::Row(
                    {bench::FmtInt(shards),
                     bench::FmtInt(static_cast<long long>(
                         ToMicroseconds(lookahead))),
                     bench::FmtInt(mailbox),
                     bench::FmtInt(static_cast<long long>(lockstep.events)),
                     bench::FmtInt(static_cast<long long>(
                         lockstep.events_per_sec)),
                     bench::FmtInt(static_cast<long long>(
                         threaded.events_per_sec))});
            }
        }
    }

    // Observability overhead: the same blackout + re-admission
    // federation run with the plane off, metrics-only (tracing off),
    // and with full distributed tracing. The plane must observe
    // without perturbing — identical simulated events in all three
    // modes — and full tracing must stay within 10% of the tracing-off
    // wall time (best of 3, plus a small absolute allowance so
    // sub-100 ms runs on noisy shared runners don't flap the gate).
    // The plane-off column is the no-regression reference bench/run_all
    // --compare tracks against the previous PR's baseline.
    std::printf("\nObservability overhead (sharded 2-pod blackout + "
                "re-admission, best of 3)\n");
    struct ModeRow {
        ObsMode mode;
        const char* name;
    };
    const ModeRow modes[] = {{ObsMode::kOff, "off"},
                             {ObsMode::kMetrics, "metrics"},
                             {ObsMode::kTracing, "tracing"}};
    double best_wall[3] = {0.0, 0.0, 0.0};
    std::uint64_t events_by_mode[3] = {0, 0, 0};
    ObsOutcome traced;
    bench::Row({"observability", "wall_ms", "events", "events_per_s"});
    for (int m = 0; m < 3; ++m) {
        ObsOutcome best;
        for (int rep = 0; rep < 3; ++rep) {
            ObsOutcome out = RunObservedFederation(modes[m].mode);
            if (rep == 0 || out.run.wall_ms < best.run.wall_ms) best = out;
        }
        best_wall[m] = best.run.wall_ms;
        events_by_mode[m] = best.run.events;
        if (modes[m].mode == ObsMode::kTracing) traced = best;
        bench::Row({modes[m].name, bench::Fmt(best.run.wall_ms, 1),
                    bench::FmtInt(static_cast<long long>(best.run.events)),
                    bench::FmtInt(
                        static_cast<long long>(best.run.events_per_sec))});
    }
    const double overhead_pct =
        best_wall[1] > 0.0
            ? (best_wall[2] - best_wall[1]) / best_wall[1] * 100.0
            : 0.0;
    std::printf("[obs_overhead_pct] %.1f\n", overhead_pct);
    // The merged snapshot of the fully-traced run, one line, for
    // bench/run_all to fold into the PR baseline JSON.
    std::printf("[metrics_snapshot] %s\n", traced.snapshot_json.c_str());

    bool ok = true;
    if (events_by_mode[0] != events_by_mode[1] ||
        events_by_mode[0] != events_by_mode[2]) {
        std::printf("FAIL: observability perturbed the simulation "
                    "(events %llu/%llu/%llu)\n",
                    static_cast<unsigned long long>(events_by_mode[0]),
                    static_cast<unsigned long long>(events_by_mode[1]),
                    static_cast<unsigned long long>(events_by_mode[2]));
        ok = false;
    }
    if (!traced.trace_complete) {
        std::printf("FAIL: traced run missing query/failover/fdr records "
                    "in the stitched timeline\n");
        ok = false;
    }
    if (best_wall[2] > best_wall[1] * 1.10 + 25.0) {
        std::printf("FAIL: full tracing overhead %.1f%% over tracing-off "
                    "exceeds the 10%% gate (%.1f ms vs %.1f ms)\n",
                    overhead_pct, best_wall[2], best_wall[1]);
        ok = false;
    }
    if (!ok) return 1;
    std::printf("PASS: full-tracing overhead %.1f%% over tracing-off "
                "(gate 10%%), simulation unperturbed\n",
                overhead_pct);
    return 0;
}
