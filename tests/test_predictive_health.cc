// Predictive health plane: HealthForecaster trend/band edges (cold-
// start grace, hysteresis, re-admission reset), score-weighted dispatch
// with proactive shedding, the fatal latch beating a stale-good score,
// live pod re-admission with its warm-up ramp, per-ring admission caps,
// and cross-pod FDR trace replay.

#include <gtest/gtest.h>

#include <vector>

#include "mgmt/health_forecaster.h"
#include "rank/document_generator.h"
#include "service/federation_testbed.h"
#include "service/load_generator.h"
#include "service/stage_role.h"
#include "service/testbed.h"
#include "service/trace_replay.h"

namespace catapult::service {
namespace {

// ----------------------------------------------------- forecaster unit

struct ForecasterHarness {
    sim::Simulator simulator;
    mgmt::TelemetryBus bus{&simulator, /*pod_id=*/0};
    Feed<mgmt::HealthScoreSample> feed;
    std::vector<mgmt::HealthScoreSample> samples;
    Subscription subscription = feed.Subscribe(
        [this](const mgmt::HealthScoreSample& s) { samples.push_back(s); });

    explicit ForecasterHarness(mgmt::HealthForecaster::Config config)
        : forecaster(&simulator, &feed, config) {
        forecaster.AttachTelemetry(&bus);
        forecaster.Start();
    }

    mgmt::HealthForecaster forecaster;
};

mgmt::HealthForecaster::Config FastForecast() {
    mgmt::HealthForecaster::Config config;
    config.sample_period = Milliseconds(1);
    config.window_samples = 4;
    config.warmup_samples = 4;
    return config;
}

TEST(HealthForecaster, ColdStartGraceHoldsBandThroughFirstWindow) {
    ForecasterHarness h(FastForecast());
    // Fault storm from tick zero: plenty of signal, but no verdict may
    // be issued before one full trend window has been observed.
    for (int i = 0; i < 40; ++i) {
        h.simulator.ScheduleAt(Microseconds(200) * i, [&h] {
            h.bus.Publish(3, mgmt::TelemetryKind::kTemperatureShutdown);
        });
    }
    h.simulator.RunUntil(Milliseconds(9));
    ASSERT_GE(h.samples.size(), 8u);
    for (std::size_t i = 0; i < h.samples.size(); ++i) {
        if (i + 1 < 4) {
            EXPECT_EQ(h.samples[i].band, mgmt::HealthBand::kWarmingUp)
                << "sample " << i << " banded inside the grace window";
        }
    }
    // The storm is judged the moment the window fills: straight to a
    // shed-worthy band, score well down.
    EXPECT_EQ(h.samples.back().band, mgmt::HealthBand::kCritical);
    EXPECT_LT(h.forecaster.score(), 0.35);
}

TEST(HealthForecaster, ScoreRecoversAndBandsExitWithHysteresis) {
    ForecasterHarness h(FastForecast());
    // 8 ms of storm, then quiet: the score must sink, then climb back,
    // and every band change must pass through Degraded (no teleport
    // from Critical to Healthy without clearing both exits).
    for (int i = 0; i < 40; ++i) {
        h.simulator.ScheduleAt(Microseconds(200) * i, [&h] {
            h.bus.Publish(3, mgmt::TelemetryKind::kLinkDown);
        });
    }
    h.simulator.RunUntil(Milliseconds(60));
    EXPECT_EQ(h.forecaster.band(), mgmt::HealthBand::kHealthy);
    EXPECT_GT(h.forecaster.score(), 0.85);
    bool saw_critical = false;
    bool saw_degraded_after_critical = false;
    for (std::size_t i = 1; i < h.samples.size(); ++i) {
        const auto prev = h.samples[i - 1].band;
        const auto cur = h.samples[i].band;
        if (cur == mgmt::HealthBand::kCritical) saw_critical = true;
        if (prev == mgmt::HealthBand::kCritical &&
            cur == mgmt::HealthBand::kDegraded) {
            saw_degraded_after_critical = true;
        }
        // Hysteresis invariant: Critical never exits straight to
        // Healthy unless the score cleared the Degraded exit too.
        if (prev == mgmt::HealthBand::kCritical &&
            cur == mgmt::HealthBand::kHealthy) {
            EXPECT_GT(h.samples[i].score, 0.85);
        }
    }
    EXPECT_TRUE(saw_critical);
    EXPECT_TRUE(saw_degraded_after_critical);
}

TEST(HealthForecaster, ScoreHoveringAtThresholdDoesNotFlapTheBand) {
    auto config = FastForecast();
    config.window_samples = 8;
    // De-fang the event weight so this test can place the steady-state
    // score precisely: one event per full window reads as stress 0.25,
    // i.e. instantaneous health 0.8 — inside the Degraded dead zone
    // (above the 0.70 enter, below the 0.85 exit).
    config.fault_event_weight = 0.002;
    ForecasterHarness h(config);
    // A burst dips the score below the Degraded enter threshold...
    h.simulator.ScheduleAt(Milliseconds(10), [&h] {
        for (int i = 0; i < 4; ++i) {
            h.bus.Publish(5, mgmt::TelemetryKind::kLinkCrcError);
        }
    });
    // ...then a metronome (one event per window span) holds the score
    // at ~0.8: it recovers *past* the 0.70 enter threshold but never
    // past the 0.85 exit. A plain threshold would flip the band back
    // to Healthy the moment the score re-crossed 0.70; the hysteresis
    // must hold Degraded for the whole hover, with zero flaps.
    for (int i = 0; i < 49; ++i) {
        h.simulator.ScheduleAt(Milliseconds(11) + Milliseconds(8) * i, [&h] {
            h.bus.Publish(5, mgmt::TelemetryKind::kDmaStall);
        });
    }
    h.simulator.RunUntil(Milliseconds(400));
    EXPECT_EQ(h.forecaster.band(), mgmt::HealthBand::kDegraded);
    // The score provably hovered in the dead zone at the end...
    EXPECT_GT(h.forecaster.score(), 0.70);
    EXPECT_LT(h.forecaster.score(), 0.85);
    // ...and the band moved exactly twice ever: WarmingUp -> Healthy
    // at the end of the grace window, Healthy -> Degraded on the
    // burst. No flapping across the re-crossed threshold.
    EXPECT_EQ(h.forecaster.counters().band_transitions, 2u);
}

TEST(HealthForecaster, ResetForReadmissionRestartsGraceAndScore) {
    ForecasterHarness h(FastForecast());
    for (int i = 0; i < 60; ++i) {
        h.simulator.ScheduleAt(Microseconds(200) * i, [&h] {
            h.bus.Publish(1, mgmt::TelemetryKind::kTemperatureShutdown);
        });
    }
    h.simulator.RunUntil(Milliseconds(14));
    ASSERT_EQ(h.forecaster.band(), mgmt::HealthBand::kCritical);
    ASSERT_LT(h.forecaster.score(), 0.35);

    h.forecaster.ResetForReadmission();
    EXPECT_EQ(h.forecaster.band(), mgmt::HealthBand::kWarmingUp);
    EXPECT_EQ(h.forecaster.score(), 1.0);
    // The reset published immediately (dispatchers see the fresh state
    // without waiting a tick).
    EXPECT_EQ(h.samples.back().band, mgmt::HealthBand::kWarmingUp);

    // Quiet hardware + a fresh grace: the pod re-bands as Healthy one
    // full window later, with no Critical relapse from stale history.
    const std::size_t reset_at = h.samples.size();
    h.simulator.RunUntil(Milliseconds(40));
    ASSERT_GT(h.samples.size(), reset_at + 4);
    for (std::size_t i = reset_at; i < h.samples.size(); ++i) {
        EXPECT_NE(h.samples[i].band, mgmt::HealthBand::kCritical)
            << "stale pre-service history leaked into sample " << i;
    }
    EXPECT_EQ(h.forecaster.band(), mgmt::HealthBand::kHealthy);
}

// ------------------------------------------- federation configuration

FederationTestbed::Config PredictiveFederation(int pods, int rings) {
    FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = rings;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.pod.host.soft_reboot_duration = Milliseconds(200);
    config.pod.host.hard_reboot_duration = Milliseconds(500);
    config.pod.host.crash_reboot_delay = Milliseconds(50);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(50);
    config.dispatcher.policy = FederationPolicy::kScoreWeighted;
    return config;
}

// -------------------------------------------------- predictive shed

TEST(PredictiveDispatch, DegradationRampShedsPodBeforeHardFailure) {
    auto config = PredictiveFederation(/*pods=*/2, /*rings=*/2);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    // A thermal/link ramp marches across two nodes of each of pod 0's
    // rings (second hit exhausts the ring's spare). Pure trend signal:
    // hosts stay responsive, so only the predictive plane can move the
    // traffic before queries start dying on pod 0.
    std::vector<int> ramp_nodes = {
        bed.pod(0).pool().ring(0).RingNode(1),
        bed.pod(0).pool().ring(1).RingNode(2),
        bed.pod(0).pool().ring(0).RingNode(3),
        bed.pod(0).pool().ring(1).RingNode(4),
    };
    const Time ramp_at = bed.simulator().Now() + Milliseconds(30);
    bed.pod(0).failure_injector().ScheduleDegradationRamp(
        ramp_nodes, ramp_at, Milliseconds(15));

    const LoadResult result = RunOpenLoop(
        {FederationTarget(&bed.dispatcher())},
        {.rate = 10'000.0,
         .duration = Milliseconds(300),
         .phase_offsets = {Milliseconds(30)}},
        /*poisson=*/nullptr);

    // The pod was proactively shed...
    EXPECT_GE(bed.dispatcher().counters().sheds, 1u);
    const auto pod0 = bed.dispatcher().pod_stats(0);
    EXPECT_GE(pod0.shed_transitions, 1u);
    // ...and the shed is numerically visible: accepted queries routed
    // around pod 0 while it was out of rotation.
    EXPECT_GT(pod0.shed_queries, 0u);
    // Nothing accepted was lost across the whole incident.
    EXPECT_EQ(result.timeouts, 0u);
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_EQ(result.completed, result.accepted);
    // The healthy pod carried the bulk of the incident phase.
    EXPECT_GT(bed.pod(1).pool().counters().dispatched,
              bed.pod(0).pool().counters().dispatched);
}

TEST(PredictiveDispatch, FatalLatchBeatsStaleGoodScore) {
    // Forecaster off: the feed never publishes, so the dispatcher's
    // view of pod 0 stays default-healthy (score 1.0) forever — a
    // stale-good score. The reactive fatal latch must still win.
    auto config = PredictiveFederation(/*pods=*/2, /*rings=*/1);
    config.pod.predictive = false;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    bed.pod(0).failure_injector().SchedulePodBlackout(
        bed.simulator().Now() + Milliseconds(10));
    rank::DocumentGenerator generator(71);
    int completed = 0;
    for (int i = 0; i < 400; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(200) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                bed.dispatcher().Inject(
                    i % 32, request,
                    [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; });
            });
    }
    bed.simulator().Run();

    const auto pod0 = bed.dispatcher().pod_stats(0);
    EXPECT_EQ(pod0.health_score, 1.0);  // the feed never said otherwise
    EXPECT_EQ(pod0.dead_nodes, 48);
    EXPECT_FALSE(pod0.eligible);  // ...but the latch holds it out
    EXPECT_FALSE(bed.dispatcher().pod_eligible(0));
    EXPECT_TRUE(bed.dispatcher().pod_eligible(1));
    EXPECT_EQ(bed.dispatcher().counters().lost, 0u);
    EXPECT_GT(completed, 0);
}

// ------------------------------------------------------ re-admission

TEST(Readmission, ServicedPodRejoinsWithWarmupRamp) {
    auto config = PredictiveFederation(/*pods=*/2, /*rings=*/1);
    config.dispatcher.readmission_warmup = Milliseconds(50);
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    // Lose pod 0 outright and let the incident settle.
    bed.pod(0).failure_injector().SchedulePodBlackout(
        bed.simulator().Now() + Milliseconds(5));
    bed.simulator().Run();
    ASSERT_EQ(bed.dispatcher().pod_dead_nodes(0), 48);
    ASSERT_FALSE(bed.dispatcher().pod_eligible(0));

    // Live re-admission: service + redeploy + hot-attach.
    bool reattached = false;
    bed.ReattachPod(0, [&](bool ok) { reattached = ok; });
    bed.simulator().Run();
    ASSERT_TRUE(reattached);
    const auto stats = bed.dispatcher().pod_stats(0);
    EXPECT_EQ(stats.readmitted, 1u);
    EXPECT_EQ(stats.dead_nodes, 0);
    EXPECT_EQ(bed.dispatcher().counters().readmissions, 1u);
    EXPECT_TRUE(bed.dispatcher().pod_eligible(0));

    // Inside the warm-up window the rejoining pod earns only a partial
    // share; it must serve some traffic (it is back) but less than the
    // incumbent (it has not earned parity yet).
    const std::uint64_t pod0_before = bed.pod(0).pool().counters().dispatched;
    const std::uint64_t pod1_before = bed.pod(1).pool().counters().dispatched;
    rank::DocumentGenerator generator(73);
    int completed = 0;
    for (int i = 0; i < 80; ++i) {
        bed.simulator().ScheduleAfter(Microseconds(500) * i, [&, i] {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = 0;
            bed.dispatcher().Inject(
                i % 32, request,
                [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; });
        });
    }
    bed.simulator().Run();
    const std::uint64_t pod0_served =
        bed.pod(0).pool().counters().dispatched - pod0_before;
    const std::uint64_t pod1_served =
        bed.pod(1).pool().counters().dispatched - pod1_before;
    EXPECT_EQ(completed, 80);
    EXPECT_GT(pod0_served, 0u);
    EXPECT_LT(pod0_served, pod1_served);
}

// ------------------------------------------------- per-ring admission

TEST(PoolAdmission, PerRingCapRejectsInsteadOfQueuing) {
    PodTestbed::Config config;
    config.ring_count = 2;
    config.max_in_flight_per_ring = 2;
    config.fabric.device.configure_time = Milliseconds(5);
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    rank::DocumentGenerator generator(41);
    int accepted = 0;
    int rejected = 0;
    int completed = 0;
    for (int i = 0; i < 10; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        const auto status = bed.pool().Inject(
            i, request,
            [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; });
        if (status == host::SendStatus::kOk) {
            ++accepted;
        } else {
            ++rejected;
        }
    }
    // Two rings x cap 2: the fifth arrival onward answers immediately
    // with a reject — bounded in flight, nothing queued.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(rejected, 6);
    EXPECT_EQ(bed.pool().counters().cap_rejected, 6u);
    EXPECT_EQ(bed.pool().counters().rejected, 6u);
    EXPECT_EQ(bed.pool().total_in_flight(), 4);
    bed.simulator().Run();
    EXPECT_EQ(completed, 4);

    // Capacity drained: the cap admits again, and cap_rejected tells
    // admission control apart from failure rejects.
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;
    EXPECT_EQ(bed.pool().Inject(0, request, [](const ScoreResult&) {}),
              host::SendStatus::kOk);
    bed.simulator().Run();
}

// ------------------------------------------------ cross-pod replay

TEST(FederationTraceReplay, RetriedQueryReplaysFromSurvivorArchive) {
    // Pod 0 accepts queries but its ring is hung (health plane off, so
    // nothing heals it): every query landing there times out and
    // retries onto pod 1. The federation-level replay must resolve
    // each completed query to the archive of the pod that actually
    // scored it — survivors included — and flag the hung pod's
    // never-completed attempts as missing.
    FederationTestbed::Config config;
    config.pod_count = 2;
    config.pod.ring_count = 1;
    config.pod.autonomic = false;
    config.pod.service.compute_scores = true;
    config.pod.service.archive_traces = true;
    config.pod.service.models.model.expression_count = 300;
    config.pod.service.models.model.tree_count = 900;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    config.dispatcher.policy = FederationPolicy::kRoundRobin;
    FederationTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());
    for (int i = 0; i < RankingService::kRingLength; ++i) {
        bed.pod(0).pool().ring(0).role(i).Hang();
    }

    rank::DocumentGenerator generator(404);
    int completed = 0;
    int accepted = 0;
    for (int i = 0; i < 12; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        const auto status = bed.dispatcher().Inject(
            i, request,
            [&](const ScoreResult& r) { completed += r.ok ? 1 : 0; });
        if (status == host::SendStatus::kOk) ++accepted;
        bed.simulator().Run();
    }
    ASSERT_EQ(accepted, 12);
    ASSERT_EQ(completed, 12);  // every retry landed on the survivor

    // Stream both pods' head-node FDR windows; check them against both
    // pod-level archives.
    std::vector<std::vector<shell::FdrRecord>> windows;
    std::vector<const TraceArchive*> archives;
    for (int p = 0; p < 2; ++p) {
        RankingService& ring = bed.pod(p).pool().ring(0);
        windows.push_back(
            bed.pod(p).fabric().shell(ring.RingNode(0)).fdr().StreamOut());
        archives.push_back(bed.pod(p).trace_archive());
        ASSERT_NE(archives.back(), nullptr);
    }
    auto& function = bed.pod(1).pool().ring(0).FunctionFor(0);
    const auto report =
        TraceReplayer::ReplayFederation(windows, archives, function);

    // Every completed query replays bit-exactly from the archive of
    // the pod that scored it; pod 0's timed-out attempts (requests in
    // its FDR that never produced a score) surface as missing — the
    // §3.6 signature of a query that died mid-pod.
    EXPECT_EQ(report.matched, 12);
    EXPECT_EQ(report.mismatched, 0);
    EXPECT_GT(report.missing, 0);
    EXPECT_EQ(report.requests_in_window, 12 + report.missing);

    // The pod-level archives are disjoint trace-id spaces: pod 1 holds
    // every completed score (all retries finished there), pod 0 none.
    EXPECT_EQ(bed.pod(1).trace_archive()->size(), 12u);
    EXPECT_EQ(bed.pod(0).trace_archive()->size(), 0u);
}

}  // namespace
}  // namespace catapult::service
