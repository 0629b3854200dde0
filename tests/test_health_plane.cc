// The autonomic health plane (§3.3, §3.5): telemetry bus, heartbeat
// watchdog, reboot-ladder edge cases, hysteresis, and the end-to-end
// detect -> drain -> rotate -> rejoin loop with no explicit
// Investigate or RecoverRing call anywhere in a test body.

#include <gtest/gtest.h>

#include <vector>

#include "mgmt/telemetry_bus.h"
#include "rank/document_generator.h"
#include "service/load_generator.h"
#include "service/testbed.h"

namespace catapult::service {
namespace {

// ------------------------------------------------------------------ bus

TEST(TelemetryBus, PublishDeliversToSubscribersWithTimestamp) {
    sim::Simulator sim;
    mgmt::TelemetryBus bus(&sim);
    std::vector<mgmt::TelemetryEvent> seen_a;
    std::vector<mgmt::TelemetryEvent> seen_b;
    Subscription a = bus.Subscribe(
        [&](const mgmt::TelemetryEvent& e) { seen_a.push_back(e); });
    const Subscription b = bus.Subscribe(
        [&](const mgmt::TelemetryEvent& e) { seen_b.push_back(e); });
    EXPECT_EQ(bus.subscriber_count(), 2);

    sim.ScheduleAt(Milliseconds(5), [&] {
        bus.Publish(7, mgmt::TelemetryKind::kLinkCrcError);
    });
    sim.Run();
    ASSERT_EQ(seen_a.size(), 1u);
    EXPECT_EQ(seen_a[0].node, 7);
    EXPECT_EQ(seen_a[0].kind, mgmt::TelemetryKind::kLinkCrcError);
    EXPECT_EQ(seen_a[0].timestamp, Milliseconds(5));

    a.Reset();
    EXPECT_FALSE(a.active());
    EXPECT_EQ(bus.subscriber_count(), 1);
    bus.Publish(3, mgmt::TelemetryKind::kDmaStall);
    EXPECT_EQ(seen_a.size(), 1u);  // unsubscribed
    EXPECT_EQ(seen_b.size(), 2u);
    EXPECT_EQ(seen_b[1].node, 3);
}

TEST(TelemetryBus, ScopedSubscriptionUnsubscribesOnDestruction) {
    sim::Simulator sim;
    mgmt::TelemetryBus bus(&sim);
    int seen = 0;
    {
        Subscription subscription =
            bus.Subscribe([&](const mgmt::TelemetryEvent&) { ++seen; });
        EXPECT_TRUE(subscription.active());
        EXPECT_EQ(bus.subscriber_count(), 1);
        bus.Publish(0, mgmt::TelemetryKind::kDmaStall);
        EXPECT_EQ(seen, 1);
        // Moving the handle keeps the one subscription alive.
        Subscription moved = std::move(subscription);
        EXPECT_TRUE(moved.active());
        EXPECT_FALSE(subscription.active());
        bus.Publish(0, mgmt::TelemetryKind::kDmaStall);
        EXPECT_EQ(seen, 2);
    }
    // Handle destroyed: the callback (whose captures may be dead) can
    // never be invoked again.
    EXPECT_EQ(bus.subscriber_count(), 0);
    bus.Publish(0, mgmt::TelemetryKind::kDmaStall);
    EXPECT_EQ(seen, 2);
}

TEST(TelemetryBus, DestroyedHealthMonitorIsNeverInvoked) {
    // Regression: tearing a monitor down while its bus lives (a pod
    // leaving a federation) must drop the subscription; publishing a
    // critical event afterwards would otherwise call into freed memory
    // (ASan job covers the dangling-callback half).
    PodTestbed bed;  // default pod: fabric + bus, health plane wired
    ASSERT_TRUE(bed.DeployAndSettle());
    mgmt::TelemetryBus bus(&bed.simulator());
    {
        mgmt::HealthMonitor monitor(&bed.simulator(), &bed.fabric(),
                                    bed.hosts());
        monitor.AttachTelemetry(&bus);
        EXPECT_EQ(bus.subscriber_count(), 1);
    }
    EXPECT_EQ(bus.subscriber_count(), 0);
    bus.Publish(5, mgmt::TelemetryKind::kTemperatureShutdown);
}

TEST(TelemetryBus, EventsCarryThePublishingPodsId) {
    sim::Simulator sim;
    mgmt::TelemetryBus bus(&sim, /*pod_id=*/3);
    mgmt::TelemetryEvent seen;
    const Subscription subscription =
        bus.Subscribe([&](const mgmt::TelemetryEvent& event) { seen = event; });
    bus.Publish(9, mgmt::TelemetryKind::kLinkDown);
    EXPECT_EQ(seen.pod, 3);
    EXPECT_EQ(seen.node, 9);
    EXPECT_EQ(bus.pod_id(), 3);
}

TEST(TelemetryBus, CriticalKindsAreTheHardFaults) {
    EXPECT_TRUE(
        mgmt::IsCriticalTelemetry(mgmt::TelemetryKind::kTemperatureShutdown));
    EXPECT_TRUE(
        mgmt::IsCriticalTelemetry(mgmt::TelemetryKind::kDramCalibrationLoss));
    EXPECT_FALSE(mgmt::IsCriticalTelemetry(mgmt::TelemetryKind::kLinkCrcError));
    EXPECT_FALSE(
        mgmt::IsCriticalTelemetry(mgmt::TelemetryKind::kApplicationError));
}

// ----------------------------------------------------------- test rig

/**
 * Fast reboot/deploy times plus a watchdog cadence tight enough that
 * detection happens within tens of simulated milliseconds.
 */
PodTestbed::Config PlaneConfig(int rings = 1) {
    PodTestbed::Config config;
    config.service.models.model.expression_count = 300;
    config.service.models.model.tree_count = 900;
    config.fabric.device.configure_time = Milliseconds(10);
    config.host.soft_reboot_duration = Milliseconds(200);
    config.host.hard_reboot_duration = Milliseconds(500);
    config.host.crash_reboot_delay = Milliseconds(50);
    config.ring_count = rings;
    config.health.heartbeat_period = Milliseconds(10);
    config.health.query_timeout = Milliseconds(50);
    config.health.investigation_cooldown = Milliseconds(100);
    return config;
}

int InjectBatch(PodTestbed& bed, int count, std::uint64_t seed) {
    rank::DocumentGenerator generator(seed);
    int completed = 0;
    for (int i = 0; i < count; ++i) {
        rank::CompressedRequest request = generator.Next();
        request.query.model_id = 0;
        bed.pool().Inject(i % 16, request, [&](const ScoreResult& r) {
            if (r.ok) ++completed;
        });
    }
    bed.simulator().Run();
    return completed;
}

// ------------------------------------------------- heartbeat watchdog

TEST(HealthPlane, WatchdogInvestigatesCrashedHostWithoutBeingAsked) {
    PodTestbed::Config config = PlaneConfig();
    // No self-heal before the ladder: the crash reboot never fires
    // within the test window.
    config.host.crash_reboot_delay = Seconds(10);
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const int node = 9;  // idle node off the ring's torus row
    bed.host(node).CrashAndReboot("unattended crash");
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(2));

    const auto& counters = bed.health_monitor().counters();
    EXPECT_GT(counters.heartbeats_sent, 0u);
    EXPECT_GE(counters.heartbeat_misses, 3u);
    EXPECT_GE(counters.auto_investigations, 1u);
    // §3.5 ladder: the soft reboot brought it back.
    ASSERT_EQ(bed.health_monitor().failed_machine_list().size(), 1u);
    const auto& report = bed.health_monitor().failed_machine_list()[0];
    EXPECT_EQ(report.node, node);
    EXPECT_EQ(report.fault, mgmt::FaultType::kUnresponsiveRecovered);
    EXPECT_TRUE(report.needed_soft_reboot);
    EXPECT_FALSE(report.needed_hard_reboot);
    EXPECT_TRUE(bed.host(node).responsive());
}

TEST(HealthPlane, LadderEscalatesToHardRebootWhenSoftFails) {
    PodTestbed::Config config = PlaneConfig();
    config.host.crash_reboot_delay = Seconds(10);
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const int node = 9;
    bed.host(node).BreakBoot(/*soft_failures=*/1);
    bed.host(node).CrashAndReboot("disk corruption");
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(2));

    ASSERT_EQ(bed.health_monitor().failed_machine_list().size(), 1u);
    const auto& report = bed.health_monitor().failed_machine_list()[0];
    EXPECT_EQ(report.fault, mgmt::FaultType::kUnresponsiveRecovered);
    EXPECT_TRUE(report.needed_soft_reboot);
    EXPECT_TRUE(report.needed_hard_reboot);
    EXPECT_TRUE(bed.host(node).responsive());
    EXPECT_FALSE(bed.health_monitor().node_dead(node));
}

TEST(HealthPlane, LadderExhaustedFlagsForServiceAndStopsPinging) {
    PodTestbed::Config config = PlaneConfig();
    config.host.crash_reboot_delay = Seconds(10);
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const int node = 9;
    bed.host(node).BreakBoot(/*soft_failures=*/100, /*permanent=*/true);
    bed.host(node).CrashAndReboot("dead motherboard");
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(2));

    ASSERT_EQ(bed.health_monitor().failed_machine_list().size(), 1u);
    EXPECT_EQ(bed.health_monitor().failed_machine_list()[0].fault,
              mgmt::FaultType::kUnresponsiveFatal);
    EXPECT_EQ(bed.host(node).state(), host::ServerState::kFlaggedForService);
    EXPECT_EQ(bed.health_monitor().counters().flagged_for_service, 1u);
    EXPECT_TRUE(bed.health_monitor().node_dead(node));

    // Dead machines wait for manual service: no more heartbeats, no
    // repeat investigations.
    const auto investigations =
        bed.health_monitor().counters().auto_investigations;
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(2));
    EXPECT_EQ(bed.health_monitor().counters().auto_investigations,
              investigations);
    EXPECT_EQ(bed.health_monitor().counters().flagged_for_service, 1u);
}

TEST(HealthPlane, FatalRingNodeIsRotatedOutAndNeverRejoinsRotation) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 2;
    const int node = bed.service().RingNode(failed_position);
    bed.host(node).BreakBoot(/*soft_failures=*/100, /*permanent=*/true);
    bed.host(node).CrashAndReboot("dead motherboard");
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(3));

    // The plane flagged the machine and rotated its stage to the spare.
    EXPECT_EQ(bed.host(node).state(), host::ServerState::kFlaggedForService);
    EXPECT_GE(bed.pool().counters().auto_recoveries, 1u);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));

    // The dead server is skipped by the injection rotation: traffic
    // completes without it ever rejoining.
    EXPECT_EQ(InjectBatch(bed, 16, 7), 16);
    EXPECT_EQ(bed.host(node).state(), host::ServerState::kFlaggedForService);
}

// --------------------------------------------- telemetry-burst events

TEST(HealthPlane, TransientLinkFlapInvestigatesButDoesNotThrashTheRing) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    // Count link-down events seen on the bus.
    int link_events = 0;
    const Subscription subscription =
        bed.telemetry().Subscribe([&](const mgmt::TelemetryEvent& e) {
            if (e.kind == mgmt::TelemetryKind::kLinkDown) ++link_events;
        });

    // 5 ms flap on a mid-ring east link while documents stream through
    // it: every drop publishes, the burst marks the node suspect.
    const int node = bed.service().RingNode(3);
    bed.failure_injector().ScheduleLinkFlap(
        node, shell::Port::kEast, bed.simulator().Now() + Milliseconds(2),
        Milliseconds(5));

    rank::DocumentGenerator generator(13);
    int completed = 0;
    for (int i = 0; i < 60; ++i) {
        bed.simulator().ScheduleAfter(Microseconds(300) * i, [&, i] {
            rank::CompressedRequest request = generator.Next();
            request.query.model_id = 0;
            bed.service().Inject(i % 8, i % 16, request,
                                 [&](const ScoreResult& r) {
                                     if (r.ok) ++completed;
                                 });
        });
    }
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(1));

    // The burst was noticed and investigated — with zero heartbeat
    // misses (the host never went down)...
    EXPECT_GE(link_events, 3);
    EXPECT_GE(bed.health_monitor().counters().telemetry_events, 3u);
    EXPECT_GE(bed.health_monitor().counters().auto_investigations, 1u);
    EXPECT_EQ(bed.health_monitor().counters().heartbeat_misses, 0u);
    // ...but by the time the status query returned, the link had
    // relocked: hysteresis keeps the ring in rotation (no drain, no
    // rotation, no thrash).
    EXPECT_TRUE(bed.health_monitor().failed_machine_list().empty());
    EXPECT_EQ(bed.pool().counters().auto_recoveries, 0u);
    EXPECT_TRUE(bed.pool().ring_available(0));
    EXPECT_EQ(bed.service().StageAt(3), rank::PipelineStage::kCompression);
    // Both cable ends drop during the flap, so documents in flight or
    // queued behind the dark window time out; the post-relock tail
    // completes.
    EXPECT_GE(completed, 25);
}

TEST(HealthPlane, ThermalShutdownIsCriticalAndRecoversTheRing) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 4;
    const int node = bed.service().RingNode(failed_position);
    bed.failure_injector().ScheduleThermalShutdown(
        node, bed.simulator().Now() + Milliseconds(1));
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(1));

    // One event — critical — was enough: no burst, no missed heartbeat.
    EXPECT_EQ(bed.health_monitor().counters().heartbeat_misses, 0u);
    ASSERT_FALSE(bed.health_monitor().failed_machine_list().empty());
    EXPECT_EQ(bed.health_monitor().failed_machine_list()[0].fault,
              mgmt::FaultType::kTemperatureShutdown);
    // The overheating node was rotated out; the ring serves on.
    EXPECT_GE(bed.pool().counters().auto_recoveries, 1u);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));
    EXPECT_EQ(InjectBatch(bed, 16, 11), 16);
}

TEST(HealthPlane, DramCalibrationLossIsCriticalAndRecoversTheRing) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 6;
    const int node = bed.service().RingNode(failed_position);
    bed.failure_injector().ScheduleDramCalibrationFailure(
        node, /*channel=*/0, bed.simulator().Now() + Milliseconds(1));
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(1));

    ASSERT_FALSE(bed.health_monitor().failed_machine_list().empty());
    EXPECT_EQ(bed.health_monitor().failed_machine_list()[0].fault,
              mgmt::FaultType::kDramError);
    EXPECT_GE(bed.pool().counters().auto_recoveries, 1u);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));
}

TEST(HealthPlane, CriticalFaultDuringCooldownIsDeferredNotDropped) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 4;
    const int node = bed.service().RingNode(failed_position);
    const Time start = bed.simulator().Now();

    // Put the node into investigation hysteresis first: a short CRC
    // salvo marks it suspect, the status query finds it healthy (the
    // events came straight off the bus, no real fault), and the kNone
    // conclusion opens the investigation cooldown.
    for (int i = 1; i <= 3; ++i) {
        bed.simulator().ScheduleAt(start + Milliseconds(i), [&, node] {
            bed.telemetry().Publish(node,
                                    mgmt::TelemetryKind::kLinkCrcError);
        });
    }
    // The real fault lands inside that cooldown (the status query waits
    // kEthernetLatency + query_timeout, so the kNone conclusion lands
    // near 53 ms and the cooldown runs to ~153 ms). The thermal model
    // latches the excursion (one event per crossing, never repeated)
    // and the host keeps answering heartbeats, so only the deferred
    // re-suspicion can ever see it.
    bed.failure_injector().ScheduleThermalShutdown(node,
                                                   start + Milliseconds(80));
    bed.simulator().RunUntil(start + Seconds(2));

    EXPECT_GE(bed.health_monitor().counters().auto_investigations, 2u);
    ASSERT_FALSE(bed.health_monitor().failed_machine_list().empty());
    EXPECT_EQ(bed.health_monitor().failed_machine_list()[0].fault,
              mgmt::FaultType::kTemperatureShutdown);
    EXPECT_GE(bed.pool().counters().auto_recoveries, 1u);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));
}

TEST(HealthPlane, CriticalFaultDuringInvestigationIsCapturedExactlyOnce) {
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 4;
    const int node = bed.service().RingNode(failed_position);
    const Time start = bed.simulator().Now();

    // Open an investigation with a CRC salvo, then land the real fault
    // while the status query is still outstanding (it waits
    // kEthernetLatency + query_timeout ≈ 50 ms before reading health).
    for (int i = 1; i <= 3; ++i) {
        bed.simulator().ScheduleAt(start + Milliseconds(i), [&, node] {
            bed.telemetry().Publish(node,
                                    mgmt::TelemetryKind::kLinkCrcError);
        });
    }
    bed.failure_injector().ScheduleThermalShutdown(node,
                                                   start + Milliseconds(20));
    bed.simulator().RunUntil(start + Seconds(2));

    // The in-flight query observed the latched fault, so the parked
    // critical suspicion is satisfied: one investigation, one report,
    // one recovery — no duplicate re-investigation of the excursion.
    EXPECT_EQ(bed.health_monitor().counters().auto_investigations, 1u);
    ASSERT_EQ(bed.health_monitor().failed_machine_list().size(), 1u);
    EXPECT_EQ(bed.health_monitor().failed_machine_list()[0].fault,
              mgmt::FaultType::kTemperatureShutdown);
    EXPECT_EQ(bed.pool().counters().auto_recoveries, 1u);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));
}

TEST(HealthPlane, SecondFailureInRecoveryCooldownIsDeferredNotDropped) {
    PodTestbed::Config config = PlaneConfig();
    // No self-heal: each crashed host stays down until the ladder's
    // soft reboot brings it back.
    config.host.crash_reboot_delay = Seconds(10);
    PodTestbed bed(config);
    ASSERT_TRUE(bed.DeployAndSettle());

    const int position_a = 2;
    const int position_b = 5;
    const int node_a = bed.service().RingNode(position_a);
    const int node_b = bed.service().RingNode(position_b);
    const Time start = bed.simulator().Now();

    bed.simulator().ScheduleAt(start + Milliseconds(1), [&] {
        bed.host(node_a).CrashAndReboot("incident A");
    });
    // Node B fails while the plane is still settling node A's ring:
    // its confirmed report lands mid-recovery or inside the rejoin
    // cooldown. Dropped, B's stage would time out forever — after the
    // soft reboot B answers heartbeats and no fresh telemetry fires —
    // so the report must be deferred and replayed.
    bed.simulator().ScheduleAt(start + Milliseconds(100), [&] {
        bed.host(node_b).CrashAndReboot("incident B");
    });
    bed.simulator().RunUntil(start + Seconds(5));

    EXPECT_GE(bed.pool().counters().suppressed_reports, 1u);
    EXPECT_EQ(bed.pool().counters().auto_recoveries, 2u);
    // The second rotation moved the spare role over B's position.
    EXPECT_EQ(bed.service().StageAt(position_b),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.pool().ring_available(0));
    // The ring genuinely serves: a stranded (RX-halted) node at B's
    // old stage would surface here as lost documents.
    EXPECT_EQ(InjectBatch(bed, 16, 7), 16);
}

// ----------------------------------------------- stranded-node remap

TEST(HealthPlane, StrandedRebootedSpareIsReconfiguredInPlace) {
    // A manual (legacy-shim) RecoverRing rotates the crashed node out
    // before the watchdog concludes; when the node comes back it is a
    // spare with RX Halt still engaged. The plane's re-mapping fallback
    // — not the pool — restores it.
    PodTestbed bed(PlaneConfig());
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_position = 5;
    const int node = bed.service().RingNode(failed_position);
    bed.host(node).CrashAndReboot("incident");
    bool recovered = false;
    bed.pool().RecoverRing(0, failed_position,
                           [&](bool ok) { recovered = ok; });
    bed.simulator().RunUntil(bed.simulator().Now() + Seconds(2));

    ASSERT_TRUE(recovered);
    EXPECT_EQ(bed.service().StageAt(failed_position),
              rank::PipelineStage::kSpare);
    EXPECT_TRUE(bed.host(node).responsive());
    // The watchdog-triggered investigation found the node healthy but
    // RX-halted after its unplanned reboot, and the Mapping Manager
    // reconfigured it in place — no manual ReconfigureInPlace call.
    EXPECT_FALSE(bed.fabric().shell(node).rx_halted());
    EXPECT_GE(bed.mapping_manager().counters().reconfigurations, 1u);
}

// ------------------------------------------------- acceptance (E2E)

TEST(HealthPlane, EndToEndAutonomicRingRecoveryUnderLoad) {
    // ISSUE 3 acceptance: a pool serving traffic, a FailureInjector
    // fault on a ring node, detection by heartbeat/telemetry, drain,
    // spare rotation, rejoin — with no explicit Investigate or
    // RecoverRing call in this test body.
    PodTestbed bed(PlaneConfig(/*rings=*/3));
    ASSERT_TRUE(bed.DeployAndSettle());

    const int failed_ring = 1;
    const int failed_position = 3;
    const int failed_node =
        bed.pool().ring(failed_ring).RingNode(failed_position);
    const Time fault_time = bed.simulator().Now() + Milliseconds(30);
    bed.failure_injector().ScheduleMachineReboot(failed_node, fault_time);

    Time drained_at = 0;
    Time recovered_at = 0;
    bed.pool().set_on_ring_drained([&](int ring) {
        if (ring == failed_ring && drained_at == 0) {
            drained_at = bed.simulator().Now();
        }
    });
    bed.pool().set_on_ring_recovered([&](int ring) {
        if (ring == failed_ring) recovered_at = bed.simulator().Now();
    });

    // Steady offered load across the incident: 300 documents, one
    // every 1.5 ms, spanning crash, detection, drain, and rejoin.
    constexpr int kDocuments = 300;
    rank::DocumentGenerator generator(41);
    int completed = 0;
    int failed = 0;
    for (int i = 0; i < kDocuments; ++i) {
        bed.simulator().ScheduleAfter(
            Microseconds(1500) * i + Milliseconds(1), [&, i] {
                rank::CompressedRequest request = generator.Next();
                request.query.model_id = 0;
                const auto status = bed.pool().Inject(
                    i % 32, request, [&](const ScoreResult& r) {
                        if (r.ok) {
                            ++completed;
                        } else {
                            ++failed;
                        }
                    });
                if (status != host::SendStatus::kOk) ++failed;
            });
    }
    bed.simulator().Run();

    // Detected and healed autonomically.
    EXPECT_GE(bed.health_monitor().counters().auto_investigations, 1u);
    EXPECT_EQ(bed.pool().counters().auto_recoveries, 1u);
    ASSERT_GT(drained_at, 0);
    ASSERT_GT(recovered_at, drained_at);
    // Detection latency: fault to drain within a handful of heartbeat
    // periods plus the status-query timeout.
    EXPECT_LT(drained_at - fault_time, Milliseconds(500));
    // All rings healthy at the end; the spare absorbed the lost stage.
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(bed.pool().ring_available(k)) << "ring " << k;
    }
    EXPECT_EQ(bed.pool().ring(failed_ring).StageAt(failed_position),
              rank::PipelineStage::kSpare);
    // Traffic kept flowing to survivors during the drain, and the pool
    // served at least the single-failure-adjusted target: only
    // documents in flight on the broken ring around the fault may be
    // lost.
    EXPECT_GT(bed.pool().counters().redirected, 0u);
    EXPECT_GE(completed, kDocuments - 32);
    EXPECT_LE(failed, 32);
}

}  // namespace
}  // namespace catapult::service
