#include "mgmt/failure_injector.h"

#include <cassert>

#include "common/log.h"

namespace catapult::mgmt {

FailureInjector::FailureInjector(sim::Simulator* simulator,
                                 fabric::CatapultFabric* fabric,
                                 std::vector<host::HostServer*> hosts)
    : simulator_(simulator), fabric_(fabric), hosts_(std::move(hosts)) {
    assert(simulator_ != nullptr);
    assert(fabric_ != nullptr);
}

void FailureInjector::ScheduleMachineReboot(int node, Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node] {
        hosts_[static_cast<std::size_t>(node)]->CrashAndReboot(
            "injected maintenance reboot");
    });
}

void FailureInjector::SchedulePodBlackout(Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this] {
        LOG_WARN("inject") << "pod blackout: " << hosts_.size()
                           << " hosts lost";
        for (std::size_t i = 0; i < hosts_.size(); ++i) {
            // Permanent: soft and hard reboots both fail, so the
            // Health Monitor's ladder flags every node for service.
            hosts_[i]->BreakBoot(/*soft_failures=*/1'000'000,
                                 /*permanent=*/true);
            hosts_[i]->CrashAndReboot("pod blackout");
            // The power domain takes the FPGAs with it: every shell's
            // links go dark the same instant (RX Halt engaged, §3.4),
            // so in-flight documents on the pod's rings are dropped
            // and surface as driver timeouts at their injectors — and
            // with no live host to release the halt, the pod stays
            // dark until manual service.
            fabric_->shell(static_cast<int>(i)).EngageRxHalt();
        }
    });
}

void FailureInjector::ScheduleApplicationHang(int node, Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node] {
        LOG_WARN("inject") << "application hang on node " << node;
        fabric_->shell(node).FlagApplicationError();
    });
}

void FailureInjector::ScheduleCableDefect(int node, shell::Port port,
                                          Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node, port] {
        LOG_WARN("inject") << "cable defect on node " << node << " port "
                           << shell::ToString(port);
        fabric_->InjectCableDefect(node, port);
    });
}

void FailureInjector::ScheduleSeuStorm(int node, Time when,
                                       double upsets_per_second) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node, upsets_per_second] {
        LOG_WARN("inject") << "SEU storm on node " << node << " ("
                           << upsets_per_second << "/s)";
        // Restart the scrubber with the elevated rate.
        auto& scrubber = fabric_->device(node).scrubber();
        scrubber.Stop();
        scrubber.set_upset_rate(upsets_per_second);
        scrubber.Start();
    });
}

void FailureInjector::ScheduleDramCalibrationFailure(int node, int channel,
                                                     Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node, channel] {
        LOG_WARN("inject") << "DRAM calibration failure on node " << node
                           << " channel " << channel;
        fabric_->shell(node).dram(channel).set_calibrated(false);
    });
}

void FailureInjector::ScheduleUngracefulReconfig(int node, Time when) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node] {
        LOG_WARN("inject") << "ungraceful reconfiguration on node " << node;
        fabric_->shell(node).Reconfigure(fpga::FlashSlot::kApplication,
                                         /*graceful=*/false, [](bool) {});
    });
}

void FailureInjector::ScheduleThermalShutdown(int node, Time when,
                                              double inlet_celsius) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node, inlet_celsius] {
        LOG_WARN("inject") << "thermal shutdown on node " << node
                           << " (inlet " << inlet_celsius << " C)";
        auto& device = fabric_->device(node);
        auto& thermal = device.thermal_mutable();
        thermal.set_inlet_celsius(inlet_celsius);
        thermal.SnapToSteadyState(device.CurrentPowerWatts());
        // Re-reading the thermals detects the crossing and publishes
        // the temperature-shutdown event.
        device.UpdateThermals();
    });
}

void FailureInjector::ScheduleLinkFlap(int node, shell::Port port, Time when,
                                       Time duration) {
    ++injected_;
    simulator_->ScheduleAt(when, [this, node, port, duration] {
        shell::Sl3Link& link = fabric_->shell(node).link(port);
        if (link.defective()) {
            // Already down — a permanent cable defect or an overlapping
            // flap. Piling on adds nothing, and the relock below must
            // not heal the pre-existing condition.
            LOG_WARN("inject") << "link flap on node " << node << " port "
                               << shell::ToString(port)
                               << " skipped: link already defective";
            return;
        }
        LOG_WARN("inject") << "link flap on node " << node << " port "
                           << shell::ToString(port) << " for "
                           << FormatTime(duration);
        // Both cable ends drop, as InjectCableDefect models it.
        link.set_defective(true);
        if (link.peer() != nullptr) link.peer()->set_defective(true);
        // Known limit: a permanent defect injected on this same port
        // *inside* the flap window is cleared by this relock (the link
        // carries a single defective bit, not a depth count). Scenarios
        // must not stack contradictory injections on one port.
        simulator_->ScheduleAfter(duration, [this, node, port] {
            shell::Sl3Link& down = fabric_->shell(node).link(port);
            down.set_defective(false);
            if (down.peer() != nullptr) down.peer()->set_defective(false);
        });
    });
}

void FailureInjector::ScheduleDegradationRamp(const std::vector<int>& nodes,
                                              Time when, Time interval,
                                              Time flap_duration) {
    Time at = when;
    for (const int node : nodes) {
        ScheduleThermalShutdown(node, at);
        // The flap rides slightly behind the shutdown so its link-down
        // burst lands while the thermal investigation is in flight —
        // compounding fault pressure, exactly the trend signature the
        // forecaster windows over.
        ScheduleLinkFlap(node, shell::Port::kEast, at + interval / 4,
                         flap_duration);
        at += interval;
    }
}

}  // namespace catapult::mgmt
