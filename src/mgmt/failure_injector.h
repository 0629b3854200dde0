// Failure injection for resilience experiments.
//
// §3.5 reports the failures actually observed at scale: "transient
// phenomena, primarily machine reboots due to maintenance or other
// unresponsive services". This utility schedules those plus the fault
// classes the platform is designed to survive: surprise machine
// reboots, application hangs, cable defects, SEU storms, DRAM
// calibration failures and ungraceful (garbage-spraying)
// reconfigurations.

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

class FailureInjector {
  public:
    FailureInjector(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                    std::vector<host::HostServer*> hosts);

    FailureInjector(const FailureInjector&) = delete;
    FailureInjector& operator=(const FailureInjector&) = delete;

    /** Surprise maintenance reboot of `node` at `when`. */
    void ScheduleMachineReboot(int node, Time when);

    /**
     * Whole-pod blackout at `when`: every host crashes with its boot
     * path permanently broken (power/cooling domain loss). The §3.5
     * ladder ends in flag-for-manual-service for every node, so the
     * pod never returns — the federation's dispatcher must carry the
     * traffic on surviving pods.
     */
    void SchedulePodBlackout(Time when);

    /** Application hang: the role stops responding at `when`. */
    void ScheduleApplicationHang(int node, Time when);

    /** Cable goes bad at `when` (connector damage during service). */
    void ScheduleCableDefect(int node, shell::Port port, Time when);

    /** Raise the SEU rate on `node` by `factor` starting at `when`. */
    void ScheduleSeuStorm(int node, Time when, double upsets_per_second);

    /** DRAM DIMM loses calibration at `when`. */
    void ScheduleDramCalibrationFailure(int node, int channel, Time when);

    /** Ungraceful reconfiguration (no TX-Halt protocol) at `when`. */
    void ScheduleUngracefulReconfig(int node, Time when);

    /**
     * Cooling failure at `when`: the inlet air rises to
     * `inlet_celsius` (server exhaust with a dead fan) and the die
     * jumps to its steady-state temperature, crossing the 100 C rating
     * — the FPGA reports a temperature shutdown (§3.5).
     */
    void ScheduleThermalShutdown(int node, Time when,
                                 double inlet_celsius = 105.0);

    /**
     * SL3 link flap on `node`'s `port`: the lane loses lock at `when`
     * and relocks after `duration` (marginal cable / connector). While
     * down, arriving packets drop and publish link-down telemetry.
     */
    void ScheduleLinkFlap(int node, shell::Port port, Time when,
                          Time duration);

    /**
     * Staged degradation (the slow death the predictive health plane
     * exists to catch): starting at `when`, a thermal shutdown marches
     * across `nodes` every `interval` — a failing fan taking out one
     * server after another — with an SL3 link flap of `flap_duration`
     * alongside each (marginal cabling in the same hot aisle). The pod
     * sheds capacity over `nodes.size() * interval` instead of
     * instantly, so fault-event rates and recovery churn trend upward
     * long before the pod hard-fails.
     */
    void ScheduleDegradationRamp(const std::vector<int>& nodes, Time when,
                                 Time interval,
                                 Time flap_duration = Milliseconds(5));

    std::uint64_t injected_count() const { return injected_; }

  private:
    sim::Simulator* simulator_;
    fabric::CatapultFabric* fabric_;
    std::vector<host::HostServer*> hosts_;
    std::uint64_t injected_ = 0;
};

}  // namespace catapult::mgmt
