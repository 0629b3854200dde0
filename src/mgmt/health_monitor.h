// Health Monitor (§3.3, §3.5).
//
// "The Health Monitor is invoked when there is a suspected failure in
// one or more systems. [It] queries each machine to find its status. If
// a server is unresponsive, it is put through a sequence of soft reboot,
// hard reboot, and then flagged for manual service ... If the server is
// operating correctly, it responds ... with information about the
// health of its local FPGA and associated links" — the error vector —
// "and the machine IDs of the north, south, east, and west neighbors of
// an FPGA, to test whether the neighboring FPGAs in the torus are
// accessible and that they are the machines that the system expects."
//
// Suspicion itself is automated here (the autonomic plane): a heartbeat
// watchdog pings every host over simulated Ethernet and a telemetry
// subscription watches the fault-event bus; consecutive missed
// heartbeats or event bursts form suspect sets that are fed through the
// same Investigate() ladder a caller could invoke by hand. Confirmed
// MachineReports are published on the monitor's failure feed (the
// pod's healing path — the ServicePool's automatic ring recovery and
// the Mapping Manager's re-mapping — and each federated dispatcher).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/feed.h"
#include "common/units.h"
#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "mgmt/telemetry_bus.h"
#include "obs/observability.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

/** Classified failure recorded in the failed-machine list (§3.5). */
enum class FaultType {
    kNone,
    kUnresponsiveRecovered,  ///< Came back after a reboot.
    kUnresponsiveFatal,      ///< Flagged for manual service.
    kLinkError,
    kMiswiredCable,
    kDramError,
    kApplicationError,
    kPcieError,
    kTemperatureShutdown,
    /**
     * Host responsive and the FPGA healthy, but its shell still has RX
     * Halt engaged: the machine rebooted behind the plane's back (§3.4:
     * a freshly configured FPGA drops link traffic until the Mapping
     * Manager releases it) and is stranded until re-mapped.
     */
    kStrandedRxHalt,
};

const char* ToString(FaultType type);

/** One machine's investigation outcome. */
struct MachineReport {
    int pod = 0;    ///< Pod the monitor watches (federation attribution).
    int node = -1;  ///< Pod-local node index.
    FaultType fault = FaultType::kNone;
    bool needed_soft_reboot = false;
    bool needed_hard_reboot = false;
    shell::HealthVector health;
};

class HealthMonitor {
  public:
    struct Config {
        /** Pod this monitor watches; stamped on every MachineReport. */
        int pod_id = 0;
        /** Wait for a status reply before declaring unresponsive. */
        Time query_timeout = Seconds(2);

        // --- Watchdog (heartbeats + telemetry bursts) ----------------

        /** Interval between heartbeat ping sweeps over the pod. */
        Time heartbeat_period = Milliseconds(50);
        /**
         * Quiet period per node after an investigation concludes;
         * hysteresis so one lingering symptom does not re-investigate
         * in a loop.
         */
        Time investigation_cooldown = Milliseconds(250);
    };

    HealthMonitor(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                  std::vector<host::HostServer*> hosts, Config config);
    HealthMonitor(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                  std::vector<host::HostServer*> hosts)
        : HealthMonitor(simulator, fabric, std::move(hosts), Config()) {}

    HealthMonitor(const HealthMonitor&) = delete;
    HealthMonitor& operator=(const HealthMonitor&) = delete;

    /**
     * Stops the watchdog and drops the telemetry subscription (the
     * scoped handle): a monitor torn down before its bus — a pod
     * leaving a federation — leaves no dangling callback behind.
     */
    ~HealthMonitor();

    /**
     * Investigate a set of suspect machines; the reports arrive via
     * `on_done` after queries and any needed reboot ladder. Machines
     * with faults are appended to the failed-machine list and
     * published on failures(). This is the explicit entry
     * point the watchdog funnels into; callers may still invoke it by
     * hand (maintenance sweeps, tests).
     */
    void Investigate(std::vector<int> nodes,
                     std::function<void(std::vector<MachineReport>)> on_done);

    // --- Autonomic plane -------------------------------------------------

    /**
     * Subscribe to the fault-event bus: bursts of events (or a single
     * critical event) from a node mark it suspect, exactly as missed
     * heartbeats do.
     */
    void AttachTelemetry(TelemetryBus* bus);

    /**
     * Start the heartbeat watchdog: every `heartbeat_period` each host
     * is pinged over simulated Ethernet (daemon events — an idle pod
     * does not keep the simulation alive). Suspects from misses or
     * telemetry bursts are investigated automatically.
     */
    void StartWatchdog();
    void StopWatchdog();

    /**
     * Every faulted MachineReport, from both automatic and explicit
     * investigations, in the order the investigations conclude.
     */
    Feed<MachineReport>& failures() { return failures_; }

    const std::vector<MachineReport>& failed_machine_list() const {
        return failed_machines_;
    }

    /** Nodes flagged for manual service; excluded from heartbeats. */
    bool node_dead(int node) const {
        return nodes_[static_cast<std::size_t>(node)].dead;
    }

    /** Nodes currently flagged for manual service. */
    int dead_node_count() const { return dead_node_count_; }
    /** Nodes this monitor watches. */
    int node_count() const { return static_cast<int>(nodes_.size()); }

    /**
     * Field service concluded on `node` (§3.5's manual-service exit):
     * clears the dead flag and every watchdog grudge — miss streak,
     * burst window, cooldown, parked suspicions — so heartbeats resume
     * and a fresh fault on the serviced machine is investigated from a
     * clean slate. The pod re-admission path calls this once the host
     * is back up.
     */
    void MarkNodeServiced(int node);

    struct Counters {
        std::uint64_t investigations = 0;
        std::uint64_t soft_reboots = 0;
        std::uint64_t flagged_for_service = 0;
        // Watchdog instrumentation.
        std::uint64_t heartbeats_sent = 0;
        std::uint64_t heartbeat_misses = 0;
        std::uint64_t telemetry_events = 0;
        std::uint64_t auto_investigations = 0;
        /** FDR records streamed into the trace timeline on faults. */
        std::uint64_t fdr_postmortem_records = 0;
    };
    const Counters& counters() const { return counters_; }

    /** Victim FDR tail length streamed into the timeline per fault. */
    static constexpr std::size_t kFdrPostmortemTail = 32;

    /**
     * Attach the pod's observability shard. Every classified fault
     * emits a "fault" instant, and the victim's FDR tail (§3.6's
     * health-check stream-out) is replayed into the trace timeline as
     * "fdr" instants keyed by the packets' document trace ids, so the
     * stitcher joins them to the query spans they belong to.
     */
    void SetObservability(obs::ShardObs* obs) { obs_ = obs; }

  private:
    struct Context;

    /** Per-node watchdog state. */
    struct NodeState {
        int consecutive_misses = 0;
        std::deque<Time> event_times;  ///< Non-critical telemetry burst.
        bool investigating = false;
        bool has_concluded = false;
        Time last_concluded = 0;
        bool dead = false;  ///< kUnresponsiveFatal: awaiting manual service.
        /**
         * A critical event landed while the node was mid-investigation
         * or in its cooldown. Publishers latch hard faults (one event
         * per excursion) and the host keeps answering heartbeats, so
         * the suspicion is parked and retried rather than dropped.
         */
        bool pending_critical = false;
        bool critical_retry_scheduled = false;
    };

    void QueryMachine(std::shared_ptr<Context> ctx, std::size_t idx);
    void HandleResponsive(std::shared_ptr<Context> ctx, std::size_t idx,
                          MachineReport report);
    void FinishMachine(std::shared_ptr<Context> ctx, std::size_t idx,
                       MachineReport report);

    /** Classify an error vector into the dominant fault type. */
    FaultType Classify(int node, const shell::HealthVector& health) const;

    void HeartbeatSweep();
    void OnHeartbeatResult(int node, bool responsive);
    void OnTelemetry(const TelemetryEvent& event);
    /** True when the watchdog may open a new investigation of `node`. */
    bool CanSuspect(int node) const;
    void MarkSuspect(int node);
    void ScheduleCriticalRetry(int node);
    void FlushSuspects();

    sim::Simulator* simulator_;
    fabric::CatapultFabric* fabric_;
    std::vector<host::HostServer*> hosts_;
    Config config_;
    std::vector<MachineReport> failed_machines_;
    Feed<MachineReport> failures_;
    std::vector<NodeState> nodes_;
    int dead_node_count_ = 0;
    std::vector<int> pending_suspects_;
    bool flush_scheduled_ = false;
    bool watchdog_running_ = false;
    std::uint64_t watchdog_epoch_ = 0;  ///< Orphans stale sweep callbacks.
    Subscription telemetry_subscription_;
    obs::ShardObs* obs_ = nullptr;
    Counters counters_;
};

}  // namespace catapult::mgmt
