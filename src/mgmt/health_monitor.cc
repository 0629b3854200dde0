#include "mgmt/health_monitor.h"

#include <cassert>
#include <memory>

#include "common/log.h"
#include "mgmt/mapping_manager.h"

namespace catapult::mgmt {

namespace {

/** Consecutive missed heartbeats before a node is suspect. */
constexpr int kHeartbeatMissThreshold = 3;
/**
 * Non-critical telemetry events from one node within
 * kTelemetryBurstWindow before it is suspect. Critical kinds
 * (IsCriticalTelemetry) suspect on the first event.
 */
constexpr int kTelemetryBurstThreshold = 3;
constexpr Time kTelemetryBurstWindow = Milliseconds(20);

}  // namespace

const char* ToString(FaultType type) {
    switch (type) {
      case FaultType::kNone: return "none";
      case FaultType::kUnresponsiveRecovered: return "unresponsive_recovered";
      case FaultType::kUnresponsiveFatal: return "unresponsive_fatal";
      case FaultType::kLinkError: return "link_error";
      case FaultType::kMiswiredCable: return "miswired_cable";
      case FaultType::kDramError: return "dram_error";
      case FaultType::kApplicationError: return "application_error";
      case FaultType::kPcieError: return "pcie_error";
      case FaultType::kTemperatureShutdown: return "temperature_shutdown";
      case FaultType::kStrandedRxHalt: return "stranded_rx_halt";
    }
    return "?";
}

struct HealthMonitor::Context {
    std::vector<int> nodes;
    std::vector<MachineReport> reports;
    std::size_t outstanding = 0;
    std::function<void(std::vector<MachineReport>)> on_done;
};

HealthMonitor::HealthMonitor(sim::Simulator* simulator,
                             fabric::CatapultFabric* fabric,
                             std::vector<host::HostServer*> hosts,
                             Config config)
    : simulator_(simulator),
      fabric_(fabric),
      hosts_(std::move(hosts)),
      config_(config),
      nodes_(hosts_.size()) {
    assert(simulator_ != nullptr);
    assert(fabric_ != nullptr);
}

HealthMonitor::~HealthMonitor() {
    StopWatchdog();
    // telemetry_subscription_ unsubscribes itself, so the bus can
    // never call back into this object. Simulator events are a
    // different matter: queued sweep/investigation callbacks capture
    // `this` and cannot be cancelled from here, so the monitor must
    // only be destroyed once its simulator has drained (PodContext and
    // the testbeds destroy the two together, after Run() returns).
}

void HealthMonitor::Investigate(
    std::vector<int> nodes,
    std::function<void(std::vector<MachineReport>)> on_done) {
    ++counters_.investigations;
    auto ctx = std::make_shared<Context>();
    ctx->nodes = std::move(nodes);
    ctx->reports.resize(ctx->nodes.size());
    ctx->outstanding = ctx->nodes.size();
    ctx->on_done = std::move(on_done);
    if (ctx->nodes.empty()) {
        ctx->on_done({});
        return;
    }
    for (const int node : ctx->nodes) {
        // The watchdog holds off on nodes already being investigated —
        // explicit calls and automatic ones share the dedup state.
        nodes_[static_cast<std::size_t>(node)].investigating = true;
    }
    for (std::size_t i = 0; i < ctx->nodes.size(); ++i) {
        QueryMachine(ctx, i);
    }
}

void HealthMonitor::QueryMachine(std::shared_ptr<Context> ctx,
                                 std::size_t idx) {
    const int node = ctx->nodes[idx];
    host::HostServer* host = hosts_[static_cast<std::size_t>(node)];
    // Status query over Ethernet with a reply timeout.
    simulator_->ScheduleAfter(
        kEthernetLatency + config_.query_timeout,
        [this, ctx, idx, node, host] {
            MachineReport report;
            report.pod = config_.pod_id;
            report.node = node;
            if (host->responsive()) {
                HandleResponsive(ctx, idx, std::move(report));
                return;
            }
            // §3.5 reboot ladder: soft reboot -> hard reboot -> flag.
            ++counters_.soft_reboots;
            report.needed_soft_reboot = true;
            host->SoftReboot([this, ctx, idx, node, host,
                              report]() mutable {
                if (host->responsive()) {
                    report.fault = FaultType::kUnresponsiveRecovered;
                    HandleResponsive(ctx, idx, std::move(report));
                    return;
                }
                report.needed_hard_reboot = true;
                host->HardReboot([this, ctx, idx, node, host,
                                  report]() mutable {
                    if (host->responsive()) {
                        report.fault = FaultType::kUnresponsiveRecovered;
                        HandleResponsive(ctx, idx, std::move(report));
                        return;
                    }
                    ++counters_.flagged_for_service;
                    host->FlagForService();
                    report.fault = FaultType::kUnresponsiveFatal;
                    FinishMachine(ctx, idx, std::move(report));
                });
            });
        });
}

void HealthMonitor::HandleResponsive(std::shared_ptr<Context> ctx,
                                     std::size_t idx, MachineReport report) {
    const int node = report.node;
    report.health = fabric_->shell(node).CollectHealth();
    const FaultType classified = Classify(node, report.health);
    // A stranded RX halt is implied by (and subsumed under) a recovered
    // reboot; real errors override the recovery classification.
    if (classified != FaultType::kNone &&
        !(classified == FaultType::kStrandedRxHalt &&
          report.fault != FaultType::kNone)) {
        report.fault = classified;
    }
    FinishMachine(ctx, idx, std::move(report));
}

FaultType HealthMonitor::Classify(int node,
                                  const shell::HealthVector& health) const {
    // Highest-severity first.
    if (health.temperature_shutdown) return FaultType::kTemperatureShutdown;
    // Neighbour identity check: compare reported IDs against the wiring
    // the topology expects (§3.5: "in case the cables are miswired or
    // unplugged").
    static constexpr shell::Port kPorts[4] = {
        shell::Port::kNorth, shell::Port::kSouth, shell::Port::kEast,
        shell::Port::kWest};
    for (int i = 0; i < 4; ++i) {
        const int expected_local =
            fabric_->topology().NeighborOf(node, kPorts[i]);
        const shell::NodeId expected = fabric_->GlobalId(expected_local);
        if (health.neighbor_id[i] != shell::kInvalidNode &&
            health.neighbor_id[i] != expected) {
            return FaultType::kMiswiredCable;
        }
    }
    for (bool link_error : health.link_error) {
        if (link_error) return FaultType::kLinkError;
    }
    if (health.dram_calibration_failure) return FaultType::kDramError;
    if (health.application_error) return FaultType::kApplicationError;
    if (health.pcie_errors) return FaultType::kPcieError;
    // Lowest priority: everything healthy but the shell still discards
    // link traffic — the node rebooted unnoticed and awaits re-mapping.
    if (health.rx_halted) return FaultType::kStrandedRxHalt;
    // Corrected DRAM bit errors alone are informational, not a fault.
    return FaultType::kNone;
}

void HealthMonitor::FinishMachine(std::shared_ptr<Context> ctx,
                                  std::size_t idx, MachineReport report) {
    NodeState& state = nodes_[static_cast<std::size_t>(report.node)];
    state.investigating = false;
    state.has_concluded = true;
    state.last_concluded = simulator_->Now();
    state.consecutive_misses = 0;
    state.event_times.clear();
    if (report.fault == FaultType::kUnresponsiveFatal && !state.dead) {
        state.dead = true;
        ++dead_node_count_;
    }
    // A confirmed fault already fans out the full response below, so a
    // critical event parked during this investigation is satisfied and
    // must not re-investigate the same excursion. A kNone conclusion
    // keeps the parked suspicion: the event may have landed after the
    // status query and its fault would otherwise go unseen.
    if (report.fault != FaultType::kNone) {
        state.pending_critical = false;
        failed_machines_.push_back(report);
        LOG_INFO("health_monitor")
            << "node " << report.node << " fault: " << ToString(report.fault);
        if (obs_ != nullptr && obs_->tracing()) {
            obs_->tracer.Instant("fault", 0, 0, 0, simulator_->Now(),
                                 report.node,
                                 static_cast<std::int64_t>(report.fault));
            // The health check's FDR stream-out (§3.6), folded into the
            // trace timeline: the victim's last packets appear as "fdr"
            // instants keyed by document trace id, which the stitcher
            // joins to the owning query spans — the postmortem shows
            // what the machine was doing when it died.
            const auto records =
                fabric_->shell(report.node).fdr().StreamOut();
            const std::size_t first =
                records.size() > kFdrPostmortemTail
                    ? records.size() - kFdrPostmortemTail
                    : 0;
            for (std::size_t i = first; i < records.size(); ++i) {
                const auto& r = records[i];
                obs_->tracer.Instant("fdr", 0, 0, r.trace_id, r.timestamp,
                                     static_cast<std::int64_t>(r.type),
                                     static_cast<std::int64_t>(r.size));
                ++counters_.fdr_postmortem_records;
            }
        }
        failures_.Publish(report);
    }
    ctx->reports[idx] = std::move(report);
    if (--ctx->outstanding == 0) {
        ctx->on_done(std::move(ctx->reports));
    }
}

// --- Watchdog --------------------------------------------------------------

void HealthMonitor::MarkNodeServiced(int node) {
    NodeState& state = nodes_[static_cast<std::size_t>(node)];
    if (state.dead) --dead_node_count_;
    state = NodeState{};
    LOG_INFO("health_monitor")
        << "node " << node << " serviced; watchdog coverage resumes";
}

void HealthMonitor::AttachTelemetry(TelemetryBus* bus) {
    assert(bus != nullptr);
    // The handle drops any previous subscription on assignment and the
    // final one at destruction — a torn-down monitor can never be
    // invoked through the bus again.
    telemetry_subscription_ = bus->Subscribe(
        [this](const TelemetryEvent& event) { OnTelemetry(event); });
}

void HealthMonitor::StartWatchdog() {
    if (watchdog_running_) return;
    watchdog_running_ = true;
    const std::uint64_t epoch = ++watchdog_epoch_;
    simulator_->ScheduleDaemonAfter(config_.heartbeat_period, [this, epoch] {
        if (epoch == watchdog_epoch_) HeartbeatSweep();
    });
}

void HealthMonitor::StopWatchdog() {
    if (!watchdog_running_) return;
    watchdog_running_ = false;
    ++watchdog_epoch_;  // orphan any in-flight sweep callbacks
}

void HealthMonitor::HeartbeatSweep() {
    const std::uint64_t epoch = watchdog_epoch_;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        const NodeState& state = nodes_[i];
        // Dead machines wait for manual service; nodes mid-investigation
        // already have the plane's full attention.
        if (state.dead || state.investigating) continue;
        ++counters_.heartbeats_sent;
        const int node = static_cast<int>(i);
        // The ping is answered (or not) one Ethernet hop away. Daemon
        // events: heartbeats to an idle pod never keep Run() alive.
        simulator_->ScheduleDaemonAfter(
            kEthernetLatency, [this, node, epoch] {
                if (epoch != watchdog_epoch_) return;
                OnHeartbeatResult(
                    node, hosts_[static_cast<std::size_t>(node)]->responsive());
            });
    }
    simulator_->ScheduleDaemonAfter(config_.heartbeat_period, [this, epoch] {
        if (epoch == watchdog_epoch_) HeartbeatSweep();
    });
}

void HealthMonitor::OnHeartbeatResult(int node, bool responsive) {
    NodeState& state = nodes_[static_cast<std::size_t>(node)];
    if (responsive) {
        state.consecutive_misses = 0;
        return;
    }
    ++counters_.heartbeat_misses;
    ++state.consecutive_misses;
    if (state.consecutive_misses >= kHeartbeatMissThreshold &&
        CanSuspect(node)) {
        MarkSuspect(node);
    }
}

void HealthMonitor::OnTelemetry(const TelemetryEvent& event) {
    if (event.node < 0 ||
        event.node >= static_cast<int>(nodes_.size())) {
        return;
    }
    ++counters_.telemetry_events;
    NodeState& state = nodes_[static_cast<std::size_t>(event.node)];
    if (state.dead) return;
    if (IsCriticalTelemetry(event.kind)) {
        if (CanSuspect(event.node)) {
            MarkSuspect(event.node);
        } else {
            // Mid-investigation or cooldown. The publisher won't repeat
            // the event (hard faults are transition-latched) and the
            // host keeps answering heartbeats, so dropping it here
            // would hide the fault forever: park the suspicion and
            // retry once the hysteresis window clears.
            state.pending_critical = true;
            ScheduleCriticalRetry(event.node);
        }
        return;
    }
    if (state.investigating) return;
    // Burst detection with a sliding window: one CRC drop is routine,
    // a salvo is a failing component.
    state.event_times.push_back(event.timestamp);
    while (!state.event_times.empty() &&
           state.event_times.front() + kTelemetryBurstWindow < event.timestamp) {
        state.event_times.pop_front();
    }
    if (static_cast<int>(state.event_times.size()) >= kTelemetryBurstThreshold &&
        CanSuspect(event.node)) {
        MarkSuspect(event.node);
    }
}

bool HealthMonitor::CanSuspect(int node) const {
    const NodeState& state = nodes_[static_cast<std::size_t>(node)];
    if (state.dead || state.investigating) return false;
    if (state.has_concluded &&
        simulator_->Now() - state.last_concluded <
            config_.investigation_cooldown) {
        return false;  // hysteresis: just looked at this machine
    }
    return true;
}

void HealthMonitor::ScheduleCriticalRetry(int node) {
    NodeState& state = nodes_[static_cast<std::size_t>(node)];
    if (state.critical_retry_scheduled) return;
    state.critical_retry_scheduled = true;
    simulator_->ScheduleDaemonAfter(
        config_.investigation_cooldown, [this, node] {
            NodeState& st = nodes_[static_cast<std::size_t>(node)];
            st.critical_retry_scheduled = false;
            if (!st.pending_critical || st.dead) return;
            if (CanSuspect(node)) {
                MarkSuspect(node);
            } else {
                ScheduleCriticalRetry(node);
            }
        });
}

void HealthMonitor::MarkSuspect(int node) {
    NodeState& state = nodes_[static_cast<std::size_t>(node)];
    state.investigating = true;  // claims the node until the report lands
    state.consecutive_misses = 0;
    state.event_times.clear();
    // The investigation's health query observes any latched fault.
    state.pending_critical = false;
    pending_suspects_.push_back(node);
    LOG_INFO("health_monitor") << "node " << node << " suspect (watchdog)";
    if (flush_scheduled_) return;
    flush_scheduled_ = true;
    // Same-tick batching: a ping sweep that finds several dead machines
    // (a rack failure) files one investigation, not one per machine.
    simulator_->ScheduleAfter(0, [this] { FlushSuspects(); });
}

void HealthMonitor::FlushSuspects() {
    flush_scheduled_ = false;
    if (pending_suspects_.empty()) return;
    ++counters_.auto_investigations;
    std::vector<int> suspects;
    suspects.swap(pending_suspects_);
    Investigate(std::move(suspects), [](std::vector<MachineReport>) {});
}

}  // namespace catapult::mgmt
