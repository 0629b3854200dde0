#include "mgmt/health_forecaster.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace catapult::mgmt {

namespace {

/** EWMA smoothing factor applied to the instantaneous health. */
constexpr double kEwmaAlpha = 0.35;
static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0);

// --- Stress weights (rate in events/s -> dimensionless) --------------
// Beside Config::fault_event_weight. The defaults are sized so one
// isolated machine reboot (a few heartbeat misses plus one ring
// recovery inside a window) reads as Degraded, while sustained churn —
// a thermal ramp marching across nodes, a pod-wide blackout's miss
// storm — sinks the score through the Critical/shed floor.

constexpr double kHeartbeatMissWeight = 0.02;
/** One recovery inside an 80 ms window reads as stress ~0.75. */
constexpr double kRecoveryWeight = 0.06;

// --- Hysteresis bands on the smoothed score --------------------------
// Enter thresholds sit below exit thresholds, so a score hovering at a
// boundary cannot flap the band.

constexpr double kDegradedEnter = 0.70;
constexpr double kDegradedExit = 0.85;
constexpr double kCriticalEnter = 0.35;
constexpr double kCriticalExit = 0.55;
static_assert(kDegradedExit >= kDegradedEnter);
static_assert(kCriticalExit >= kCriticalEnter);

}  // namespace

const char* ToString(HealthBand band) {
    switch (band) {
      case HealthBand::kWarmingUp: return "warming_up";
      case HealthBand::kHealthy: return "healthy";
      case HealthBand::kDegraded: return "degraded";
      case HealthBand::kCritical: return "critical";
    }
    return "?";
}

// ------------------------------------------------------ forecaster

HealthForecaster::HealthForecaster(sim::Simulator* simulator,
                                   Feed<HealthScoreSample>* feed,
                                   Config config)
    : simulator_(simulator), feed_(feed), config_(config) {
    assert(simulator_ != nullptr && feed_ != nullptr);
    assert(config_.sample_period > 0);
    assert(config_.window_samples >= 1);
}

HealthForecaster::~HealthForecaster() { Stop(); }

void HealthForecaster::AttachTelemetry(TelemetryBus* bus) {
    telemetry_subscription_ = bus->Subscribe([this](const TelemetryEvent&) {
        ++events_seen_;
    });
}

void HealthForecaster::AttachHealthMonitor(const HealthMonitor* monitor) {
    monitor_ = monitor;
}

void HealthForecaster::SnapshotBaselines() {
    last_events_ = events_seen_;
    last_misses_ = monitor_ != nullptr ? monitor_->counters().heartbeat_misses
                                       : 0;
    last_recoveries_ = churn_probe_ ? churn_probe_() : 0;
}

void HealthForecaster::Start() {
    if (running_) return;
    running_ = true;
    SnapshotBaselines();
    const std::uint64_t epoch = ++epoch_;
    // Daemon events: an idle pod's forecaster must not keep the
    // simulation alive (same contract as the watchdog sweeps).
    simulator_->ScheduleDaemonAfter(config_.sample_period, [this, epoch] {
        if (epoch == epoch_) Tick();
    });
}

void HealthForecaster::Stop() {
    running_ = false;
    ++epoch_;  // orphan any in-flight tick
}

void HealthForecaster::ResetForReadmission() {
    window_.clear();
    samples_seen_ = 0;
    score_ = 1.0;
    band_ = HealthBand::kWarmingUp;
    // Re-base the deltas: misses/events/recoveries accumulated while
    // the pod was dark are history, not fresh signal.
    SnapshotBaselines();
    LOG_INFO("forecast") << "pod " << config_.pod_id
                         << ": trend reset for re-admission (warm-up grace "
                         << config_.warmup_samples << " samples)";
    PublishSample(1.0);
}

void HealthForecaster::PublishSample(double instantaneous) {
    HealthScoreSample sample;
    sample.pod = config_.pod_id;
    sample.score = score_;
    sample.instantaneous = instantaneous;
    sample.band = band_;
    sample.timestamp = simulator_->Now();
    feed_->Publish(sample);
}

HealthBand HealthForecaster::StepBand(HealthBand band, double score) const {
    switch (band) {
      case HealthBand::kWarmingUp:
      case HealthBand::kHealthy:
        if (score < kCriticalEnter) return HealthBand::kCritical;
        if (score < kDegradedEnter) return HealthBand::kDegraded;
        return HealthBand::kHealthy;
      case HealthBand::kDegraded:
        if (score < kCriticalEnter) return HealthBand::kCritical;
        if (score > kDegradedExit) return HealthBand::kHealthy;
        return HealthBand::kDegraded;
      case HealthBand::kCritical:
        if (score > kCriticalExit) {
            return score > kDegradedExit ? HealthBand::kHealthy
                                                 : HealthBand::kDegraded;
        }
        return HealthBand::kCritical;
    }
    return band;
}

void HealthForecaster::Tick() {
    if (!running_) return;

    // Window in the per-tick deltas of each fault signal.
    WindowSlot slot;
    slot.events = events_seen_ - last_events_;
    last_events_ = events_seen_;
    if (monitor_ != nullptr) {
        const std::uint64_t misses = monitor_->counters().heartbeat_misses;
        slot.misses = misses - last_misses_;
        last_misses_ = misses;
    }
    if (churn_probe_) {
        const std::uint64_t recoveries = churn_probe_();
        slot.recoveries = recoveries - last_recoveries_;
        last_recoveries_ = recoveries;
    }
    window_.push_back(slot);
    while (static_cast<int>(window_.size()) > config_.window_samples) {
        window_.pop_front();
    }
    ++samples_seen_;

    // Rates over the trend window.
    std::uint64_t events = 0;
    std::uint64_t misses = 0;
    std::uint64_t recoveries = 0;
    for (const WindowSlot& s : window_) {
        events += s.events;
        misses += s.misses;
        recoveries += s.recoveries;
    }
    const double span_s =
        ToSeconds(config_.sample_period) * static_cast<double>(window_.size());
    const double stress =
        config_.fault_event_weight * (static_cast<double>(events) / span_s) +
        kHeartbeatMissWeight * (static_cast<double>(misses) / span_s) +
        kRecoveryWeight * (static_cast<double>(recoveries) / span_s);
    double instantaneous = 1.0 / (1.0 + stress);

    // Nodes flagged for manual service are capacity that cannot come
    // back without intervention: they cap health outright, so a quiet
    // half-dead pod does not read as pristine once its event burst
    // ages out of the window.
    if (monitor_ != nullptr && monitor_->node_count() > 0) {
        const double alive =
            1.0 - static_cast<double>(monitor_->dead_node_count()) /
                      static_cast<double>(monitor_->node_count());
        instantaneous = std::min(instantaneous, alive);
    }

    score_ = kEwmaAlpha * instantaneous + (1.0 - kEwmaAlpha) * score_;

    // Cold-start grace: never band (so never shed) on a short window.
    if (samples_seen_ >= config_.warmup_samples) {
        const HealthBand next = StepBand(band_, score_);
        if (next != band_) {
            ++counters_.band_transitions;
            LOG_INFO("forecast")
                << "pod " << config_.pod_id << ": " << ToString(band_)
                << " -> " << ToString(next) << " (score " << score_ << ")";
            band_ = next;
        }
    }

    PublishSample(instantaneous);

    const std::uint64_t epoch = epoch_;
    simulator_->ScheduleDaemonAfter(config_.sample_period, [this, epoch] {
        if (epoch == epoch_) Tick();
    });
}

}  // namespace catapult::mgmt
