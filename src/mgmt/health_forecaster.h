// Predictive health plane: per-pod degradation forecasting.
//
// The §3.5 failure ladder is reactive — a machine must miss heartbeats
// or latch a fatal fault before the control plane acts, so every
// degradation episode burns in-flight retries before traffic moves.
// Datacenter fleets die slow deaths far more often than they die
// instantly: a failing fan ramps die temperature over seconds, a
// marginal cable flaps with rising frequency, a sick pod's rings churn
// through spare rotations. This forecaster turns those leading
// indicators — TelemetryBus fault-event rates, heartbeat miss rates,
// ring-recovery churn and the dead-node fraction — into one continuous
// 0..1 health score per pod, EWMA-smoothed over a sliding trend
// window, so the federation's dispatcher can shed load from a pod
// *before* it hard-fails and ramp a serviced pod back in gradually.
//
// The score is published on the pod's Feed<HealthScoreSample> (the push
// spine of the predictive plane, as the TelemetryBus is for the
// reactive one).
// Banding is hysteretic: a pod *enters* Degraded/Critical at a lower
// score than it *exits*, so a score hovering at a threshold cannot
// flap the dispatcher's shed decision. A cold-start grace holds the
// band at WarmingUp until one full trend window has been observed —
// a freshly attached (or freshly re-admitted) pod is never shed on a
// half-filled window.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/feed.h"
#include "common/units.h"
#include "mgmt/health_monitor.h"
#include "mgmt/telemetry_bus.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

/** Hysteretic classification of a pod's smoothed health score. */
enum class HealthBand {
    kWarmingUp,  ///< Cold-start grace: not enough samples to judge.
    kHealthy,
    kDegraded,   ///< Declining: drain the pod's admission share.
    kCritical,   ///< Below the shed floor: proactively shed traffic.
};

const char* ToString(HealthBand band);

/**
 * One published health observation for a pod: the seam between the
 * management plane (forecasters publish) and the service plane
 * (dispatchers subscribe), one feed per pod.
 */
struct HealthScoreSample {
    int pod = 0;
    /** EWMA-smoothed health, 1.0 = pristine, 0.0 = gone. */
    double score = 1.0;
    /** This window's raw (unsmoothed) health estimate. */
    double instantaneous = 1.0;
    HealthBand band = HealthBand::kWarmingUp;
    Time timestamp = 0;
};

/**
 * Per-pod trend model: samples fault-signal rates on a daemon cadence,
 * folds them into a smoothed health score, and publishes every sample
 * on the pod's health-score feed.
 *
 * Signal taps: a TelemetryBus subscription (fault events), the
 * HealthMonitor's watchdog counters and dead list (heartbeat misses,
 * nodes flagged for manual service), and an opaque recovery-churn
 * probe — a std::function because the ServicePool that counts ring
 * recoveries lives *above* the management plane in the link graph.
 */
class HealthForecaster {
  public:
    struct Config {
        /** Stamped on every published sample. */
        int pod_id = 0;
        /** Daemon sampling cadence. */
        Time sample_period = Milliseconds(10);
        /** Sliding trend window, in samples. */
        int window_samples = 8;
        /**
         * Cold-start grace: band stays WarmingUp (never shed) until
         * this many samples have been observed — one full window by
         * default.
         */
        int warmup_samples = 8;
        /**
         * Stress weight of fault events (rate in events/s ->
         * dimensionless; see health_forecaster.cc for the other two).
         * Instantaneous health is 1 / (1 + stress): 50 fault events/s
         * sustained (weight 0.02) alone reads as health 0.5.
         */
        double fault_event_weight = 0.02;
    };

    HealthForecaster(sim::Simulator* simulator,
                     Feed<HealthScoreSample>* feed, Config config);

    HealthForecaster(const HealthForecaster&) = delete;
    HealthForecaster& operator=(const HealthForecaster&) = delete;

    /** Stops sampling and drops the telemetry subscription. */
    ~HealthForecaster();

    /** Count this pod's fault events toward the stress signal. */
    void AttachTelemetry(TelemetryBus* bus);
    /** Poll watchdog counters and the dead list from `monitor`. */
    void AttachHealthMonitor(const HealthMonitor* monitor);
    /** Ring-recovery churn source (e.g. ServicePool recoveries). */
    void set_recovery_churn_probe(std::function<std::uint64_t()> probe) {
        churn_probe_ = std::move(probe);
    }

    /** Start the daemon sampling loop (idempotent). */
    void Start();
    void Stop();
    bool running() const { return running_; }

    /**
     * Re-admission support: a serviced pod's fault history must not
     * poison its fresh score. Clears the trend window, restarts the
     * cold-start grace (band WarmingUp, score 1.0) and re-bases the
     * counter snapshots so blackout-era backlog is not counted as new
     * signal. Publishes the reset sample immediately.
     */
    void ResetForReadmission();

    double score() const { return score_; }
    HealthBand band() const { return band_; }

    struct Counters {
        std::uint64_t samples = 0;
        std::uint64_t band_transitions = 0;
        std::uint64_t telemetry_events = 0;
    };
    const Counters& counters() const { return counters_; }

  private:
    struct WindowSlot {
        std::uint64_t events = 0;
        std::uint64_t misses = 0;
        std::uint64_t recoveries = 0;
    };

    void Tick();
    /** Publish the current score and band, stamped with the time. */
    void PublishSample(double instantaneous);
    HealthBand StepBand(HealthBand band, double score) const;
    void SnapshotBaselines();

    sim::Simulator* simulator_;
    Feed<HealthScoreSample>* feed_;
    Config config_;
    const HealthMonitor* monitor_ = nullptr;
    std::function<std::uint64_t()> churn_probe_;
    Subscription telemetry_subscription_;

    std::deque<WindowSlot> window_;
    std::uint64_t events_seen_ = 0;       ///< via telemetry subscription
    std::uint64_t last_events_ = 0;
    std::uint64_t last_misses_ = 0;
    std::uint64_t last_recoveries_ = 0;
    int samples_seen_ = 0;
    double score_ = 1.0;
    HealthBand band_ = HealthBand::kWarmingUp;
    bool running_ = false;
    std::uint64_t epoch_ = 0;  ///< Orphans stale tick callbacks.
    Counters counters_;
};

}  // namespace catapult::mgmt
