// Telemetry bus: the event spine of the autonomic health plane.
//
// §3.3/§3.5 describe a management plane that notices failures and heals
// the pod without operator action. The pull half of that loop is the
// Health Monitor's status query; this bus is the push half: shell and
// FPGA components (SL3 links, DRAM controllers, the DMA engine, the SEU
// scrubber, the thermal model) publish fault events the moment they
// observe them, instead of only accumulating counters for the next
// CollectHealth() poll. Subscribers — chiefly the Health Monitor's
// watchdog — turn event bursts into suspect sets for investigation.
//
// The bus lives in the mgmt namespace but builds as its own low-level
// library (catapult_telemetry): the publishing layers sit *below* the
// management plane in the link graph (mgmt -> fabric -> shell), so the
// bus they publish into can depend only on the simulation kernel.

#pragma once

#include "common/feed.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace catapult::mgmt {

/** Fault classes published by the shell/FPGA layers (§3.5's vector). */
enum class TelemetryKind {
    kLinkCrcError,        ///< SL3 double-bit / CRC packet drop.
    kLinkDown,            ///< SL3 lane lock lost (defect or flap).
    kDramEccFault,        ///< Uncorrectable DRAM ECC event.
    kDramCalibrationLoss, ///< DIMM dropped calibration.
    kSeuRoleCorruption,   ///< Critical configuration upset hit the role.
    kTemperatureShutdown, ///< Die crossed the rated junction temperature.
    kDmaStall,            ///< Host not draining output slots.
    kApplicationError,    ///< Role-level corruption / unprotected garbage.
};

const char* ToString(TelemetryKind kind);

/**
 * Kinds that are individually investigation-worthy. Everything else is
 * noise-tolerant: one CRC drop or one stalled slot is routine, and the
 * watchdog only reacts to bursts of them (hysteresis against transient
 * faults).
 */
bool IsCriticalTelemetry(TelemetryKind kind);

/** One fault observation, stamped with simulated time at publish. */
struct TelemetryEvent {
    int pod = 0;    ///< Pod the publishing shell belongs to (bus identity).
    int node = -1;  ///< Pod-local node index of the publishing shell.
    TelemetryKind kind = TelemetryKind::kApplicationError;
    Time timestamp = 0;
};

/**
 * The pod's fault-event feed. Publish stamps each event with the pod
 * id and the simulated time; subscribers (the Health Monitor's
 * watchdog, the forecaster) hold the Subscription that Subscribe
 * returns.
 */
class TelemetryBus : private Feed<TelemetryEvent> {
  public:
    /**
     * `pod_id` stamps every published event, so federated subscribers
     * aggregating several pods' buses can attribute faults without a
     * side table.
     */
    explicit TelemetryBus(sim::Simulator* simulator, int pod_id = 0);

    /** Deliver a `kind` event from pod-local `node` to every subscriber. */
    void Publish(int node, TelemetryKind kind);

    using Feed::Subscribe;
    using Feed::subscriber_count;
    int pod_id() const { return pod_id_; }

  private:
    sim::Simulator* simulator_;
    int pod_id_;
};

/**
 * A publisher's wiring into its pod's bus: the bus, and the pod-local
 * node the publisher speaks for. Unattached (no bus), Publish does
 * nothing.
 */
struct TelemetryTap {
    TelemetryBus* bus = nullptr;
    int node = -1;

    bool attached() const { return bus != nullptr; }
    void Publish(TelemetryKind kind) const {
        if (bus != nullptr) bus->Publish(node, kind);
    }
};

}  // namespace catapult::mgmt
