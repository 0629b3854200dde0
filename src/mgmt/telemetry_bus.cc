#include "mgmt/telemetry_bus.h"

#include <cassert>

namespace catapult::mgmt {

const char* ToString(TelemetryKind kind) {
    switch (kind) {
      case TelemetryKind::kLinkCrcError: return "link_crc_error";
      case TelemetryKind::kLinkDown: return "link_down";
      case TelemetryKind::kDramEccFault: return "dram_ecc_fault";
      case TelemetryKind::kDramCalibrationLoss: return "dram_calibration_loss";
      case TelemetryKind::kSeuRoleCorruption: return "seu_role_corruption";
      case TelemetryKind::kTemperatureShutdown: return "temperature_shutdown";
      case TelemetryKind::kDmaStall: return "dma_stall";
      case TelemetryKind::kApplicationError: return "application_error";
    }
    return "?";
}

bool IsCriticalTelemetry(TelemetryKind kind) {
    switch (kind) {
      case TelemetryKind::kTemperatureShutdown:
      case TelemetryKind::kDramCalibrationLoss:
        return true;
      default:
        return false;
    }
}

TelemetryBus::TelemetryBus(sim::Simulator* simulator, int pod_id)
    : simulator_(simulator), pod_id_(pod_id) {
    assert(simulator_ != nullptr);
}

void TelemetryBus::Publish(int node, TelemetryKind kind) {
    TelemetryEvent event;
    event.pod = pod_id_;
    event.node = node;
    event.kind = kind;
    event.timestamp = simulator_->Now();
    Feed::Publish(event);
}

}  // namespace catapult::mgmt
