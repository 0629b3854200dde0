#include "shell/dram_controller.h"

#include <cassert>

namespace catapult::shell {

namespace {

/** Closed-page random-access latency. */
constexpr Time kAccessLatency = Nanoseconds(90);
/** Fraction of peak usable for streaming transfers. */
constexpr double kEfficiency = 0.80;

}  // namespace

DramController::DramController(sim::Simulator* simulator, Rng rng,
                               Config config)
    : simulator_(simulator), rng_(rng), config_(config) {
    assert(simulator_ != nullptr);
}

Bytes DramController::Capacity() const {
    // Per-channel: one SO-DIMM (4 GB dual-rank usable as 8 GB across the
    // pair; the board total is 8 GB / 4 GB depending on mode).
    return config_.mode == DramMode::kDualRank1333 ? GiB(4) : GiB(2);
}

Bandwidth DramController::PeakBandwidth() const {
    // 64-bit data path: DDR3-1333 = 10.667 GB/s, DDR3-1600 = 12.8 GB/s.
    return config_.mode == DramMode::kDualRank1333
               ? Bandwidth::MegabytesPerSecond(10'667)
               : Bandwidth::MegabytesPerSecond(12'800);
}

Bandwidth DramController::EffectiveBandwidth() const {
    return PeakBandwidth().Scaled(kEfficiency);
}

Time DramController::TransferTime(Bytes size) const {
    return kAccessLatency + EffectiveBandwidth().SerializationTime(size);
}

void DramController::set_calibrated(bool calibrated) {
    const bool lost = status_.calibrated && !calibrated;
    status_.calibrated = calibrated;
    // Calibration loss is a hard fault (§3.5: the error vector carries
    // "calibration failures"); publish the transition, not every failed
    // transfer that follows it.
    if (lost) telemetry_.Publish(mgmt::TelemetryKind::kDramCalibrationLoss);
}

void DramController::Transfer(Bytes size, DoneFn on_done) {
    queue_.push_back(Request{size, std::move(on_done)});
    Pump();
}

void DramController::Pump() {
    if (busy_ || queue_.empty()) return;
    busy_ = true;
    active_ = queue_.pop_front();
    simulator_->ScheduleAfter(TransferTime(active_.size),
                              [this] { Complete(); });
}

void DramController::Complete() {
    ++status_.transfers;
    bool ok = status_.calibrated;
    if (ok && rng_.Chance(config_.double_bit_error_rate)) {
        ++status_.double_bit_errors;
        telemetry_.Publish(mgmt::TelemetryKind::kDramEccFault);
        ok = false;
    } else if (ok && rng_.Chance(config_.single_bit_error_rate)) {
        ++status_.single_bit_errors;  // corrected, transfer succeeds
    }
    DoneFn on_done = std::move(active_.on_done);
    on_done(ok);
    busy_ = false;
    Pump();
}

}  // namespace catapult::shell
