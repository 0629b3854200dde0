// Flight Data Recorder (FDR), §3.6.
//
// A lightweight "always-on" recorder capturing salient run-time state
// into on-chip memory, streamed out over PCIe during health checks.
// Two parts are modelled:
//   * a power-on record verifying the boot sequence (SL3 lane lock,
//     PLL lock, reset sequencing);
//   * a 512-entry circular buffer of the head/tail flits of every packet
//     entering or exiting the FPGA through the router: trace id
//     (replayable document), transaction size, direction of travel, and
//     miscellaneous state such as non-zero queue lengths.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "shell/packet.h"

namespace catapult::shell {

/** One circular-buffer record. */
struct FdrRecord {
    Time timestamp = 0;
    std::uint64_t trace_id = 0;
    PacketType type = PacketType::kScoringRequest;
    Bytes size = 0;
    Port ingress = Port::kRole;
    Port egress = Port::kRole;
    /** Non-zero router queue occupancy at capture time (misc state). */
    std::uint32_t queue_flits = 0;
};

/** Power-on sequence verification flags (§3.6). */
struct PowerOnRecord {
    bool sl3_lanes_locked = false;
    bool plls_locked = false;
    bool resets_sequenced = false;
    bool dram_calibrated = false;
    Time recorded_at = 0;

    bool AllGood() const {
        return sl3_lanes_locked && plls_locked && resets_sequenced &&
               dram_calibrated;
    }
};

class FlightDataRecorder {
  public:
    /** §3.6: "the FDR can only capture a limited window (512 recent events)". */
    static constexpr std::size_t kWindow = 512;

    /**
     * Append a record, evicting the oldest when the window is full. The
     * window is allocated by the first record: only a shell that packets
     * pass through ever holds one.
     */
    void Record(const FdrRecord& record);

    /** Capture the power-on state (called once per configuration). */
    void RecordPowerOn(const PowerOnRecord& record) { power_on_ = record; }
    const PowerOnRecord& power_on() const { return power_on_; }

    /** Stream out the window, oldest first (the PCIe health-check read). */
    std::vector<FdrRecord> StreamOut() const;

    /**
     * The postmortem export: power-on record plus the window (oldest
     * first) as one JSON object — what a health check attaches to a
     * fault report.
     */
    std::string DumpJson() const;

    std::uint64_t total_recorded() const { return total_; }
    std::size_t window_occupancy() const {
        return total_ >= kWindow ? kWindow : static_cast<std::size_t>(total_);
    }

    /** Clear after reconfiguration. */
    void Reset();

  private:
    /** Empty until the first record, then kWindow records. */
    std::vector<FdrRecord> ring_;
    std::uint64_t total_ = 0;
    PowerOnRecord power_on_;
};

}  // namespace catapult::shell
