// QSPI configuration flash + Remote Status Update (RSU) model.
//
// The board carries 4 x 256 Mb Quad-SPI flash (32 MB total) holding FPGA
// configurations (§2.1). The shell's reconfiguration logic, "based on a
// modified Remote Status Update (RSU) unit", reads/writes this flash
// (§3.2). Writing a full image over PCIe + QSPI dominates the cost of
// deploying a new role; configuring the FPGA from flash then takes
// "milliseconds to seconds" (§4.3).

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/units.h"
#include "fpga/bitstream.h"
#include "sim/simulator.h"

namespace catapult::fpga {

/** One of the image slots in flash (golden + application images). */
enum class FlashSlot : int {
    kGolden = 0,
    kApplication = 1,
    kStaging = 2,
};

inline constexpr int kFlashSlotCount = 3;

/**
 * Configuration flash with realistic write timing. Reads during device
 * configuration are modelled inside FpgaDevice's configuration delay.
 */
class ConfigFlash {
  public:
    explicit ConfigFlash(sim::Simulator* simulator);

    /**
     * Begin writing `image` into `slot`. Completion fires `on_done` with
     * true on success, false if the image exceeds flash capacity or a
     * write is already in progress.
     */
    void WriteImage(FlashSlot slot, const Bitstream& image,
                    std::function<void(bool)> on_done);

    /** Image currently stored in `slot`, if any. */
    std::optional<Bitstream> ReadImage(FlashSlot slot) const;

    /** Synchronously install an image (rack-integration-time flashing). */
    void InstallImage(FlashSlot slot, const Bitstream& image);

    bool write_in_progress() const { return write_in_progress_; }

    /** Time a full write of `size` bytes takes at the QSPI program rate. */
    Time WriteDuration(Bytes size) const;

  private:
    sim::Simulator* simulator_;
    std::array<std::optional<Bitstream>, kFlashSlotCount> slots_;
    bool write_in_progress_ = false;
};

}  // namespace catapult::fpga
