#include "fpga/config_flash.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace catapult::fpga {

namespace {

/** 4 x 256 Mb QSPI (§2.1). */
constexpr Bytes kCapacity = 32ll * 1024 * 1024;
/** Sustained QSPI program rate (erase+program, ~2 MB/s typical). */
constexpr Bandwidth kWriteRate = Bandwidth::MegabytesPerSecond(2.0);

}  // namespace

ConfigFlash::ConfigFlash(sim::Simulator* simulator) : simulator_(simulator) {
    assert(simulator_ != nullptr);
}

Time ConfigFlash::WriteDuration(Bytes size) const {
    return kWriteRate.SerializationTime(size);
}

void ConfigFlash::WriteImage(FlashSlot slot, const Bitstream& image,
                             std::function<void(bool)> on_done) {
    if (write_in_progress_ || image.payload_size > kCapacity) {
        simulator_->ScheduleAfter(0, [cb = std::move(on_done)] { cb(false); });
        return;
    }
    write_in_progress_ = true;
    const Time duration = WriteDuration(image.payload_size);
    LOG_DEBUG("flash") << "writing image " << image.role_name << " ("
                       << image.payload_size << " B, "
                       << FormatTime(duration) << ")";
    simulator_->ScheduleAfter(
        duration, [this, slot, image, cb = std::move(on_done)] {
            slots_[static_cast<int>(slot)] = image;
            write_in_progress_ = false;
            cb(true);
        });
}

std::optional<Bitstream> ConfigFlash::ReadImage(FlashSlot slot) const {
    return slots_[static_cast<int>(slot)];
}

void ConfigFlash::InstallImage(FlashSlot slot, const Bitstream& image) {
    slots_[static_cast<int>(slot)] = image;
}

}  // namespace catapult::fpga
