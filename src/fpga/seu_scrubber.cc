#include "fpga/seu_scrubber.h"

#include <cassert>

#include "common/log.h"

namespace catapult::fpga {

SeuScrubber::SeuScrubber(sim::Simulator* simulator, Rng rng, Config config)
    : simulator_(simulator), rng_(rng), config_(config) {
    assert(simulator_ != nullptr);
}

void SeuScrubber::Start() {
    if (running_) return;
    running_ = true;
    started_at_ = simulator_->Now();
    ++epoch_;
    ScheduleNextUpset();
}

void SeuScrubber::Stop() {
    if (!running_) return;
    AccountScrubPasses();
    scrub_passes_base_ = counters_.scrub_passes;
    running_ = false;
    ++epoch_;  // orphan any scheduled callbacks
}

void SeuScrubber::AccountScrubPasses() const {
    // Scrub passes happen continuously; they are accounted lazily (no
    // periodic simulator events) so an idle fabric schedules nothing.
    if (!running_) return;
    counters_.scrub_passes =
        scrub_passes_base_ +
        static_cast<std::uint64_t>(
            (simulator_->Now() - started_at_) / kScrubPeriod);
}

void SeuScrubber::ScheduleNextUpset() {
    if (config_.upsets_per_second <= 0.0) return;
    const double mean_s = 1.0 / config_.upsets_per_second;
    const auto delay = static_cast<Time>(rng_.Exponential(mean_s) * 1e12);
    const std::uint64_t epoch = epoch_;
    // Daemon events: the open-ended upset process must not keep the
    // simulation alive once foreground work drains.
    simulator_->ScheduleDaemonAfter(delay, [this, epoch] {
        if (!running_ || epoch != epoch_) return;
        ++counters_.upsets_injected;
        // Critical-bit upsets corrupt the role immediately: the role's
        // logic misbehaves from the moment the bit flips, before any
        // scrub pass can repair it.
        if (rng_.Chance(config_.critical_bit_fraction)) {
            ++counters_.role_corruptions;
            LOG_WARN("seu") << "critical configuration upset corrupted role";
            telemetry_.Publish(mgmt::TelemetryKind::kSeuRoleCorruption);
            if (on_role_corruption_) on_role_corruption_();
        } else {
            // Corrected by the scrubber within one scan period.
            ++pending_upsets_;
            const std::uint64_t at_epoch = epoch_;
            simulator_->ScheduleDaemonAfter(kScrubPeriod, [this, at_epoch] {
                if (at_epoch != epoch_) return;
                if (pending_upsets_ > 0) {
                    --pending_upsets_;
                    ++counters_.upsets_corrected;
                }
            });
        }
        ScheduleNextUpset();
    });
}

}  // namespace catapult::fpga
