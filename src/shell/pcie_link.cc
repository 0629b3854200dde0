#include "shell/pcie_link.h"

#include <cassert>

namespace catapult::shell {

PcieLink::PcieLink(sim::Simulator* simulator, Config config)
    : simulator_(simulator), config_(config) {
    assert(simulator_ != nullptr);
}

void PcieLink::Transfer(Bytes size, DoneFn on_done) {
    queue_.push_back(Request{size, std::move(on_done)});
    Pump();
}

void PcieLink::Pump() {
    if (busy_ || queue_.empty()) return;
    busy_ = true;
    active_ = queue_.pop_front();
    simulator_->ScheduleAfter(TransferTime(active_.size),
                              [this] { Complete(); });
}

void PcieLink::Complete() {
    bool ok = device_present_;
    if (ok && config_.error_rate > 0.0) {
        // xorshift64* keeps this header-light; PCIe errors are only
        // enabled in failure-injection tests.
        rng_state_ ^= rng_state_ >> 12;
        rng_state_ ^= rng_state_ << 25;
        rng_state_ ^= rng_state_ >> 27;
        const double u =
            static_cast<double>((rng_state_ * 0x2545F4914F6CDD1Dull) >> 11) *
            0x1.0p-53;
        if (u < config_.error_rate) ok = false;
    }
    ++counters_.transfers;
    counters_.bytes += static_cast<std::uint64_t>(active_.size);
    if (!ok) ++counters_.errors;
    DoneFn on_done = std::move(active_.on_done);
    on_done(ok);
    busy_ = false;
    Pump();
}

}  // namespace catapult::shell
