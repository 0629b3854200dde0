#include "shell/pcie_link.h"

#include <cassert>

namespace catapult::shell {

namespace {

/** Effective DMA bandwidth (x8 lanes, after protocol overhead). */
constexpr Bandwidth kBandwidth = Bandwidth::MegabytesPerSecond(3'200);
/** Base latency per DMA descriptor (doorbell, TLP, completion). */
constexpr Time kBaseLatency = Nanoseconds(900);

}  // namespace

PcieLink::PcieLink(sim::Simulator* simulator) : simulator_(simulator) {
    assert(simulator_ != nullptr);
}

Time PcieLink::TransferTime(Bytes size) const {
    return kBaseLatency + kBandwidth.SerializationTime(size);
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
    const bool ok = device_present_;
    if (!ok) ++counters_.errors;
    DoneFn on_done = std::move(active_.on_done);
    on_done(ok);
    busy_ = false;
    Pump();
}

}  // namespace catapult::shell
