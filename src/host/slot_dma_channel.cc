#include "host/slot_dma_channel.h"

#include <cassert>

#include "common/log.h"

namespace catapult::host {

const char* ToString(SendStatus status) {
    switch (status) {
      case SendStatus::kOk: return "ok";
      case SendStatus::kTimeout: return "timeout";
      case SendStatus::kSlotBusy: return "slot_busy";
      case SendStatus::kBadRequest: return "bad_request";
    }
    return "?";
}

SlotDmaChannel::SlotDmaChannel(sim::Simulator* simulator,
                               shell::DmaEngine* dma, Config config)
    : simulator_(simulator), dma_(dma), config_(config) {
    assert(simulator_ != nullptr);
    assert(dma_ != nullptr);
    dma_->set_on_output_ready([this](int slot, shell::PacketPtr packet) {
        OnOutputReady(slot, std::move(packet));
    });
}

int SlotDmaChannel::AssignThreads(int thread_count) {
    if (thread_count < 1 || thread_count > shell::kDmaSlotCount) {
        FatalMisuse("SlotDmaChannel::AssignThreads: thread_count %d outside "
                    "[1, %d]",
                    thread_count, shell::kDmaSlotCount);
    }
    thread_count_ = thread_count;
    slots_per_thread_ = shell::kDmaSlotCount / thread_count;
    return slots_per_thread_;
}

int SlotDmaChannel::SlotFor(int thread, int k) const {
    if (thread < 0 || thread >= thread_count_) {
        FatalMisuse("SlotDmaChannel::SlotFor: thread %d outside [0, %d)",
                    thread, thread_count_);
    }
    if (k < 0 || k >= slots_per_thread_) {
        FatalMisuse("SlotDmaChannel::SlotFor: k %d outside [0, %d)", k,
                    slots_per_thread_);
    }
    return thread * slots_per_thread_ + k;
}

SendStatus SlotDmaChannel::Send(int slot, shell::PacketPtr request,
                                ResponseFn on_response) {
    if (slot < 0 || slot >= shell::kDmaSlotCount) {
        FatalMisuse("SlotDmaChannel::Send: slot %d outside [0, %d)", slot,
                    shell::kDmaSlotCount);
    }
    if (pending_[slot].active) return SendStatus::kSlotBusy;
    if (request->size > shell::kDmaSlotBytes) return SendStatus::kBadRequest;
    if (dma_->InputFull(slot)) {
        // Idle by the driver's books but still full on the device: the
        // request would be dropped, and only its timeout would notice.
        FatalMisuse("SlotDmaChannel::Send: slot %d is idle but its input "
                    "full bit is set",
                    slot);
    }

    Pending& p = pending_[slot];
    p.active = true;
    p.request_id = next_request_id_++;
    p.on_response = std::move(on_response);
    const std::uint64_t id = p.request_id;
    p.timeout = simulator_->ScheduleAfter(
        config_.request_timeout, [this, slot, id] { OnTimeout(slot, id); },
        sim::EventPriority::kTimeout);

    ++counters_.sent;
    request->slot = slot;
    request->injected_at = simulator_->Now();
    dma_->SetInputFull(slot, std::move(request));
    return SendStatus::kOk;
}

void SlotDmaChannel::OnOutputReady(int slot, shell::PacketPtr packet) {
    Pending& p = pending_[slot];
    dma_->ConsumeOutput(slot);  // the consumer thread drains immediately
    if (!p.active) {
        // Response to a request we already timed out.
        ++counters_.late_responses;
        return;
    }
    ++counters_.responses;
    simulator_->Cancel(p.timeout);
    p.active = false;
    ResponseFn cb = std::move(p.on_response);
    if (cb) cb(SendStatus::kOk, std::move(packet));
}

void SlotDmaChannel::OnTimeout(int slot, std::uint64_t request_id) {
    Pending& p = pending_[slot];
    if (!p.active || p.request_id != request_id) return;
    ++counters_.timeouts;
    LOG_DEBUG("driver") << "request on slot " << slot
                        << " timed out; diverting to failure handling";
    p.active = false;
    ResponseFn cb = std::move(p.on_response);
    if (cb) cb(SendStatus::kTimeout, nullptr);
}

}  // namespace catapult::host
