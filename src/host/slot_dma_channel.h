// User-level slot DMA driver (§3.1).
//
// "We allocate one input and one output buffer in non-paged, user-level
// memory ... Thread safety is achieved by dividing the buffer into 64
// slots ... and by statically assigning each thread exclusive access to
// one or more slots." Requests are sent by filling a slot and setting
// its full bit; responses return through the matching output slot with
// an interrupt. Dropped packets (double-bit/CRC errors, missing routes)
// never return: "the host will time out and divert the request to a
// higher-level failure handling protocol" (§3.2) — the driver surfaces
// that as a timeout completion.

#pragma once

#include <array>
#include <cstdint>

#include "common/units.h"
#include "shell/dma_engine.h"
#include "shell/packet.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::host {

/** Completion status for one request. */
enum class SendStatus {
    kOk,          ///< Response arrived.
    kTimeout,     ///< No response within the deadline (packet lost/hung).
    kSlotBusy,    ///< Protocol violation: slot already has a request.
    kBadRequest,  ///< Request exceeded the 64 KB slot size.
};

const char* ToString(SendStatus status);

class SlotDmaChannel {
  public:
    struct Config {
        /** Host-side deadline before invoking failure handling (§3.2). */
        Time request_timeout = Milliseconds(8);
    };

    /** Response callback: status + response packet (null on timeout). */
    using ResponseFn = sim::InlineFunction<void(SendStatus, shell::PacketPtr)>;

    SlotDmaChannel(sim::Simulator* simulator, shell::DmaEngine* dma,
                   Config config);
    SlotDmaChannel(sim::Simulator* simulator, shell::DmaEngine* dma)
        : SlotDmaChannel(simulator, dma, Config()) {}

    SlotDmaChannel(const SlotDmaChannel&) = delete;
    SlotDmaChannel& operator=(const SlotDmaChannel&) = delete;

    /**
     * Statically partition the 64 slots among `thread_count` threads
     * (§3.1). Returns slots-per-thread. Threads address their slots as
     * SlotFor(thread, k) for k in [0, slots-per-thread). A count
     * outside [1, 64] aborts in every build.
     */
    int AssignThreads(int thread_count);
    int thread_count() const { return thread_count_; }
    /**
     * Slot `k` of `thread`. A thread outside [0, thread_count()) or a
     * `k` outside [0, slots-per-thread) aborts in every build: a
     * wrapped index would alias two threads onto one slot.
     */
    int SlotFor(int thread, int k = 0) const;

    /**
     * Send a request on `slot`. The request occupies the slot until the
     * response (or timeout) completes. Fails fast with kSlotBusy /
     * kBadRequest without consuming the slot. A slot out of range, or
     * an idle slot whose input full bit is still set, aborts in every
     * build.
     */
    SendStatus Send(int slot, shell::PacketPtr request, ResponseFn on_response);

    /** True when `slot` has a request outstanding. */
    bool SlotBusy(int slot) const { return pending_[slot].active; }

    struct Counters {
        std::uint64_t sent = 0;
        std::uint64_t responses = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t late_responses = 0;
    };
    const Counters& counters() const { return counters_; }

    const Config& config() const { return config_; }

  private:
    struct Pending {
        bool active = false;
        std::uint64_t request_id = 0;
        ResponseFn on_response;
        sim::EventHandle timeout;
    };

    void OnOutputReady(int slot, shell::PacketPtr packet);
    void OnTimeout(int slot, std::uint64_t request_id);

    sim::Simulator* simulator_;
    shell::DmaEngine* dma_;
    Config config_;
    std::array<Pending, shell::kDmaSlotCount> pending_{};
    Counters counters_;
    std::uint64_t next_request_id_ = 1;
    int thread_count_ = 0;
    int slots_per_thread_ = 0;
};

}  // namespace catapult::host
