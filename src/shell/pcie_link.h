// PCIe x8 link between host CPU and FPGA.
//
// §2.1/§3.1: the FPGA interfaces to the host over PCIe with a custom
// DMA engine; the design goal is "fewer than 10 us for transfers of
// 16 KB or less", achieved by avoiding system calls (user-level buffers)
// — that part lives in host::SlotDmaChannel. This model provides the
// raw transport: per-transfer base latency plus serialization at the
// effective link bandwidth, one transfer at a time per direction.

#pragma once

#include <cstdint>

#include "common/ring_queue.h"
#include "common/units.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::shell {

class PcieLink {
  public:
    struct Counters {
        std::uint64_t errors = 0;
    };

    explicit PcieLink(sim::Simulator* simulator);

    /** Completion callback: true when the transfer succeeded. */
    using DoneFn = sim::InlineFunction<void(bool)>;

    /**
     * Queue a transfer in one direction; both directions share the model
     * object but have independent channels in hardware, so callers keep
     * one PcieLink per direction.
     */
    void Transfer(Bytes size, DoneFn on_done);

    /** Unqueued time for a transfer of `size` bytes. */
    Time TransferTime(Bytes size) const;

    /** Surprise-removal state: device reconfiguring (§3.4). */
    void set_device_present(bool present) { device_present_ = present; }

    const Counters& counters() const { return counters_; }
    std::size_t QueueDepth() const { return queue_.size(); }

  private:
    struct Request {
        Bytes size = 0;
        DoneFn on_done;
    };

    void Pump();
    void Complete();

    sim::Simulator* simulator_;
    Counters counters_;
    RingQueue<Request> queue_;
    /** The transfer on the link; its completion event captures `this`. */
    Request active_;
    bool busy_ = false;
    bool device_present_ = true;
};

}  // namespace catapult::shell
