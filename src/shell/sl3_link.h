// SerialLite III (SL3) inter-FPGA link endpoint.
//
// Each shell has four SL3 cores wired to torus neighbours over SAS
// cables: 2 lanes x 10 Gb/s = 20 Gb/s peak bidirectional per link at
// sub-microsecond latency (§2.2). The protocol properties modelled here
// come from §3.2 and §3.4:
//   * FIFO semantics with Xon/Xoff flow control;
//   * per-flit SECDED ECC costing 20% of peak bandwidth; single-bit
//     errors corrected, double-bit errors detected (packet dropped);
//   * flits with >= 3 bit errors can pass ECC but are "likely to be
//     detected at the end of packet transmission with a CRC check";
//     double-bit/CRC failures drop the packet with no retransmission —
//     the host times out and invokes higher-level failure handling;
//   * TX Halt: a reconfiguring FPGA warns neighbours to ignore traffic
//     until the link is re-established;
//   * RX Halt: an FPGA coming out of reconfiguration drops all link
//     traffic until the Mapping Manager releases it.
//
// One event per transmission. A packet that starts serializing at t
// ends at busy_until = t + serialization and arrives at the peer at
// busy_until + propagation_delay (kDeliver); the arrival is scheduled
// the moment serialization starts, and the serialization end needs no
// event. The link keeps the key that end would have had as an event —
// (busy_until, kDefault, a sequence number reserved at the start) —
// and counts as busy until the kernel passes it (Simulator::Passed).
// When a packet waits behind the busy link, the event that starts it
// is scheduled at exactly that key (Simulator::ScheduleReserved), so
// it fires where a two-event model's serialization-done event fires,
// in time, priority and sequence.
//
// An arrival takes its sequence number when its serialization starts
// rather than when it ends. Among arrivals at the same instant that
// preserves the two-event order because the propagation delay is one
// constant (kPropagationDelay) for every link: equal arrival times mean
// equal serialization ends, which the two-event model orders by start.
//
// The detailed path — an event at the serialization end that then
// schedules the arrival — serves an unconnected link (the no-peer drop
// is counted at the end) and a TX-halt declaration or garbage burst
// sent at exactly busy_until but ahead of the end's key: that message
// must reach the peer first, so the pre-scheduled arrival is cancelled
// and rescheduled from the end event. Xoff, halts, defective links and
// bit errors act at the same instants either way;
// tests/test_sl3_transmitter.cc drives this link against a copy of the
// two-event transmitter.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/units.h"
#include "mgmt/telemetry_bus.h"
#include "shell/packet.h"
#include "sim/simulator.h"

namespace catapult::shell {

class Sl3Link {
  public:
    /** Peak per-direction bandwidth: 2 lanes x 10 Gb/s (§2.2). */
    static constexpr Bandwidth kRawBandwidth =
        Bandwidth::GigabitsPerSecond(20.0);
    /** Cable + SerDes propagation latency (sub-microsecond, §2.2). */
    static constexpr Time kPropagationDelay = Nanoseconds(400);

    struct Config {
        /** ECC tax on peak bandwidth (§3.2: 20%). */
        double ecc_overhead = 0.20;
        /** Receive buffer capacity in flits before Xoff is asserted. */
        int rx_xoff_threshold_flits = 4096;
        /** Receive occupancy at which Xon is re-asserted. */
        int rx_xon_threshold_flits = 1024;
        /** Raw bit error rate on the lanes (0 for healthy cables). */
        double bit_error_rate = 0.0;
        /** Manufacturing defect: link never locks, all traffic lost. */
        bool defective = false;
    };

    struct Counters {
        std::uint64_t packets_sent = 0;
        std::uint64_t packets_delivered = 0;
        std::uint64_t flits_sent = 0;
        std::uint64_t single_bit_corrected = 0;
        std::uint64_t double_bit_drops = 0;
        std::uint64_t crc_drops = 0;
        std::uint64_t undetected_errors = 0;
        std::uint64_t rx_halt_drops = 0;
        std::uint64_t tx_halt_suppressed = 0;
        std::uint64_t version_mismatch_drops = 0;
        std::uint64_t garbage_received = 0;
        std::uint64_t no_peer_drops = 0;
        std::uint64_t defective_drops = 0;
        std::uint64_t xoff_asserted = 0;
    };

    Sl3Link(sim::Simulator* simulator, std::string name, Rng rng,
            Config config);
    Sl3Link(sim::Simulator* simulator, std::string name, Rng rng)
        : Sl3Link(simulator, std::move(name), rng, Config()) {}

    Sl3Link(const Sl3Link&) = delete;
    Sl3Link& operator=(const Sl3Link&) = delete;

    /** Wire this endpoint to its cable peer (bidirectional). */
    void ConnectTo(Sl3Link* peer);
    Sl3Link* peer() const { return peer_; }
    bool connected() const { return peer_ != nullptr; }

    /**
     * Queue a packet for transmission. Returns false when the TX queue
     * is beyond its bound (callers treat this as backpressure); the
     * packet then stays with the caller. A null packet aborts in every
     * build.
     */
    bool Send(PacketPtr&& packet);

    /** Flits queued for transmit (the packet serializing excluded). */
    std::size_t TxQueueDepthFlits() const { return tx_queue_flits_; }

    /** Flits held in the receive buffer awaiting router drain. */
    std::size_t RxQueueDepthFlits() const { return rx_queue_flits_; }

    /** Pop the next received packet; null when empty. */
    PacketPtr PopReceived();

    /** True when the receive buffer holds at least one packet. */
    bool HasReceived() const { return !rx_queue_.empty(); }

    /**
     * TX Halt (§3.4). Entering halt emits the "TX Halt" control message
     * so the neighbour ignores subsequent garbage; leaving halt
     * re-establishes the link after a relock delay.
     */
    void SetTxHalt(bool halted);

    /** RX Halt (§3.4): drop every arriving packet until released. */
    void SetRxHalt(bool halted);
    bool rx_halted() const { return rx_halted_; }

    /** Peer has declared TX Halt; its traffic is ignored until relock. */
    bool peer_halted() const { return peer_declared_halt_; }

    /** Reconfiguration glitch: emit one garbage burst (no TX halt sent). */
    void EmitGarbageBurst();

    /** Notification hooks. */
    void set_on_receive(std::function<void()> cb) { on_receive_ = std::move(cb); }
    void set_on_corruption(std::function<void(const Packet&)> cb) {
        on_corruption_ = std::move(cb);
    }

    /** Local shell compatibility version stamped on outgoing packets. */
    void set_shell_version(std::uint32_t v) { shell_version_ = v; }
    std::uint32_t shell_version() const { return shell_version_; }

    /** Effective data bandwidth after the ECC tax. */
    Bandwidth EffectiveBandwidth() const {
        return kRawBandwidth.Scaled(1.0 - config_.ecc_overhead);
    }

    /** Serialization time of `size` bytes at the effective bandwidth. */
    Time SerializationTime(Bytes size) const {
        return EffectiveBandwidth().SerializationTime(size);
    }

    /** Whether the SL3 core achieved lane lock (false for defects). */
    bool locked() const { return connected() && !config_.defective; }

    const Counters& counters() const { return counters_; }
    const Config& config() const { return config_; }
    const std::string& name() const { return name_; }

    /** Error-injection control for tests and the FailureInjector. */
    void set_bit_error_rate(double ber) { config_.bit_error_rate = ber; }
    void set_defective(bool defective);
    bool defective() const { return config_.defective; }

    /**
     * Wire this endpoint into the health plane: CRC/double-bit drops
     * and lock losses publish as fault events attributed to the tap's
     * node (the pod-local index of the owning shell).
     */
    void AttachTelemetry(mgmt::TelemetryTap tap) { telemetry_ = tap; }

  private:
    void PumpTransmit();
    /** True until the kernel passes the current serialization end. */
    bool Transmitting();
    void StartTransmit();
    /** Schedule the event at the serialization end's reserved key. */
    void ScheduleEnd();
    void EndTransmit();
    /** The wire's oldest packet reaches the peer at busy_until_ + delay. */
    void ScheduleArrival();
    /**
     * A control message sent now reaches the peer ahead of a packet
     * whose serialization ends at this instant but after now: move
     * that packet's arrival back to the detailed path.
     */
    void YieldArrivalToControl();
    void Arrive(PacketPtr packet);
    void NotifyRxOccupancy();
    void OnPeerXoff(bool asserted);
    void OnPeerDeclaredHalt(bool halted);

    /** Apply the flit ECC + CRC error model; true when packet survives. */
    bool SurvivesErrorModel(Packet& packet);

    sim::Simulator* simulator_;
    std::string name_;
    Rng rng_;
    Config config_;
    Sl3Link* peer_ = nullptr;
    std::uint32_t shell_version_ = 1;

    RingQueue<PacketPtr> tx_queue_;
    std::size_t tx_queue_flits_ = 0;
    /** Packets serialized onto the cable and not yet arrived, oldest first. */
    RingQueue<PacketPtr> wire_;
    /**
     * The serialization in progress, as the key its end would have had
     * as an event: (busy_until_, kDefault, end_sequence_).
     */
    bool transmitting_ = false;
    Time busy_until_ = 0;
    std::uint64_t end_sequence_ = 0;
    /** The end event is scheduled at that key. */
    bool end_scheduled_ = false;
    /** The end event schedules the arrival (or counts the no-peer drop). */
    bool end_delivers_ = false;
    sim::EventHandle last_arrival_;
    bool tx_halted_ = false;
    bool peer_xoff_ = false;

    RingQueue<PacketPtr> rx_queue_;
    std::size_t rx_queue_flits_ = 0;
    bool rx_halted_ = false;
    bool rx_xoff_sent_ = false;
    bool peer_declared_halt_ = false;

    std::function<void()> on_receive_;
    std::function<void(const Packet&)> on_corruption_;
    mgmt::TelemetryTap telemetry_;
    Counters counters_;
};

}  // namespace catapult::shell
