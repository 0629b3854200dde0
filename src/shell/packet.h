// Packets and flits on the inter-FPGA network.
//
// The shell's transport is "virtual cut-through with no retransmission
// or source buffering" (§3.2). Packets are segmented into flits on the
// SL3 links; ECC is per-flit (SECDED) with a CRC over the whole packet
// caught at the end of transmission. The Flight Data Recorder logs head
// and tail flits of every packet crossing the router (§3.6).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/units.h"

namespace catapult::shell {

/** Global server / FPGA identifier within a deployment. */
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/** Router ports on each shell (§3.2: 4 network + PCIe + role). */
enum class Port : std::uint8_t {
    kRole = 0,
    kPcie = 1,
    kNorth = 2,
    kSouth = 3,
    kEast = 4,
    kWest = 5,
};

inline constexpr int kPortCount = 6;

const char* ToString(Port port);

/** Opposite direction of a torus port (kNorth <-> kSouth etc.). */
Port Opposite(Port port);

/** Message classes carried over the fabric. */
enum class PacketType : std::uint8_t {
    kScoringRequest,   ///< Compressed {document, query} toward the pipeline.
    kScoringResponse,  ///< Score + counters back to the injecting server.
    kModelReload,      ///< Queue Manager model switch command (§4.3).
    kTxHalt,           ///< "Ignore me, I am reconfiguring" (§3.4).
    kLinkProbe,        ///< Health Monitor neighbour identity check (§3.5).
    kGarbage,          ///< Random traffic from a reconfiguring neighbour.
};

const char* ToString(PacketType type);

/** A packet in flight on the fabric. */
struct Packet {
    PacketType type = PacketType::kScoringRequest;
    NodeId source = kInvalidNode;
    NodeId destination = kInvalidNode;

    /** Trace id: maps to a replayable compressed document (§3.6). */
    std::uint64_t trace_id = 0;

    /** Payload size on the wire (drives serialization time). */
    Bytes size = 0;

    /** Shell compatibility version of the sender (§3.4). */
    std::uint32_t shell_version = 1;

    /** Opaque application payload (e.g. index into a document store). */
    std::uint64_t payload = 0;

    /** Set when flit ECC corrected at least one single-bit error. */
    bool ecc_corrected = false;

    /** Injection timestamp, for latency accounting. */
    Time injected_at = 0;

    /** Slot the requesting thread used (for response routing, §3.1). */
    std::int32_t slot = -1;

    /**
     * Index of the document's context in the owning service's slot
     * table; meaningful together with `trace_id`.
     */
    std::uint32_t context = 0;
};

namespace detail {
void ReleasePacket(Packet* packet);
}  // namespace detail

/**
 * Owning handle to a pooled Packet: pointer-sized, move-only, with no
 * reference count. A packet has one owner at a time — a link queue,
 * the event carrying it across a hop, a DMA slot, a role — so every
 * hand-off is a move; hooks that only look at it (the FDR, corruption
 * reports) take `const Packet&`. Dropping the owning handle returns the
 * packet to this thread's pool.
 */
class PacketPtr {
  public:
    PacketPtr() = default;
    PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
    PacketPtr(PacketPtr&& other) noexcept : packet_(other.packet_) {
        other.packet_ = nullptr;
    }
    PacketPtr& operator=(PacketPtr&& other) noexcept {
        if (this != &other) {
            reset();
            packet_ = other.packet_;
            other.packet_ = nullptr;
        }
        return *this;
    }
    PacketPtr(const PacketPtr&) = delete;
    PacketPtr& operator=(const PacketPtr&) = delete;
    ~PacketPtr() { reset(); }

    Packet* operator->() const { return packet_; }
    Packet& operator*() const { return *packet_; }
    Packet* get() const { return packet_; }
    explicit operator bool() const { return packet_ != nullptr; }
    friend bool operator==(const PacketPtr& p, std::nullptr_t) {
        return p.packet_ == nullptr;
    }

    /** Return the packet to the pool now. */
    void reset() {
        if (packet_ != nullptr) {
            detail::ReleasePacket(packet_);
            packet_ = nullptr;
        }
    }

  private:
    friend PacketPtr MakePacket(PacketType, NodeId, NodeId, Bytes,
                                std::uint64_t);
    explicit PacketPtr(Packet* packet) : packet_(packet) {}

    Packet* packet_ = nullptr;
};

/** Convenience constructor: a fresh packet from this thread's pool. */
PacketPtr MakePacket(PacketType type, NodeId source, NodeId destination,
                     Bytes size, std::uint64_t trace_id = 0);

/**
 * Packets allocated from this thread's pool and not yet released. A
 * drained run returns it to its starting value; anything more is a
 * leaked handle.
 */
std::ptrdiff_t LivePackets();

/** Number of SL3 flits a packet of `size` bytes occupies. */
int FlitCount(Bytes size);

/** Flit payload width on the SL3 links. */
inline constexpr Bytes kFlitBytes = 32;

}  // namespace catapult::shell
