#include "shell/packet.h"

#include <new>

#include "common/object_pool.h"

namespace catapult::shell {

namespace {

catapult::detail::PoolArena<Packet>& Pool() {
    return catapult::detail::PoolArena<Packet>::Instance();
}

}  // namespace

const char* ToString(Port port) {
    switch (port) {
      case Port::kRole: return "role";
      case Port::kPcie: return "pcie";
      case Port::kNorth: return "north";
      case Port::kSouth: return "south";
      case Port::kEast: return "east";
      case Port::kWest: return "west";
    }
    return "?";
}

Port Opposite(Port port) {
    switch (port) {
      case Port::kNorth: return Port::kSouth;
      case Port::kSouth: return Port::kNorth;
      case Port::kEast: return Port::kWest;
      case Port::kWest: return Port::kEast;
      default: return port;
    }
}

const char* ToString(PacketType type) {
    switch (type) {
      case PacketType::kScoringRequest: return "scoring_request";
      case PacketType::kScoringResponse: return "scoring_response";
      case PacketType::kModelReload: return "model_reload";
      case PacketType::kTxHalt: return "tx_halt";
      case PacketType::kLinkProbe: return "link_probe";
      case PacketType::kGarbage: return "garbage";
    }
    return "?";
}

PacketPtr MakePacket(PacketType type, NodeId source, NodeId destination,
                     Bytes size, std::uint64_t trace_id) {
    // Pooled: every document makes a few packets (request, response,
    // reload commands); recycling the blocks keeps the hop path
    // malloc-free in steady state.
    auto* packet = ::new (Pool().Allocate())
        Packet{};
    packet->type = type;
    packet->source = source;
    packet->destination = destination;
    packet->size = size;
    packet->trace_id = trace_id;
    return PacketPtr(packet);
}

void detail::ReleasePacket(Packet* packet) {
    packet->~Packet();
    Pool().Release(packet);
}

std::ptrdiff_t LivePackets() {
    return Pool().live();
}

int FlitCount(Bytes size) {
    if (size <= 0) return 1;
    return static_cast<int>((size + kFlitBytes - 1) / kFlitBytes);
}

}  // namespace catapult::shell
