#include "shell/router.h"

#include <cassert>

#include "common/log.h"

namespace catapult::shell {

namespace {

/** Cut-through head latency per hop through the crossbar. */
constexpr Time kHopLatency = Nanoseconds(50);
/** Retry delay when an output port is backpressured. */
constexpr Time kBackpressureRetry = Microseconds(1);

}  // namespace

Router::Router(sim::Simulator* simulator, NodeId local_node)
    : simulator_(simulator), local_node_(local_node) {
    assert(simulator_ != nullptr);
}

void Router::AttachLink(Port port, Sl3Link* link) {
    if (port != Port::kNorth && port != Port::kSouth &&
        port != Port::kEast && port != Port::kWest) {
        FatalMisuse("Router::AttachLink: port %s is not an SL3 link port",
                    ToString(port));
    }
    links_[static_cast<int>(port)] = link;
    link->set_on_receive([this, port] { OnLinkReceive(port); });
}

Sl3Link* Router::link(Port port) const {
    return links_[static_cast<int>(port)];
}

std::size_t Router::InputOccupancyFlits(Port port) const {
    const Sl3Link* l = links_[static_cast<int>(port)];
    return l != nullptr ? l->RxQueueDepthFlits() : 0;
}

void Router::RecordCrossing(const Packet& packet, Port in, Port out) {
    if (fdr_ == nullptr) return;
    FdrRecord record;
    record.timestamp = simulator_->Now();
    record.trace_id = packet.trace_id;
    record.type = packet.type;
    record.size = packet.size;
    record.ingress = in;
    record.egress = out;
    std::uint32_t queued = 0;
    for (const Sl3Link* link : links_) {
        if (link != nullptr) {
            queued += static_cast<std::uint32_t>(link->RxQueueDepthFlits());
        }
    }
    record.queue_flits = queued;
    fdr_->Record(record);
}

void Router::OnLinkReceive(Port port) {
    if (drain_scheduled_[static_cast<int>(port)]) return;
    drain_scheduled_[static_cast<int>(port)] = true;
    simulator_->ScheduleAfter(kHopLatency, [this, port] { DrainInput(port); });
}

void Router::DrainInput(Port port) {
    drain_scheduled_[static_cast<int>(port)] = false;
    Sl3Link* in = links_[static_cast<int>(port)];
    if (in == nullptr) return;
    while (in->HasReceived()) {
        // Peek at the head by popping; if the output stalls we re-queue
        // via a retry rather than head-of-line-block other messages that
        // share the crossbar (outputs are independent).
        Route(in->PopReceived(), port);
    }
}

void Router::Inject(PacketPtr packet, Port from) {
    ++counters_.injected;
    simulator_->ScheduleAfter(
        kHopLatency, [this, packet = std::move(packet), from]() mutable {
            Route(std::move(packet), from);
        });
}

void Router::Route(PacketPtr packet, Port in) {
    if (packet->destination == local_node_) {
        ++counters_.delivered_local;
        RecordCrossing(*packet, in, Port::kRole);
        if (local_delivery_) local_delivery_(std::move(packet));
        return;
    }
    Port out;
    if (!table_.Lookup(packet->destination, out)) {
        ++counters_.no_route_drops;
        LOG_DEBUG("router") << "node " << local_node_ << ": no route to "
                            << packet->destination << ", dropping "
                            << ToString(packet->type);
        return;
    }
    Sl3Link* link = links_[static_cast<int>(out)];
    if (link == nullptr) {
        ++counters_.no_route_drops;
        return;
    }
    RecordCrossing(*packet, in, out);
    if (!link->Send(std::move(packet))) {
        // Output transmit queue full: virtual cut-through applies
        // backpressure. Retry shortly; Xon/Xoff upstream of us throttles
        // the actual producer.
        ++counters_.backpressure_stalls;
        simulator_->ScheduleAfter(
            kBackpressureRetry,
            [this, packet = std::move(packet), in]() mutable {
                Route(std::move(packet), in);
            });
        return;
    }
    ++counters_.forwarded;
}

}  // namespace catapult::shell
