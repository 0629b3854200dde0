#include "shell/sl3_link.h"

#include <cassert>
#include <map>
#include <utility>

#include "common/log.h"

namespace catapult::shell {

namespace {

/** Bound on flits queued for transmit before Send() reports pressure. */
constexpr std::size_t kTxQueueBoundFlits = 16384;

/** Link relock time after a TX Halt is released. */
constexpr Time kRelockDelay = Microseconds(2);

}  // namespace

Sl3Link::Sl3Link(sim::Simulator* simulator, std::string name, Rng rng,
                 Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      rng_(rng),
      config_(config) {
    assert(simulator_ != nullptr);
}

void Sl3Link::ConnectTo(Sl3Link* peer) {
    assert(peer != nullptr);
    peer_ = peer;
    peer->peer_ = this;
}

bool Sl3Link::Send(PacketPtr&& packet) {
    if (packet == nullptr) {
        FatalMisuse("Sl3Link::Send(%s): null packet", name_.c_str());
    }
    if (tx_queue_flits_ >= kTxQueueBoundFlits) return false;
    packet->shell_version = shell_version_;
    tx_queue_flits_ += static_cast<std::size_t>(FlitCount(packet->size));
    tx_queue_.push_back(std::move(packet));
    PumpTransmit();
    return true;
}

bool Sl3Link::Transmitting() {
    if (transmitting_ && simulator_->Passed(busy_until_,
                                            sim::EventPriority::kDefault,
                                            end_sequence_)) {
        transmitting_ = false;
    }
    return transmitting_;
}

void Sl3Link::PumpTransmit() {
    if (tx_queue_.empty()) return;
    if (Transmitting()) {
        // The queued packet starts where the serialization ends.
        ScheduleEnd();
        return;
    }
    if (tx_halted_) {
        // §3.4: traffic generated while halted is suppressed, not queued
        // indefinitely — the role is quiesced during reconfiguration.
        counters_.tx_halt_suppressed += tx_queue_.size();
        tx_queue_.clear();
        tx_queue_flits_ = 0;
        return;
    }
    if (peer_xoff_) return;  // Xoff: pause after the current packet.
    StartTransmit();
}

void Sl3Link::StartTransmit() {
    PacketPtr packet = tx_queue_.pop_front();
    const auto flits = static_cast<std::size_t>(FlitCount(packet->size));
    tx_queue_flits_ -= flits;
    ++counters_.packets_sent;
    counters_.flits_sent += flits;

    transmitting_ = true;
    busy_until_ = simulator_->Now() + SerializationTime(packet->size);
    end_sequence_ = simulator_->ReserveSequence();
    end_scheduled_ = false;
    wire_.push_back(std::move(packet));
    if (peer_ != nullptr) {
        ScheduleArrival();
    } else {
        // Unconnected: the end event counts the drop (or delivers, if a
        // peer was cabled meanwhile).
        end_delivers_ = true;
        ScheduleEnd();
    }
    if (!tx_queue_.empty()) ScheduleEnd();
}

void Sl3Link::ScheduleEnd() {
    if (end_scheduled_) return;
    end_scheduled_ = true;
    simulator_->ScheduleReserved(busy_until_, end_sequence_,
                                 [this] { EndTransmit(); });
}

void Sl3Link::EndTransmit() {
    end_scheduled_ = false;
    if (end_delivers_) {
        end_delivers_ = false;
        if (peer_ != nullptr) {
            ScheduleArrival();
        } else {
            wire_.pop_back();
            ++counters_.no_peer_drops;
        }
    }
    PumpTransmit();
}

void Sl3Link::ScheduleArrival() {
    last_arrival_ = simulator_->ScheduleAt(
        busy_until_ + kPropagationDelay,
        [this, peer = peer_] { peer->Arrive(wire_.pop_front()); },
        sim::EventPriority::kDeliver);
}

void Sl3Link::YieldArrivalToControl() {
    if (end_delivers_ || simulator_->Now() != busy_until_ || !Transmitting()) {
        return;
    }
    simulator_->Cancel(last_arrival_);
    end_delivers_ = true;
    ScheduleEnd();
}

void Sl3Link::set_defective(bool defective) {
    const bool went_down = defective && !config_.defective;
    config_.defective = defective;
    // Lock loss is the event; packets dropped while down are accounted
    // individually in Arrive so a flap under traffic looks like the
    // burst it is.
    if (went_down) telemetry_.Publish(mgmt::TelemetryKind::kLinkDown);
}

bool Sl3Link::SurvivesErrorModel(Packet& packet) {
    if (config_.bit_error_rate <= 0.0) return true;
    const double bits = static_cast<double>(packet.size) * 8.0;
    const double lambda = bits * config_.bit_error_rate;
    const std::uint64_t errors = rng_.Poisson(lambda);
    if (errors == 0) return true;

    // Distribute error bits over flits and judge each flit by its count:
    // 1 error -> SECDED corrects; 2 -> detected, packet dropped;
    // >= 3 -> passes flit ECC, caught by the end-of-packet CRC with
    // probability 1 - 2^-32.
    const int flits = FlitCount(packet.size);
    std::map<int, int> per_flit;
    for (std::uint64_t e = 0; e < errors; ++e) {
        const int flit =
            static_cast<int>(rng_.NextBounded(static_cast<std::uint64_t>(flits)));
        ++per_flit[flit];
    }
    bool double_bit = false;
    bool escaped_ecc = false;
    std::uint64_t corrected = 0;
    for (const auto& [flit, count] : per_flit) {
        if (count == 1) {
            ++corrected;
        } else if (count == 2) {
            double_bit = true;
        } else {
            escaped_ecc = true;
        }
    }
    counters_.single_bit_corrected += corrected;
    if (corrected > 0) packet.ecc_corrected = true;
    if (double_bit) {
        ++counters_.double_bit_drops;
        telemetry_.Publish(mgmt::TelemetryKind::kLinkCrcError);
        return false;
    }
    if (escaped_ecc) {
        // End-of-packet CRC check (CRC-32).
        if (rng_.NextDouble() < 1.0 - 0x1.0p-32) {
            ++counters_.crc_drops;
            telemetry_.Publish(mgmt::TelemetryKind::kLinkCrcError);
            return false;
        }
        ++counters_.undetected_errors;
        // Undetected corruption proceeds; flag as application corruption.
        if (on_corruption_) on_corruption_(packet);
    }
    return true;
}

void Sl3Link::Arrive(PacketPtr packet) {
    if (config_.defective) {
        ++counters_.defective_drops;
        telemetry_.Publish(mgmt::TelemetryKind::kLinkDown);
        return;
    }
    if (packet->type == PacketType::kTxHalt) {
        OnPeerDeclaredHalt(true);
        return;
    }
    if (rx_halted_) {
        ++counters_.rx_halt_drops;
        return;
    }
    if (peer_declared_halt_) {
        // Peer warned us it is reconfiguring: ignore everything,
        // including garbage, until the link is re-established.
        if (packet->type == PacketType::kGarbage) ++counters_.garbage_received;
        ++counters_.rx_halt_drops;
        return;
    }
    if (packet->type == PacketType::kGarbage) {
        // Garbage arriving with no halt protection corrupts state (§3.4).
        ++counters_.garbage_received;
        LOG_WARN("sl3") << name_ << ": unprotected garbage burst received";
        if (on_corruption_) on_corruption_(*packet);
        return;
    }
    if (packet->shell_version != shell_version_) {
        // "Old data from FPGAs that have not yet been reconfigured".
        ++counters_.version_mismatch_drops;
        return;
    }
    if (!SurvivesErrorModel(*packet)) return;

    ++counters_.packets_delivered;
    rx_queue_flits_ += static_cast<std::size_t>(FlitCount(packet->size));
    rx_queue_.push_back(std::move(packet));
    NotifyRxOccupancy();
    if (on_receive_) on_receive_();
}

PacketPtr Sl3Link::PopReceived() {
    if (rx_queue_.empty()) return nullptr;
    PacketPtr packet = rx_queue_.pop_front();
    rx_queue_flits_ -= static_cast<std::size_t>(FlitCount(packet->size));
    NotifyRxOccupancy();
    return packet;
}

void Sl3Link::NotifyRxOccupancy() {
    if (!rx_xoff_sent_ &&
        rx_queue_flits_ >= static_cast<std::size_t>(config_.rx_xoff_threshold_flits)) {
        rx_xoff_sent_ = true;
        ++counters_.xoff_asserted;
        if (peer_ != nullptr) {
            simulator_->ScheduleAfter(kPropagationDelay,
                                      [peer = peer_] { peer->OnPeerXoff(true); });
        }
    } else if (rx_xoff_sent_ &&
               rx_queue_flits_ <= static_cast<std::size_t>(config_.rx_xon_threshold_flits)) {
        rx_xoff_sent_ = false;
        if (peer_ != nullptr) {
            simulator_->ScheduleAfter(kPropagationDelay,
                                      [peer = peer_] { peer->OnPeerXoff(false); });
        }
    }
}

void Sl3Link::OnPeerXoff(bool asserted) {
    peer_xoff_ = asserted;
    if (!asserted) PumpTransmit();
}

void Sl3Link::OnPeerDeclaredHalt(bool halted) {
    peer_declared_halt_ = halted;
}

void Sl3Link::SetTxHalt(bool halted) {
    if (tx_halted_ == halted) return;
    tx_halted_ = halted;
    if (halted) {
        // Emit the TX Halt control message ahead of any garbage.
        if (peer_ != nullptr) {
            YieldArrivalToControl();
            simulator_->ScheduleAfter(
                kPropagationDelay,
                [peer = peer_] { peer->OnPeerDeclaredHalt(true); },
                sim::EventPriority::kDeliver);
        }
        counters_.tx_halt_suppressed += tx_queue_.size();
        tx_queue_.clear();
        tx_queue_flits_ = 0;
    } else {
        // Link re-establishes after relock; peer resumes accepting.
        if (peer_ != nullptr) {
            simulator_->ScheduleAfter(
                kPropagationDelay + kRelockDelay,
                [peer = peer_] { peer->OnPeerDeclaredHalt(false); });
        }
        simulator_->ScheduleAfter(kRelockDelay, [this] { PumpTransmit(); });
    }
}

void Sl3Link::SetRxHalt(bool halted) {
    rx_halted_ = halted;
}

void Sl3Link::EmitGarbageBurst() {
    if (peer_ == nullptr) return;
    // A reconfiguring FPGA "may send garbage data" (§3.4): model one
    // burst of a few junk flits hitting the neighbour.
    YieldArrivalToControl();
    simulator_->ScheduleAfter(
        kPropagationDelay,
        [peer = peer_, garbage = MakePacket(PacketType::kGarbage, kInvalidNode,
                                            kInvalidNode, kFlitBytes * 4)]()
            mutable { peer->Arrive(std::move(garbage)); },
        sim::EventPriority::kDeliver);
}

}  // namespace catapult::shell
