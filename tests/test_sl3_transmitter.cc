// The one-event SL3 transmitter, differentially tested against the
// two-event model it replaced.
//
// TwoEventLink below is a test-local copy of the transmitter as it was:
// a serialization-done event at the end of every packet, which then
// schedules the arrival one propagation delay later and starts the next
// queued packet (the way test_timing_wheel.cc keeps its reference
// queue). Each seed builds two identical rigs — a pair of Sl3Links on
// one simulator and a pair of TwoEventLinks on another — and replays
// one scripted run on both: random sizes, bursts queued behind a busy
// link, sends, halts and garbage bursts landing exactly at a
// serialization end (ordered both before and after it in that
// instant), low Xoff/Xon thresholds with a slow receiver, TX halt and
// relock, RX halt, defective flips and bit errors. Every arrival (time,
// receiving end), every drained packet (with its trace id), every
// corruption report and every counter of both endpoints must match. A
// mismatch names its seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "shell/packet.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult::shell {
namespace {

constexpr std::size_t kTxQueueBoundFlits = 16384;
constexpr Time kRelockDelay = Microseconds(2);

/** The two-event transmitter, as Sl3Link was before (telemetry aside). */
class TwoEventLink {
  public:
    TwoEventLink(sim::Simulator* simulator, std::string name, Rng rng,
                 Sl3Link::Config config)
        : simulator_(simulator), name_(std::move(name)), rng_(rng),
          config_(config) {}

    void ConnectTo(TwoEventLink* peer) {
        peer_ = peer;
        peer->peer_ = this;
    }

    bool Send(PacketPtr&& packet) {
        if (tx_queue_flits_ >= kTxQueueBoundFlits) return false;
        packet->shell_version = shell_version_;
        tx_queue_flits_ += static_cast<std::size_t>(FlitCount(packet->size));
        tx_queue_.push_back(std::move(packet));
        PumpTransmit();
        return true;
    }

    std::size_t TxQueueDepthFlits() const { return tx_queue_flits_; }
    std::size_t RxQueueDepthFlits() const { return rx_queue_flits_; }
    bool HasReceived() const { return !rx_queue_.empty(); }

    PacketPtr PopReceived() {
        if (rx_queue_.empty()) return nullptr;
        PacketPtr packet = std::move(rx_queue_.front());
        rx_queue_.pop_front();
        rx_queue_flits_ -= static_cast<std::size_t>(FlitCount(packet->size));
        NotifyRxOccupancy();
        return packet;
    }

    void SetTxHalt(bool halted) {
        if (tx_halted_ == halted) return;
        tx_halted_ = halted;
        if (halted) {
            if (peer_ != nullptr) {
                simulator_->ScheduleAfter(
                    Sl3Link::kPropagationDelay,
                    [peer = peer_] { peer->peer_declared_halt_ = true; },
                    sim::EventPriority::kDeliver);
            }
            counters_.tx_halt_suppressed += tx_queue_.size();
            tx_queue_.clear();
            tx_queue_flits_ = 0;
        } else {
            if (peer_ != nullptr) {
                simulator_->ScheduleAfter(
                    Sl3Link::kPropagationDelay + kRelockDelay,
                    [peer = peer_] { peer->peer_declared_halt_ = false; });
            }
            simulator_->ScheduleAfter(kRelockDelay, [this] { PumpTransmit(); });
        }
    }

    void SetRxHalt(bool halted) { rx_halted_ = halted; }

    void EmitGarbageBurst() {
        if (peer_ == nullptr) return;
        simulator_->ScheduleAfter(
            Sl3Link::kPropagationDelay,
            [peer = peer_, garbage = MakePacket(PacketType::kGarbage,
                                                kInvalidNode, kInvalidNode,
                                                kFlitBytes * 4)]() mutable {
                peer->Arrive(std::move(garbage));
            },
            sim::EventPriority::kDeliver);
    }

    void set_on_receive(std::function<void()> cb) { on_receive_ = std::move(cb); }
    void set_on_corruption(std::function<void(const Packet&)> cb) {
        on_corruption_ = std::move(cb);
    }
    void set_bit_error_rate(double ber) { config_.bit_error_rate = ber; }
    void set_defective(bool defective) { config_.defective = defective; }
    bool defective() const { return config_.defective; }
    const Sl3Link::Counters& counters() const { return counters_; }

    Time SerializationTime(Bytes size) const {
        return Sl3Link::kRawBandwidth.Scaled(1.0 - config_.ecc_overhead)
            .SerializationTime(size);
    }

  private:
    void PumpTransmit() {
        if (tx_busy_ || tx_queue_.empty()) return;
        if (tx_halted_) {
            counters_.tx_halt_suppressed += tx_queue_.size();
            tx_queue_.clear();
            tx_queue_flits_ = 0;
            return;
        }
        if (peer_xoff_) return;

        PacketPtr packet = std::move(tx_queue_.front());
        tx_queue_.pop_front();
        tx_queue_flits_ -= static_cast<std::size_t>(FlitCount(packet->size));
        tx_busy_ = true;
        ++counters_.packets_sent;
        counters_.flits_sent +=
            static_cast<std::uint64_t>(FlitCount(packet->size));
        const Time serialization = SerializationTime(packet->size);
        simulator_->ScheduleAfter(
            serialization, [this, packet = std::move(packet)]() mutable {
                tx_busy_ = false;
                if (peer_ != nullptr) {
                    simulator_->ScheduleAfter(
                        Sl3Link::kPropagationDelay,
                        [peer = peer_, packet = std::move(packet)]() mutable {
                            peer->Arrive(std::move(packet));
                        },
                        sim::EventPriority::kDeliver);
                } else {
                    ++counters_.no_peer_drops;
                }
                PumpTransmit();
            });
    }

    bool SurvivesErrorModel(Packet& packet) {
        if (config_.bit_error_rate <= 0.0) return true;
        const double bits = static_cast<double>(packet.size) * 8.0;
        const std::uint64_t errors = rng_.Poisson(bits * config_.bit_error_rate);
        if (errors == 0) return true;
        const int flits = FlitCount(packet.size);
        std::map<int, int> per_flit;
        for (std::uint64_t e = 0; e < errors; ++e) {
            ++per_flit[static_cast<int>(
                rng_.NextBounded(static_cast<std::uint64_t>(flits)))];
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
            return false;
        }
        if (escaped_ecc) {
            if (rng_.NextDouble() < 1.0 - 0x1.0p-32) {
                ++counters_.crc_drops;
                return false;
            }
            ++counters_.undetected_errors;
            if (on_corruption_) on_corruption_(packet);
        }
        return true;
    }

    void Arrive(PacketPtr packet) {
        if (config_.defective) {
            ++counters_.defective_drops;
            return;
        }
        if (packet->type == PacketType::kTxHalt) {
            peer_declared_halt_ = true;
            return;
        }
        if (rx_halted_) {
            ++counters_.rx_halt_drops;
            return;
        }
        if (peer_declared_halt_) {
            if (packet->type == PacketType::kGarbage) {
                ++counters_.garbage_received;
            }
            ++counters_.rx_halt_drops;
            return;
        }
        if (packet->type == PacketType::kGarbage) {
            ++counters_.garbage_received;
            if (on_corruption_) on_corruption_(*packet);
            return;
        }
        if (packet->shell_version != shell_version_) {
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

    void NotifyRxOccupancy() {
        if (!rx_xoff_sent_ &&
            rx_queue_flits_ >=
                static_cast<std::size_t>(config_.rx_xoff_threshold_flits)) {
            rx_xoff_sent_ = true;
            ++counters_.xoff_asserted;
            if (peer_ != nullptr) {
                simulator_->ScheduleAfter(Sl3Link::kPropagationDelay,
                                          [peer = peer_] { peer->OnPeerXoff(true); });
            }
        } else if (rx_xoff_sent_ &&
                   rx_queue_flits_ <=
                       static_cast<std::size_t>(config_.rx_xon_threshold_flits)) {
            rx_xoff_sent_ = false;
            if (peer_ != nullptr) {
                simulator_->ScheduleAfter(Sl3Link::kPropagationDelay,
                                          [peer = peer_] { peer->OnPeerXoff(false); });
            }
        }
    }

    void OnPeerXoff(bool asserted) {
        peer_xoff_ = asserted;
        if (!asserted) PumpTransmit();
    }

    sim::Simulator* simulator_;
    std::string name_;
    Rng rng_;
    Sl3Link::Config config_;
    TwoEventLink* peer_ = nullptr;
    std::uint32_t shell_version_ = 1;
    std::deque<PacketPtr> tx_queue_;
    std::size_t tx_queue_flits_ = 0;
    bool tx_busy_ = false;
    bool tx_halted_ = false;
    bool peer_xoff_ = false;
    std::deque<PacketPtr> rx_queue_;
    std::size_t rx_queue_flits_ = 0;
    bool rx_halted_ = false;
    bool rx_xoff_sent_ = false;
    bool peer_declared_halt_ = false;
    std::function<void()> on_receive_;
    std::function<void(const Packet&)> on_corruption_;
    Sl3Link::Counters counters_;
};

enum class Act : std::uint8_t {
    kSend,
    kBurst,      ///< Several sends at once: all but the first queue.
    kTxHalt,
    kTxRelease,  ///< Relock.
    kRxHalt,     ///< At the receiving end.
    kRxRelease,
    kDefective,  ///< Flip the receiving end's lock.
    kGarbage,
    kBer,        ///< New bit error rate at the receiving end.
};

/** One scripted action on the link from `side` to the other end. */
struct Action {
    Act act = Act::kSend;
    int side = 0;
    Bytes size = 0;
    int count = 1;
    double ber = 0.0;
};

/**
 * A scripted step: `action` at (`at`, `priority`). A chained step sends
 * a packet of `chain_size` and schedules `follow` at the instant that
 * packet's serialization ends when the link is idle — scheduled before
 * the send (ordered ahead of the end) or after it (ordered behind).
 */
struct Step {
    Time at = 0;
    sim::EventPriority priority = sim::EventPriority::kDefault;
    Action action;
    bool chained = false;
    Bytes chain_size = 0;
    bool follow_first = false;
    Action follow;
};

struct Script {
    Sl3Link::Config config;
    Time drain_period = 0;
    std::vector<Step> steps;
};

Bytes RandomSize(Rng& rng) {
    static constexpr Bytes kSizes[] = {1, 32, 64, 100, 256, 512,
                                       1024, 2048, 4096, 16000};
    return kSizes[rng.NextBounded(std::size(kSizes))];
}

Action RandomAction(Rng& rng) {
    Action a;
    a.side = rng.NextBounded(4) == 0 ? 1 : 0;
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 55) {
        a.act = Act::kSend;
    } else if (pick < 70) {
        a.act = Act::kBurst;
        a.count = static_cast<int>(rng.UniformInt(2, 12));
    } else if (pick < 75) {
        a.act = Act::kTxHalt;
    } else if (pick < 82) {
        a.act = Act::kTxRelease;
    } else if (pick < 84) {
        a.act = Act::kRxHalt;
    } else if (pick < 88) {
        a.act = Act::kRxRelease;
    } else if (pick < 90) {
        a.act = Act::kDefective;
    } else if (pick < 96) {
        a.act = Act::kGarbage;
    } else {
        a.act = Act::kBer;
        a.ber = rng.NextBounded(2) == 0 ? 0.0 : rng.Uniform(1e-7, 2e-5);
    }
    a.size = RandomSize(rng);
    return a;
}

Script MakeScript(std::uint64_t seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    Script script;
    if (rng.NextBounded(2) == 0) {
        // Low thresholds: a slow receiver makes Xoff fire.
        script.config.rx_xoff_threshold_flits =
            static_cast<int>(rng.UniformInt(4, 96));
        script.config.rx_xon_threshold_flits =
            static_cast<int>(rng.UniformInt(0, script.config.rx_xoff_threshold_flits));
    }
    if (rng.NextBounded(4) == 0) {
        script.config.bit_error_rate = rng.Uniform(1e-7, 2e-5);
    }
    script.drain_period = Nanoseconds(rng.UniformInt(5, 400));
    const int steps = static_cast<int>(rng.UniformInt(150, 400));
    // Coarse instants make same-time collisions between steps common.
    const std::int64_t grid = rng.UniformInt(1, 50);
    for (int i = 0; i < steps; ++i) {
        Step step;
        step.at = Nanoseconds(grid * rng.UniformInt(0, 20'000 / grid));
        static constexpr sim::EventPriority kPriorities[] = {
            sim::EventPriority::kDeliver, sim::EventPriority::kDefault,
            sim::EventPriority::kDefault, sim::EventPriority::kTimeout};
        step.priority = kPriorities[rng.NextBounded(4)];
        step.action = RandomAction(rng);
        if (rng.NextBounded(3) == 0) {
            step.chained = true;
            step.chain_size = RandomSize(rng);
            step.follow_first = rng.NextBounded(2) == 0;
            step.follow = RandomAction(rng);
            step.follow.side = step.action.side;
        }
        script.steps.push_back(step);
    }
    return script;
}

/** What one rig observed. */
struct Transcript {
    /** (time, receiving side) per packet entering a receive buffer. */
    std::vector<std::tuple<Time, int>> arrivals;
    /** (time, receiving side, trace id) per drained packet. */
    std::vector<std::tuple<Time, int, std::uint64_t>> drained;
    /** (time, side) per corruption report. */
    std::vector<std::tuple<Time, int>> corruptions;
    std::vector<std::uint64_t> counters;
    std::uint64_t refused_sends = 0;
};

template <typename Link>
void AppendCounters(const Link& link, std::vector<std::uint64_t>* out) {
    const Sl3Link::Counters& c = link.counters();
    for (const std::uint64_t v :
         {c.packets_sent, c.packets_delivered, c.flits_sent,
          c.single_bit_corrected, c.double_bit_drops, c.crc_drops,
          c.undetected_errors, c.rx_halt_drops, c.tx_halt_suppressed,
          c.version_mismatch_drops, c.garbage_received, c.no_peer_drops,
          c.defective_drops, c.xoff_asserted}) {
        out->push_back(v);
    }
    out->push_back(link.TxQueueDepthFlits());
    out->push_back(link.RxQueueDepthFlits());
}

template <typename Link>
Transcript Replay(const Script& script, std::uint64_t seed) {
    sim::Simulator sim;
    Link a(&sim, "a", Rng(seed * 2 + 1), script.config);
    Link b(&sim, "b", Rng(seed * 2 + 2), script.config);
    a.ConnectTo(&b);
    Link* ends[2] = {&a, &b};
    Transcript t;
    std::uint64_t next_trace = 1;

    for (int side = 0; side < 2; ++side) {
        Link* rx = ends[side];
        rx->set_on_receive([&t, &sim, side] {
            t.arrivals.emplace_back(sim.Now(), side);
        });
        rx->set_on_corruption([&t, &sim, side](const Packet& packet) {
            t.corruptions.emplace_back(sim.Now(), side);
            (void)packet;
        });
    }
    // The slow receiver: one packet per drain period on each end.
    std::function<void(int)> drain = [&](int side) {
        if (PacketPtr p = ends[side]->PopReceived()) {
            t.drained.emplace_back(sim.Now(), side, p->trace_id);
        }
        sim.ScheduleDaemonAfter(script.drain_period, [&drain, side] {
            drain(side);
        });
    };
    for (int side = 0; side < 2; ++side) {
        sim.ScheduleDaemonAfter(script.drain_period, [&drain, side] {
            drain(side);
        });
    }

    std::function<void(const Action&)> apply = [&](const Action& action) {
        Link* tx = ends[action.side];
        Link* rx = ends[1 - action.side];
        switch (action.act) {
          case Act::kSend:
          case Act::kBurst:
            for (int i = 0; i < action.count; ++i) {
                if (!tx->Send(MakePacket(PacketType::kScoringRequest, 0, 1,
                                         action.size, next_trace++))) {
                    ++t.refused_sends;
                }
            }
            return;
          case Act::kTxHalt: tx->SetTxHalt(true); return;
          case Act::kTxRelease: tx->SetTxHalt(false); return;
          case Act::kRxHalt: rx->SetRxHalt(true); return;
          case Act::kRxRelease: rx->SetRxHalt(false); return;
          case Act::kDefective: rx->set_defective(!rx->defective()); return;
          case Act::kGarbage: tx->EmitGarbageBurst(); return;
          case Act::kBer: rx->set_bit_error_rate(action.ber); return;
        }
    };

    for (const Step& step : script.steps) {
        sim.ScheduleAt(
            step.at,
            [&, step] {
                if (!step.chained) {
                    apply(step.action);
                    return;
                }
                Link* tx = ends[step.action.side];
                const Time end = sim.Now() + tx->SerializationTime(step.chain_size);
                const auto send = [&] {
                    if (!tx->Send(MakePacket(PacketType::kScoringRequest, 0, 1,
                                             step.chain_size, next_trace++))) {
                        ++t.refused_sends;
                    }
                };
                const auto follow = [&] {
                    sim.ScheduleAt(end, [&apply, action = step.follow] {
                        apply(action);
                    });
                };
                if (step.follow_first) {
                    follow();
                    send();
                } else {
                    send();
                    follow();
                }
                apply(step.action);
            },
            step.priority);
    }
    sim.RunUntil(Milliseconds(2));
    AppendCounters(a, &t.counters);
    AppendCounters(b, &t.counters);
    return t;
}

TEST(Sl3Transmitter, MatchesTheTwoEventModel) {
    const LogLevel level = Logger::level();
    Logger::set_level(LogLevel::kError);  // garbage bursts warn
    std::uint64_t arrivals = 0;
    std::uint64_t xoffs = 0;
    std::uint64_t halt_drops = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Script script = MakeScript(seed);
        const Transcript one_event = Replay<Sl3Link>(script, seed);
        const Transcript two_event = Replay<TwoEventLink>(script, seed);
        ASSERT_EQ(one_event.arrivals, two_event.arrivals) << "seed " << seed;
        ASSERT_EQ(one_event.drained, two_event.drained) << "seed " << seed;
        ASSERT_EQ(one_event.corruptions, two_event.corruptions)
            << "seed " << seed;
        ASSERT_EQ(one_event.counters, two_event.counters) << "seed " << seed;
        ASSERT_EQ(one_event.refused_sends, two_event.refused_sends)
            << "seed " << seed;
        arrivals += one_event.arrivals.size();
        xoffs += one_event.counters[13] + one_event.counters[16 + 13];
        halt_drops += one_event.counters[7] + one_event.counters[16 + 7];
    }
    Logger::set_level(level);
    // The scripts exercised what they claim to (8,579 arrivals, 1,078
    // Xoffs and 7,941 halt drops when written).
    EXPECT_GT(arrivals, 5'000u);
    EXPECT_GT(xoffs, 500u);
    EXPECT_GT(halt_drops, 2'000u);
}

}  // namespace
}  // namespace catapult::shell
