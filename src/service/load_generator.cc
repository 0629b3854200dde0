#include "service/load_generator.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace catapult::service {

namespace {

/** Shared knobs of the pool- and federation-level closed loops. */
struct ClosedLoopParams {
    int concurrency;
    int driver_threads;
    int documents;
    Time retry_delay;
    int max_retries;
    bool single_model;
    const char* client_label;
};

/**
 * The closed-loop client state machine, shared by
 * PoolClosedLoopInjector and FederatedClosedLoopInjector so the
 * stagger/send/retry/give-up bookkeeping exists exactly once:
 * `concurrency` clients each keep one document outstanding against
 * `inject(thread, request, on_complete) -> SendStatus`, with a bounded
 * retry budget when the target rejects outright. Everything resolves
 * inside simulator->Run(), so the state lives on this stack frame.
 */
template <typename InjectFn>
LoadResult RunClosedLoop(sim::Simulator* simulator,
                         rank::DocumentGenerator& generator,
                         const ClosedLoopParams& params, InjectFn inject) {
    LoadResult result;
    const Time started = simulator->Now();
    Time last_completion = started;
    int sent = 0;
    // Stagger client starts: two clients sharing a thread id (modulo
    // driver_threads) that inject on the same host inside one
    // injection-overhead window would both pass the slot-busy check
    // before either slot fills, and the loser surfaces as a spurious
    // timeout. A >overhead skew between same-thread clients avoids the
    // herd; steady-state re-injections are naturally de-phased.
    const int clients = std::min(params.concurrency, params.documents);
    std::vector<int> retries_left(static_cast<std::size_t>(clients),
                                  params.max_retries);
    std::function<void(int)> send_next = [&](int client) {
        if (sent >= params.documents) return;
        rank::CompressedRequest request = generator.Next();
        if (params.single_model) request.query.model_id = 0;
        ++sent;
        const auto status = inject(
            client % params.driver_threads, request,
            [&, client](const ScoreResult& completion) {
                if (completion.ok) {
                    ++result.completed;
                    result.latency_us.Add(ToMicroseconds(completion.latency));
                } else {
                    ++result.timeouts;
                }
                last_completion = simulator->Now();
                send_next(client);
            });
        if (status != host::SendStatus::kOk) {
            // Rejected outright (every target drained mid-recovery, or
            // slot contention): keep the client alive and retry
            // shortly, up to its budget — so a target that never
            // recovers cannot hang Run().
            --sent;
            if (--retries_left[static_cast<std::size_t>(client)] < 0) {
                ++result.timeouts;
                LOG_WARN("loadgen")
                    << params.client_label << " " << client
                    << " gave up after " << params.max_retries
                    << " rejected sends";
                return;
            }
            simulator->ScheduleAfter(params.retry_delay,
                                     [&, client] { send_next(client); });
            return;
        }
        retries_left[static_cast<std::size_t>(client)] = params.max_retries;
    };
    for (int client = 0; client < clients; ++client) {
        simulator->ScheduleAfter(Microseconds(client),
                                 [&, client] { send_next(client); });
    }
    simulator->Run();
    result.elapsed = last_completion - started;
    return result;
}

}  // namespace

ClosedLoopInjector::ClosedLoopInjector(RankingService* service, Config config)
    : service_(service),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(service_ != nullptr);
}

LoadResult ClosedLoopInjector::Run() {
    result_ = LoadResult{};
    started_ = service_->simulator()->Now();
    last_completion_ = started_;
    for (const int ring_index : config_.injecting_ring_indices) {
        // Partition the 64 DMA slots for this experiment's threads.
        service_->host(ring_index)->driver().AssignThreads(
            std::max(1, config_.threads_per_node));
        for (int thread = 0; thread < config_.threads_per_node; ++thread) {
            StartThread(ring_index, thread);
        }
    }
    service_->simulator()->Run();
    result_.elapsed = last_completion_ - started_;
    return result_;
}

void ClosedLoopInjector::StartThread(int ring_index, int thread) {
    SendNext(ring_index, thread, config_.documents_per_thread);
}

void ClosedLoopInjector::SendNext(int ring_index, int thread, int remaining) {
    if (remaining <= 0) return;
    rank::CompressedRequest request = generator_.Next();
    if (config_.single_model) request.query.model_id = 0;
    const auto status = service_->Inject(
        ring_index, thread, request,
        [this, ring_index, thread, remaining](const ScoreResult& result) {
            if (result.ok) {
                ++result_.completed;
                result_.latency_us.Add(ToMicroseconds(result.latency));
            } else {
                ++result_.timeouts;
            }
            last_completion_ = service_->simulator()->Now();
            SendNext(ring_index, thread, remaining - 1);
        });
    if (status != host::SendStatus::kOk) {
        // Slot contention between logical threads sharing a slot is a
        // configuration error in closed-loop mode.
        LOG_WARN("loadgen") << "closed-loop send failed: "
                            << host::ToString(status);
    }
}

PoolClosedLoopInjector::PoolClosedLoopInjector(ServicePool* pool,
                                               Config config)
    : pool_(pool),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(pool_ != nullptr);
}

LoadResult PoolClosedLoopInjector::Run() {
    const ClosedLoopParams params{config_.concurrency, config_.driver_threads,
                                  config_.documents, config_.retry_delay,
                                  config_.max_retries, config_.single_model,
                                  "pool client"};
    return RunClosedLoop(
        pool_->simulator(), generator_, params,
        [this](int thread, const rank::CompressedRequest& request,
               std::function<void(const ScoreResult&)> on_complete) {
            return pool_->Inject(thread, request, std::move(on_complete));
        });
}

FederatedClosedLoopInjector::FederatedClosedLoopInjector(
    FederatedDispatcher* dispatcher, sim::Simulator* simulator, Config config)
    : dispatcher_(dispatcher),
      simulator_(simulator),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(dispatcher_ != nullptr && simulator_ != nullptr);
}

LoadResult FederatedClosedLoopInjector::Run() {
    const ClosedLoopParams params{config_.concurrency, config_.driver_threads,
                                  config_.documents, config_.retry_delay,
                                  config_.max_retries, config_.single_model,
                                  "federated client"};
    return RunClosedLoop(
        simulator_, generator_, params,
        [this](int thread, const rank::CompressedRequest& request,
               std::function<void(const ScoreResult&)> on_complete) {
            return dispatcher_->Inject(thread, request,
                                       std::move(on_complete));
        });
}

FederatedOpenLoopInjector::FederatedOpenLoopInjector(
    FederatedDispatcher* dispatcher, sim::Simulator* simulator, Rng rng,
    Config config)
    : dispatcher_(dispatcher),
      simulator_(simulator),
      rng_(rng),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(dispatcher_ != nullptr && simulator_ != nullptr);
}

LoadResult FederatedOpenLoopInjector::Run() {
    result_ = LoadResult{};
    arrival_seq_ = 0;
    deadline_ = simulator_->Now() + config_.duration;
    ScheduleArrival();
    simulator_->Run();
    result_.elapsed = config_.duration;
    return result_;
}

void FederatedOpenLoopInjector::InjectArrival() {
    rank::CompressedRequest request = generator_.Next();
    if (config_.single_model) request.query.model_id = 0;
    const int thread = arrival_seq_++ % config_.driver_threads;
    const auto status = dispatcher_->Inject(
        thread, request, [this](const ScoreResult& result) {
            if (result.ok) {
                ++result_.completed;
                result_.latency_us.Add(ToMicroseconds(result.latency));
            } else {
                ++result_.timeouts;
            }
        });
    if (status != host::SendStatus::kOk) {
        // Open loop: an arrival the admission control refuses is
        // answered now and dropped, never queued client-side.
        ++result_.rejected;
    }
}

void FederatedOpenLoopInjector::ScheduleArrival() {
    if (config_.rate_qps <= 0.0) return;
    const double gap_s = config_.poisson
                             ? rng_.Exponential(1.0 / config_.rate_qps)
                             : 1.0 / config_.rate_qps;
    const Time at = simulator_->Now() + static_cast<Time>(gap_s * 1e12);
    if (at >= deadline_) return;  // injection window closed
    simulator_->ScheduleAt(at, [this] {
        InjectArrival();
        ScheduleArrival();
    });
}

FederatedPhasedInjector::FederatedPhasedInjector(
    FederatedDispatcher* dispatcher, sim::Simulator* simulator, Config config)
    : dispatcher_(dispatcher),
      simulator_(simulator),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(dispatcher_ != nullptr && simulator_ != nullptr);
    assert(std::is_sorted(config_.phase_offsets.begin(),
                          config_.phase_offsets.end()));
}

int FederatedPhasedInjector::PhaseOf(Time now) const {
    const Time offset = now - load_start_;
    int phase = 0;
    for (const Time boundary : config_.phase_offsets) {
        if (offset < boundary) break;
        ++phase;
    }
    return phase;
}

FederatedPhasedInjector::Result FederatedPhasedInjector::Run() {
    result_ = Result{};
    result_.phases.assign(config_.phase_offsets.size() + 1, Phase{});
    load_start_ = simulator_->Now();
    // Phase spans (final phase runs to the end of the arrival window).
    for (std::size_t p = 0; p < result_.phases.size(); ++p) {
        const Time start = p == 0 ? 0 : config_.phase_offsets[p - 1];
        const Time end = p < config_.phase_offsets.size()
                             ? config_.phase_offsets[p]
                             : config_.duration;
        result_.phases[p].start = start;
        result_.phases[p].span = end - start;
    }
    assert(config_.rate_qps > 0.0);
    const Time beat = static_cast<Time>(1e12 / config_.rate_qps);
    const std::uint64_t arrivals =
        static_cast<std::uint64_t>(config_.duration / beat);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
        simulator_->ScheduleAt(load_start_ + beat * static_cast<Time>(i),
                               [this] { InjectArrival(); });
    }
    simulator_->Run();
    return result_;
}

void FederatedPhasedInjector::InjectArrival() {
    Phase& arrival_phase = result_.phases[static_cast<std::size_t>(
        PhaseOf(simulator_->Now()))];
    ++arrival_phase.arrivals;
    rank::CompressedRequest request = generator_.Next();
    if (config_.single_model) request.query.model_id = 0;
    const int thread = arrival_seq_++ % config_.driver_threads;
    const auto status = dispatcher_->Inject(
        thread, request, [this](const ScoreResult& r) {
            // Attribute the completion to the phase it *lands* in: that
            // is what retained-QPS-across-an-incident means (a query
            // delayed across a fault boundary counts against the
            // incident phase).
            const std::size_t at = std::min(
                static_cast<std::size_t>(PhaseOf(simulator_->Now())),
                result_.phases.size() - 1);
            Phase& phase = result_.phases[at];
            if (r.ok) {
                ++phase.completed;
                ++result_.completed;
                if (config_.slo == 0 || r.latency <= config_.slo) {
                    ++phase.completed_in_slo;
                }
                phase.latency_us.Add(ToMicroseconds(r.latency));
            } else {
                ++phase.failed;
                ++result_.failed;
            }
        });
    if (status == host::SendStatus::kOk) {
        ++arrival_phase.accepted;
        ++result_.accepted;
    } else {
        ++arrival_phase.rejected;
        ++result_.rejected;
    }
}

OpenLoopInjector::OpenLoopInjector(RankingService* service, Rng rng,
                                   Config config)
    : service_(service),
      rng_(rng),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(service_ != nullptr);
}

LoadResult OpenLoopInjector::Run() {
    result_ = LoadResult{};
    nodes_.clear();
    nodes_.resize(config_.injecting_ring_indices.size());
    auto* sim = service_->simulator();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        NodeState& node = nodes_[i];
        node.slot_busy.assign(
            static_cast<std::size_t>(config_.threads_per_node), false);
        node.cpu = std::make_unique<rank::CpuPool>(sim, rng_.Fork(),
                                                   config_.cpu);
        service_->host(config_.injecting_ring_indices[i])
            ->driver()
            .AssignThreads(std::max(1, config_.threads_per_node));
    }
    const Time start = sim->Now();
    deadline_ = start + config_.duration;
    for (std::size_t i = 0; i < config_.injecting_ring_indices.size(); ++i) {
        ScheduleArrival(static_cast<int>(i));
    }
    sim->Run();
    result_.elapsed = config_.duration;
    return result_;
}

void OpenLoopInjector::ScheduleArrival(int node_index) {
    auto* sim = service_->simulator();
    if (config_.rate_per_server <= 0.0) return;
    const double gap_s = rng_.Exponential(1.0 / config_.rate_per_server);
    const Time when = sim->Now() + static_cast<Time>(gap_s * 1e12);
    if (when >= deadline_) return;  // injection window closed
    sim->ScheduleAt(when, [this, node_index] {
        PendingDoc doc;
        doc.request = generator_.Next();
        doc.arrived = service_->simulator()->Now();
        if (config_.single_model) doc.request.query.model_id = 0;
        nodes_[static_cast<std::size_t>(node_index)].backlog.push_back(
            std::move(doc));
        TryDispatch(node_index);
        ScheduleArrival(node_index);
    });
}

void OpenLoopInjector::TryDispatch(int node_index) {
    NodeState& node = nodes_[static_cast<std::size_t>(node_index)];
    if (node.backlog.empty()) return;
    // Find a free thread slot (§3.1: threads own slots exclusively).
    int thread = -1;
    for (std::size_t t = 0; t < node.slot_busy.size(); ++t) {
        if (!node.slot_busy[t]) {
            thread = static_cast<int>(t);
            break;
        }
    }
    if (thread < 0) return;  // all slots outstanding; stay in backlog

    PendingDoc doc = std::move(node.backlog.front());
    node.backlog.pop_front();
    node.slot_busy[static_cast<std::size_t>(thread)] = true;

    if (config_.host_preprocessing) {
        // The software portion of ranking runs first (§4), then the
        // encoded document is injected into the local FPGA.
        const Time prep = config_.cost.PrepServiceTime(doc.request);
        auto* cpu = node.cpu.get();
        cpu->Submit(prep, [this, node_index, doc = std::move(doc),
                           thread]() mutable {
            InjectPrepared(node_index, std::move(doc), thread);
        });
        return;
    }
    InjectPrepared(node_index, std::move(doc), thread);
}

void OpenLoopInjector::InjectPrepared(int node_index, PendingDoc doc,
                                      int thread) {
    const int ring_index =
        config_.injecting_ring_indices[static_cast<std::size_t>(node_index)];
    const Time arrived = doc.arrived;
    const auto status = service_->Inject(
        ring_index, thread, doc.request,
        [this, node_index, thread, arrived](const ScoreResult& result) {
            NodeState& n = nodes_[static_cast<std::size_t>(node_index)];
            n.slot_busy[static_cast<std::size_t>(thread)] = false;
            if (result.ok) {
                // Steady-state accounting: completions after the
                // injection window closes are backlog drain, not
                // sustained throughput.
                if (service_->simulator()->Now() <= deadline_) {
                    ++result_.completed;
                }
                // End-to-end: arrival (backlog) through prep, fabric and
                // response delivery.
                result_.latency_us.Add(
                    ToMicroseconds(service_->simulator()->Now() - arrived));
            } else {
                ++result_.timeouts;
            }
            TryDispatch(node_index);
        });
    if (status != host::SendStatus::kOk) {
        NodeState& n = nodes_[static_cast<std::size_t>(node_index)];
        n.slot_busy[static_cast<std::size_t>(thread)] = false;
        ++result_.timeouts;
        TryDispatch(node_index);
    }
}

SoftwareLoadRunner::SoftwareLoadRunner(sim::Simulator* simulator,
                                       const rank::Model* model, Rng rng,
                                       Config config)
    : simulator_(simulator),
      model_(model),
      rng_(rng),
      config_(std::move(config)),
      generator_(config_.corpus_seed, config_.corpus) {
    assert(simulator_ != nullptr && model_ != nullptr);
    for (int s = 0; s < config_.servers; ++s) {
        servers_.push_back(std::make_unique<rank::SoftwareRankServer>(
            simulator_, rng_.Fork(), config_.server));
    }
}

LoadResult SoftwareLoadRunner::Run() {
    result_ = LoadResult{};
    const Time start = simulator_->Now();
    deadline_ = start + config_.duration;
    for (int s = 0; s < config_.servers; ++s) ScheduleArrival(s);
    simulator_->Run();
    result_.elapsed = config_.duration;
    return result_;
}

void SoftwareLoadRunner::ScheduleArrival(int server) {
    if (config_.rate_per_server <= 0.0) return;
    const double gap_s = rng_.Exponential(1.0 / config_.rate_per_server);
    const Time when = simulator_->Now() + static_cast<Time>(gap_s * 1e12);
    if (when >= deadline_) return;
    simulator_->ScheduleAt(when, [this, server] {
        const rank::CompressedRequest request = generator_.Next();
        servers_[static_cast<std::size_t>(server)]->Submit(
            request, *model_, [this](Time latency) {
                if (simulator_->Now() <= deadline_) ++result_.completed;
                result_.latency_us.Add(ToMicroseconds(latency));
            });
        ScheduleArrival(server);
    });
}

}  // namespace catapult::service
