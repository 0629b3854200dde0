#include "service/load_generator.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/log.h"
#include "rank/document_generator.h"
#include "rank/software_ranker.h"

namespace catapult::service {

namespace {

/** Corpus seed of every arrival process (default corpus settings). */
constexpr std::uint64_t kCorpusSeed = 42;
/** Shared loop: delay before a refused send retries. */
constexpr Time kRetryDelay = Microseconds(100);
/**
 * Shared loop: consecutive refusals a client tolerates before giving
 * up (counted as one timeout). Without it a permanently drained target
 * would retry forever and the simulation would never drain.
 */
constexpr int kMaxRetries = 1'000;

/** The next corpus document, forced onto model 0 (no reload churn). */
rank::CompressedRequest NextRequest(rank::DocumentGenerator& generator) {
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;
    return request;
}

/** Count one completion; `in_window` feeds ThroughputPerSecond(). */
void Record(LoadResult& result, const ScoreResult& completion,
            bool in_window) {
    if (!completion.ok) {
        ++result.timeouts;
        return;
    }
    ++result.completed;
    if (in_window) ++result.completed_in_window;
    result.latency_us.Add(ToMicroseconds(completion.latency));
}

void CheckClosedLoop(const char* call, int clients, int documents) {
    if (clients <= 0) FatalMisuse("%s: clients %d <= 0", call, clients);
    if (documents <= 0) FatalMisuse("%s: documents %d <= 0", call, documents);
}

void CheckRingPosition(const char* call, int ring_index) {
    if (ring_index < 0 || ring_index >= RankingService::kRingLength) {
        FatalMisuse("%s: ring position %d outside [0, %d)", call, ring_index,
                    RankingService::kRingLength);
    }
}

/**
 * HostFront's state: the backlog, one slot per driver thread, the CPU.
 * Callbacks hold its address, so it is neither copied nor moved.
 */
struct HostFrontState {
    struct PendingDoc {
        rank::CompressedRequest request;
        Time arrived = 0;
        CompletionFn on_complete;
    };

    HostFrontState(RankingService* service, int ring_index, Rng rng, int slots)
        : service(service),
          ring_index(ring_index),
          cpu(service->simulator(), rng),
          slot_busy(static_cast<std::size_t>(slots), false),
          slot_callbacks(static_cast<std::size_t>(slots)) {}
    HostFrontState(const HostFrontState&) = delete;
    HostFrontState& operator=(const HostFrontState&) = delete;

    RankingService* service;
    int ring_index;
    rank::CpuPool cpu;
    std::vector<bool> slot_busy;
    /** The caller's completion of the document each thread carries. */
    std::vector<CompletionFn> slot_callbacks;
    std::deque<PendingDoc> backlog;
    rank::SoftwareCostModel cost;

    void TryDispatch() {
        // Find a free thread slot (§3.1: threads own slots exclusively);
        // with every slot outstanding the document stays queued.
        const auto free = std::find(slot_busy.begin(), slot_busy.end(), false);
        if (backlog.empty() || free == slot_busy.end()) return;
        *free = true;
        const int thread = static_cast<int>(free - slot_busy.begin());
        PendingDoc doc = std::move(backlog.front());
        backlog.pop_front();
        slot_callbacks[static_cast<std::size_t>(thread)] =
            std::move(doc.on_complete);
        // The software portion of ranking runs first (§4), then the
        // encoded document is injected into the local FPGA.
        const Time prep = cost.PrepServiceTime(doc.request);
        cpu.Submit(prep, [this, request = std::move(doc.request),
                          arrived = doc.arrived, thread] {
            const auto status = service->Inject(
                ring_index, thread, request,
                [this, thread, arrived](const ScoreResult& result) {
                    Finish(thread, arrived, result.ok);
                });
            if (status != host::SendStatus::kOk) {
                Finish(thread, arrived, false);
            }
        });
    }

    /** Free the slot and report end-to-end latency: arrival (backlog)
     *  through prep, fabric and response delivery. */
    void Finish(int thread, Time arrived, bool ok) {
        slot_busy[static_cast<std::size_t>(thread)] = false;
        const Time latency = service->simulator()->Now() - arrived;
        CompletionFn on_complete =
            std::move(slot_callbacks[static_cast<std::size_t>(thread)]);
        on_complete({.ok = ok, .latency = latency});
        TryDispatch();
    }
};

}  // namespace

LoadTarget RingTarget(RankingService* service, std::vector<int> ring_indices,
                      int threads_per_node) {
    if (service == nullptr) FatalMisuse("RingTarget: null service");
    if (threads_per_node < 1 || threads_per_node > shell::kDmaSlotCount) {
        FatalMisuse("RingTarget: threads_per_node %d outside [1, %d]",
                    threads_per_node, shell::kDmaSlotCount);
    }
    for (const int ring_index : ring_indices) {
        CheckRingPosition("RingTarget", ring_index);
        // Partition the 64 DMA slots for this experiment's threads.
        service->host(ring_index)->driver().AssignThreads(threads_per_node);
    }
    const auto rings = static_cast<int>(ring_indices.size());
    return {service->simulator(), rings * threads_per_node,
            [=](int client, const rank::CompressedRequest& request,
                CompletionFn on_complete) {
                return service->Inject(
                    ring_indices[static_cast<std::size_t>(
                        client / threads_per_node)],
                    client % threads_per_node, request,
                    std::move(on_complete));
            }};
}

LoadTarget PoolTarget(ServicePool* pool) {
    if (pool == nullptr) FatalMisuse("PoolTarget: null pool");
    const int threads = pool->ring(0).host(0)->driver().thread_count();
    return {pool->simulator(), threads,
            [=](int client, const rank::CompressedRequest& request,
                CompletionFn on_complete) {
                return pool->Inject(client % threads, request,
                                    std::move(on_complete));
            }};
}

LoadTarget FederationTarget(FederatedDispatcher* dispatcher) {
    if (dispatcher == nullptr) FatalMisuse("FederationTarget: null dispatcher");
    if (dispatcher->pod_count() == 0) {
        FatalMisuse("FederationTarget: the dispatcher fronts no pod");
    }
    const int threads = dispatcher->pod(0).config().driver_threads;
    return {dispatcher->simulator(), threads,
            [=](int client, const rank::CompressedRequest& request,
                CompletionFn on_complete) {
                return dispatcher->Inject(client % threads, request,
                                          std::move(on_complete));
            }};
}

LoadTarget HostFront(RankingService* service, int ring_index, Rng& rng) {
    if (service == nullptr) FatalMisuse("HostFront: null service");
    CheckRingPosition("HostFront", ring_index);
    const int slots = service->host(ring_index)->driver().thread_count();
    auto front = std::make_shared<HostFrontState>(service, ring_index,
                                                  rng.Fork(), slots);
    return {service->simulator(), slots,
            [front](int, const rank::CompressedRequest& request,
                    CompletionFn on_complete) {
                front->backlog.push_back(
                    {request, front->service->simulator()->Now(),
                     std::move(on_complete)});
                front->TryDispatch();
                return host::SendStatus::kOk;
            }};
}

LoadTarget SoftwareServer(sim::Simulator* simulator, const rank::Model* model,
                          Rng& rng) {
    if (simulator == nullptr) FatalMisuse("SoftwareServer: null simulator");
    if (model == nullptr) FatalMisuse("SoftwareServer: null model");
    auto server =
        std::make_shared<rank::SoftwareRankServer>(simulator, rng.Fork());
    return {simulator, 1,
            [server, model](int, const rank::CompressedRequest& request,
                            CompletionFn on_complete) {
                // The software server's callback must be copyable.
                auto done = std::make_shared<CompletionFn>(std::move(on_complete));
                server->Submit(request, *model, [done](Time latency) {
                    (*done)({.ok = true, .latency = latency});
                });
                return host::SendStatus::kOk;
            }};
}

LoadResult RunPerThreadLoop(const LoadTarget& target, int documents) {
    CheckClosedLoop("RunPerThreadLoop", target.clients, documents);
    sim::Simulator* simulator = target.simulator;
    rank::DocumentGenerator generator(kCorpusSeed);
    LoadResult result;
    const Time started = simulator->Now();
    Time last_completion = started;
    // Everything resolves inside simulator->Run(), so the state lives
    // on this stack frame.
    std::function<void(int, int)> send_next = [&](int client, int remaining) {
        if (remaining <= 0) return;
        const auto status = target.inject(
            client, NextRequest(generator),
            [&, client, remaining](const ScoreResult& completion) {
                Record(result, completion, true);
                last_completion = simulator->Now();
                send_next(client, remaining - 1);
            });
        // Slot contention between clients sharing a slot is a
        // configuration error in a per-thread loop.
        if (status != host::SendStatus::kOk) {
            LOG_WARN("loadgen") << "closed-loop send failed: "
                                << host::ToString(status);
        }
    };
    for (int client = 0; client < target.clients; ++client) {
        send_next(client, documents);  // all start at once
    }
    simulator->Run();
    result.elapsed = last_completion - started;
    return result;
}

LoadResult RunSharedLoop(const LoadTarget& target, int clients,
                         int documents) {
    CheckClosedLoop("RunSharedLoop", clients, documents);
    sim::Simulator* simulator = target.simulator;
    rank::DocumentGenerator generator(kCorpusSeed);
    LoadResult result;
    const Time started = simulator->Now();
    Time last_completion = started;
    int sent = 0;
    // Stagger client starts: two clients sharing a driver thread that
    // inject on the same host inside one injection-overhead window
    // would both pass the slot-busy check before either slot fills,
    // and the loser surfaces as a spurious timeout. A >overhead skew
    // between same-thread clients avoids the herd; steady-state
    // re-injections are naturally de-phased.
    const int active = std::min(clients, documents);
    std::vector<int> retries_left(static_cast<std::size_t>(active),
                                  kMaxRetries);
    std::function<void(int)> send_next = [&](int client) {
        if (sent >= documents) return;
        ++sent;
        const auto status = target.inject(
            client, NextRequest(generator),
            [&, client](const ScoreResult& completion) {
                Record(result, completion, true);
                last_completion = simulator->Now();
                send_next(client);
            });
        int& retries = retries_left[static_cast<std::size_t>(client)];
        if (status == host::SendStatus::kOk) {
            retries = kMaxRetries;
            return;
        }
        // Refused outright (every target drained mid-recovery, or slot
        // contention): keep the client alive and retry shortly, up to
        // its budget.
        --sent;
        if (--retries < 0) {
            ++result.timeouts;
            LOG_WARN("loadgen") << "closed-loop client " << client
                                << " gave up after " << kMaxRetries
                                << " rejected sends";
            return;
        }
        simulator->ScheduleAfter(kRetryDelay,
                                 [&, client] { send_next(client); });
    };
    for (int client = 0; client < active; ++client) {
        simulator->ScheduleAfter(Microseconds(client),
                                 [&, client] { send_next(client); });
    }
    simulator->Run();
    result.elapsed = last_completion - started;
    return result;
}

LoadResult RunOpenLoop(const std::vector<LoadTarget>& targets,
                       const OpenLoop& load, Rng* poisson) {
    if (load.rate <= 0.0) FatalMisuse("RunOpenLoop: rate %g <= 0", load.rate);
    if (load.duration <= 0) {
        FatalMisuse("RunOpenLoop: duration %lld ps <= 0",
                    static_cast<long long>(load.duration));
    }
    if (targets.empty()) FatalMisuse("RunOpenLoop: no targets");
    if (poisson == nullptr && targets.size() != 1) {
        FatalMisuse("RunOpenLoop: a fixed beat drives one target, not %zu",
                    targets.size());
    }
    // Phase spans; the final phase runs to the end of the window. Each
    // offset lies between the one before it (0 for the first) and the
    // window's end.
    LoadResult result;
    Time start = 0;
    for (std::size_t p = 0; p <= load.phase_offsets.size(); ++p) {
        const Time end = p < load.phase_offsets.size() ? load.phase_offsets[p]
                                                       : load.duration;
        if (end < start || end > load.duration) {
            FatalMisuse("RunOpenLoop: phase offset %lld ps outside [%lld, "
                        "%lld] ps", static_cast<long long>(end),
                        static_cast<long long>(start),
                        static_cast<long long>(load.duration));
        }
        result.phases.push_back({.start = start, .span = end - start});
        start = end;
    }

    sim::Simulator* simulator = targets.front().simulator;
    rank::DocumentGenerator generator(kCorpusSeed);
    const Time load_start = simulator->Now();
    const Time deadline = load_start + load.duration;
    const auto& offsets = load.phase_offsets;
    auto phase_at = [&](Time now) -> LoadPhase& {
        return result.phases[static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), now - load_start) -
            offsets.begin())];
    };
    int arrival_seq = 0;
    auto arrive = [&](std::size_t target) {
        LoadPhase& arrival_phase = phase_at(simulator->Now());
        ++arrival_phase.arrivals;
        const auto status = targets[target].inject(
            arrival_seq++, NextRequest(generator),
            [&](const ScoreResult& completion) {
                // Attribute the completion to the phase it *lands* in:
                // that is what retained-QPS-across-an-incident means (a
                // query delayed across a fault boundary counts against
                // the incident phase).
                const Time now = simulator->Now();
                Record(result, completion, now <= deadline);
                LoadPhase& phase = phase_at(now);
                if (!completion.ok) {
                    ++phase.failed;
                    return;
                }
                ++phase.completed;
                if (load.slo == 0 || completion.latency <= load.slo) {
                    ++phase.completed_in_slo;
                }
                phase.latency_us.Add(ToMicroseconds(completion.latency));
            });
        // A refused arrival is answered now and dropped, never queued
        // client-side.
        const bool ok = status == host::SendStatus::kOk;
        ++(ok ? arrival_phase.accepted : arrival_phase.rejected);
        ++(ok ? result.accepted : result.rejected);
    };

    // Poisson: draw the next gap and schedule that arrival; it chains
    // the next.
    std::function<void(std::size_t)> schedule = [&](std::size_t target) {
        const double gap_s = poisson->Exponential(1.0 / load.rate);
        const Time at = simulator->Now() + static_cast<Time>(gap_s * 1e12);
        if (at >= deadline) return;  // injection window closed
        simulator->ScheduleAt(at, [&, target] {
            arrive(target);
            schedule(target);
        });
    };
    if (poisson != nullptr) {
        for (std::size_t t = 0; t < targets.size(); ++t) schedule(t);
    } else {
        const Time beat = static_cast<Time>(1e12 / load.rate);
        for (Time i = 0; i < load.duration / beat; ++i) {
            simulator->ScheduleAt(load_start + beat * i, [&] { arrive(0); });
        }
    }
    simulator->Run();
    result.elapsed = load.duration;
    return result;
}

}  // namespace catapult::service
