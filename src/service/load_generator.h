// Load generation for the ring- and system-level experiments (§5).
//
// Every load test is closed or open (Schroeder, Wierman &
// Harchol-Balter, "Open Versus Closed", NSDI 2006), and the paper uses
// both: closed loops, where a client sends its next document only when
// the last one answers (Figures 8-13 sweep thread and node counts), and
// open loops, where arrivals come at a set rate whatever the answers
// (Figures 14-15 sweep per-server rates against the software fleet).
//
// Three arrival processes — RunPerThreadLoop and RunSharedLoop (closed)
// and RunOpenLoop — drive LoadTargets, each drawing documents from
// corpus seed 42 with every query on model 0 (no reload churn). Misuse
// (a null pointer; a count, rate or duration <= 0; a ring position or
// thread count out of range; phase offsets out of order) aborts in
// every build.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "rank/document.h"
#include "rank/model.h"
#include "service/federated_dispatcher.h"
#include "service/ranking_service.h"
#include "service/service_pool.h"
#include "sim/simulator.h"

namespace catapult::service {

/** `count` per second of `span` (0 for an empty span). */
inline double PerSecond(std::uint64_t count, Time span) {
    const double s = ToSeconds(span);
    return s > 0 ? static_cast<double>(count) / s : 0.0;
}

/** Completions attributed to one phase of an open-loop run. */
struct LoadPhase {
    Time start = 0;  ///< Offset from load start.
    Time span = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_slo = 0;
    std::uint64_t failed = 0;
    SampleStat latency_us = {};

    /** Completions per second of wall-phase time. */
    double Qps() const { return PerSecond(completed, span); }
    /** Completions inside the SLO per second of wall-phase time. */
    double SloQps() const { return PerSecond(completed_in_slo, span); }
};

/** Latency/throughput measurements from one run. */
struct LoadResult {
    SampleStat latency_us;
    /** Open loop only: arrivals the targets took, and those they
     *  refused up front (admission control). */
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    /** Every successful completion, however late. */
    std::uint64_t completed = 0;
    /**
     * Successful completions by the end of the arrival window: an open
     * loop's backlog drain is not sustained throughput. A closed loop's
     * window ends with its last completion, so this equals `completed`.
     */
    std::uint64_t completed_in_window = 0;
    /** Failed completions, plus shared-loop clients that gave up. */
    std::uint64_t timeouts = 0;
    Time elapsed = 0;
    /** Open loop only: k phase offsets make k+1 phases. */
    std::vector<LoadPhase> phases;

    double ThroughputPerSecond() const {
        return PerSecond(completed_in_window, elapsed);
    }
};

using CompletionFn = std::function<void(const ScoreResult&)>;

/**
 * Where load goes. `inject(client, request, on_complete)` returns kOk
 * when the target took the document — `on_complete` then fires once,
 * with the latency the target measures — and anything else when it
 * refused it up front. Targets map `client` onto their own driver
 * threads; `clients` is how many distinct slot-owning clients that
 * gives, which is what the per-thread loop runs.
 */
struct LoadTarget {
    sim::Simulator* simulator = nullptr;
    int clients = 0;
    std::function<host::SendStatus(int client,
                                   const rank::CompressedRequest& request,
                                   CompletionFn on_complete)>
        inject = {};
};

/**
 * Ring positions `ring_indices`, each host's 64 DMA slots partitioned
 * among `threads_per_node` threads (§3.1: a thread owns its slots).
 * Client c injects from ring_indices[c / threads_per_node] on thread
 * c % threads_per_node.
 */
LoadTarget RingTarget(RankingService* service, std::vector<int> ring_indices,
                      int threads_per_node);

/** The pool's dispatcher; clients map onto the hosts' driver threads. */
LoadTarget PoolTarget(ServicePool* pool);

/** The federation's dispatcher; clients map onto the pods' threads. */
LoadTarget FederationTarget(FederatedDispatcher* dispatcher);

/**
 * The production host in front of ring position `ring_index` (Figs.
 * 14-15): arrivals queue host-side for a free driver slot, run the
 * software part of ranking on the host CPU (§4: SSD lookup, hit
 * vectors, software features), then inject into the local FPGA.
 * Latency runs from arrival to response; it never refuses. The CPU
 * pool's random stream forks from `rng`.
 */
LoadTarget HostFront(RankingService* service, int ring_index, Rng& rng);

/**
 * One software-only ranking server scoring with `model` (the Figs.
 * 14-15 baseline). Its CPU pool's random stream forks from `rng`.
 */
LoadTarget SoftwareServer(sim::Simulator* simulator, const rank::Model* model,
                          Rng& rng);

/**
 * Closed loop, one client per slot-owning thread: each of the target's
 * clients sends `documents` back to back, all starting at once. Runs
 * the simulator until every client is done.
 */
LoadResult RunPerThreadLoop(const LoadTarget& target, int documents);

/**
 * Closed loop over a shared budget: `clients` logical clients keep one
 * document each outstanding until `documents` have completed. Starts
 * are staggered 1 us apart, a refused send retries 100 us later, and a
 * client that is refused 1,000 times in a row gives up (one timeout),
 * so a target that never recovers cannot hang the run.
 */
LoadResult RunSharedLoop(const LoadTarget& target, int clients,
                         int documents);

struct OpenLoop {
    /** Mean arrivals per second on each target. */
    double rate = 0.0;
    /** Arrival window. */
    Time duration = 0;
    /**
     * Ascending offsets from load start; k boundaries make k+1 phases.
     * Arrivals/accepts/rejects count in the phase of the arrival,
     * completions/failures in the phase of the completion (late
     * completions land in the final phase).
     */
    std::vector<Time> phase_offsets = {};
    /**
     * Latency SLO for goodput accounting (0 = off): a slower completion
     * still counts in `completed` but not in `completed_in_slo`. In a
     * lossless retrying federation a query caught on a dying pod is
     * rarely lost, it is late, and goodput is where that shows.
     */
    Time slo = 0;
};

/**
 * Open loop: arrivals independent of completions. With `poisson`, each
 * target gets exponential gaps drawn in a chain from that one stream;
 * without, one target gets a fixed beat scheduled up front, so offered
 * load is identical run to run. No client-side queue or retry: an
 * arrival a target refuses is counted rejected and dropped.
 */
LoadResult RunOpenLoop(const std::vector<LoadTarget>& targets,
                       const OpenLoop& load, Rng* poisson);

}  // namespace catapult::service
