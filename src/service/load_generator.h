// Load generation for the ring- and system-level experiments (§5).
//
// Two injection disciplines drive the evaluation figures:
//  * closed-loop: N CPU threads per node, each keeping exactly one
//    document outstanding (Figures 8-13 sweep thread and node counts);
//  * open-loop: Poisson arrivals at a configured rate per server,
//    documents queue host-side for free slots (Figures 14-15 sweep
//    normalized injection rates against the software baseline).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "rank/document.h"
#include "rank/document_generator.h"
#include "rank/software_ranker.h"
#include "service/federated_dispatcher.h"
#include "service/ranking_service.h"
#include "service/service_pool.h"
#include "sim/simulator.h"

namespace catapult::service {

/** Latency/throughput measurements from one run. */
struct LoadResult {
    SampleStat latency_us;
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    /** Arrivals refused up front (admission control; open loop only). */
    std::uint64_t rejected = 0;
    Time elapsed = 0;

    double ThroughputPerSecond() const {
        const double s = ToSeconds(elapsed);
        return s > 0 ? static_cast<double>(completed) / s : 0.0;
    }
};

/**
 * Closed-loop injector: `threads` per injecting node, each thread owns
 * one slot and keeps one document outstanding.
 */
class ClosedLoopInjector {
  public:
    struct Config {
        std::vector<int> injecting_ring_indices = {0};
        int threads_per_node = 1;
        int documents_per_thread = 200;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        /** Force every document to one model (no reload churn). */
        bool single_model = true;
    };

    ClosedLoopInjector(RankingService* service, Config config);

    /** Run to completion; returns the measurements. */
    LoadResult Run();

  private:
    void StartThread(int ring_index, int thread);
    void SendNext(int ring_index, int thread, int remaining);

    RankingService* service_;
    Config config_;
    rank::DocumentGenerator generator_;
    LoadResult result_;
    int outstanding_ = 0;
    Time started_ = 0;
    Time last_completion_ = 0;
};

/**
 * Pool-level closed loop: `concurrency` logical clients, each keeping
 * one document outstanding against the pool's dispatcher. The pool
 * shards every send across its rings by policy, so the same offered
 * load measures 1-ring vs N-ring capacity (bench_pool_scaling).
 */
class PoolClosedLoopInjector {
  public:
    struct Config {
        /** Outstanding documents across the whole pool. */
        int concurrency = 32;
        /** Driver threads registered per host (PodTestbed default 32);
         *  clients map onto them modulo this, and slot collisions
         *  between clients sharing a thread id resolve via retry. */
        int driver_threads = 32;
        /** Total documents to complete. */
        int documents = 2'000;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        /** Force every document to one model (no reload churn). */
        bool single_model = true;
        /** Retry delay when the pool rejects (all rings drained). */
        Time retry_delay = Microseconds(100);
        /**
         * Consecutive rejections a client tolerates before giving up
         * (counted as one timeout). Bounds Run() when the pool never
         * recovers — without it a permanently drained pool would retry
         * forever and the simulation would never drain.
         */
        int max_retries = 1'000;
    };

    PoolClosedLoopInjector(ServicePool* pool, Config config);

    /** Run to completion; returns the measurements. */
    LoadResult Run();

  private:
    ServicePool* pool_;
    Config config_;
    rank::DocumentGenerator generator_;
};

/**
 * Federation-level closed loop: `concurrency` logical clients, each
 * keeping one query outstanding against the FederatedDispatcher, which
 * shards every send across its pods by policy. The same offered load
 * measures 1-pod vs N-pod capacity (bench_federation).
 */
class FederatedClosedLoopInjector {
  public:
    struct Config {
        /** Outstanding queries across the whole federation. */
        int concurrency = 32;
        /** Driver threads registered per host; clients map modulo. */
        int driver_threads = 32;
        /** Total queries to complete. */
        int documents = 2'000;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        /** Force every query to one model (no reload churn). */
        bool single_model = true;
        /** Retry delay when the federation rejects outright. */
        Time retry_delay = Microseconds(100);
        /** Consecutive rejections a client tolerates before giving up. */
        int max_retries = 1'000;
    };

    FederatedClosedLoopInjector(FederatedDispatcher* dispatcher,
                                sim::Simulator* simulator, Config config);

    /** Run to completion; returns the measurements. */
    LoadResult Run();

  private:
    FederatedDispatcher* dispatcher_;
    sim::Simulator* simulator_;
    Config config_;
    rank::DocumentGenerator generator_;
};

/**
 * Federation-level open loop: a fixed arrival rate against the
 * FederatedDispatcher — arrivals are independent of completions, the
 * production traffic shape. There is no client-side queue or retry:
 * the dispatcher's per-pod admission cap answers every arrival
 * immediately, and a refused arrival is *rejected*, not parked — the
 * first step of the admission-control story (bounded queues, fast
 * feedback to the traffic source) rather than unbounded host-side
 * buffering.
 */
class FederatedOpenLoopInjector {
  public:
    struct Config {
        /** Mean arrivals per second across the whole federation. */
        double rate_qps = 20'000.0;
        Time duration = Milliseconds(100);
        /** Exponential interarrivals (Poisson) or a fixed beat. */
        bool poisson = true;
        /** Driver threads registered per host; arrivals rotate over them. */
        int driver_threads = 32;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        bool single_model = true;
    };

    FederatedOpenLoopInjector(FederatedDispatcher* dispatcher,
                              sim::Simulator* simulator, Rng rng,
                              Config config);

    LoadResult Run();

  private:
    /** Draw the next gap and schedule that arrival; it chains the next. */
    void ScheduleArrival();
    void InjectArrival();

    FederatedDispatcher* dispatcher_;
    sim::Simulator* simulator_;
    Rng rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    LoadResult result_;
    int arrival_seq_ = 0;
    Time deadline_ = 0;
};

/**
 * Degradation-ramp / incident load: a *paced* open loop (fixed
 * interarrival beat, so offered load is identical run to run) against
 * the FederatedDispatcher, with completions attributed to caller-named
 * phases. This is the measurement harness for staged-failure
 * scenarios: phase boundaries at fault injection, shed, re-admission
 * and settle points let a bench compare steady-state QPS across an
 * incident numerically — predictive shed vs reactive-only, pre-fault
 * vs post-readmission — instead of eyeballing a time series.
 */
class FederatedPhasedInjector {
  public:
    struct Config {
        /** Arrivals per second (fixed beat — no Poisson jitter). */
        double rate_qps = 25'000.0;
        Time duration = Milliseconds(100);
        /**
         * Ascending offsets from load start; k boundaries make k+1
         * phases. Arrivals/accepts/rejects are attributed to the phase
         * of the arrival, completions/failures to the phase of the
         * completion (late completions land in the final phase).
         */
        std::vector<Time> phase_offsets;
        /** Driver threads registered per host; arrivals rotate. */
        int driver_threads = 32;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        bool single_model = true;
        /**
         * Latency SLO for goodput accounting (0 = off): a completion
         * slower than this still counts in `completed` but not in
         * `completed_in_slo`. This is §5's "throughput at a latency
         * target" lens — in a lossless retrying federation a query
         * caught on a dying pod is rarely *lost*, it is *late*, and
         * goodput is where that damage shows up numerically.
         */
        Time slo = 0;
    };

    struct Phase {
        Time start = 0;  ///< Offset from load start.
        Time span = 0;
        std::uint64_t arrivals = 0;
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t completed_in_slo = 0;
        std::uint64_t failed = 0;
        SampleStat latency_us;

        /** Completions per second of wall-phase time. */
        double Qps() const {
            const double s = ToSeconds(span);
            return s > 0 ? static_cast<double>(completed) / s : 0.0;
        }
        /** Completions inside the SLO per second of wall-phase time. */
        double SloQps() const {
            const double s = ToSeconds(span);
            return s > 0 ? static_cast<double>(completed_in_slo) / s : 0.0;
        }
    };

    struct Result {
        std::vector<Phase> phases;
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
    };

    FederatedPhasedInjector(FederatedDispatcher* dispatcher,
                            sim::Simulator* simulator, Config config);

    /**
     * Schedule every beat up front, then run to completion (arrivals +
     * drain); returns per-phase stats.
     */
    Result Run();

  private:
    int PhaseOf(Time now) const;
    void InjectArrival();

    FederatedDispatcher* dispatcher_;
    sim::Simulator* simulator_;
    Config config_;
    rank::DocumentGenerator generator_;
    Result result_;
    Time load_start_ = 0;
    int arrival_seq_ = 0;
};

/**
 * Open-loop injector: Poisson arrivals per injecting server. Arrivals
 * beyond the available slots queue host-side (the production software
 * stack in front of the driver).
 */
class OpenLoopInjector {
  public:
    struct Config {
        std::vector<int> injecting_ring_indices = {0, 1, 2, 3, 4, 5, 6, 7};
        /** Mean arrivals per second per injecting server. */
        double rate_per_server = 5'000.0;
        Time duration = Milliseconds(200);
        int threads_per_node = 32;
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        bool single_model = true;
        /**
         * Model the software portion that stays on the host CPU (§4:
         * SSD lookup, hit-vector computation, software features).
         */
        bool host_preprocessing = true;
        rank::CpuPool::Config cpu;
        rank::SoftwareCostModel cost;
    };

    OpenLoopInjector(RankingService* service, Rng rng, Config config);

    LoadResult Run();

  private:
    struct PendingDoc {
        rank::CompressedRequest request;
        Time arrived = 0;
    };

    struct NodeState {
        std::deque<PendingDoc> backlog;
        std::vector<bool> slot_busy;
        std::unique_ptr<rank::CpuPool> cpu;
    };

    void ScheduleArrival(int ring_index);
    void TryDispatch(int ring_index);
    void InjectPrepared(int node_index, PendingDoc doc, int thread);

    RankingService* service_;
    Rng rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    std::vector<NodeState> nodes_;
    LoadResult result_;
    Time deadline_ = 0;
};

/**
 * The software-only fleet driven at the same injection rates: one
 * SoftwareRankServer per injecting node (Figures 14-15 baseline).
 */
class SoftwareLoadRunner {
  public:
    struct Config {
        int servers = 8;
        double rate_per_server = 5'000.0;
        Time duration = Milliseconds(200);
        std::uint64_t corpus_seed = 42;
        rank::DocumentGenerator::Config corpus;
        rank::SoftwareRankServer::Config server;
    };

    SoftwareLoadRunner(sim::Simulator* simulator, const rank::Model* model,
                       Rng rng, Config config);

    LoadResult Run();

  private:
    void ScheduleArrival(int server);

    sim::Simulator* simulator_;
    const rank::Model* model_;
    Rng rng_;
    Config config_;
    rank::DocumentGenerator generator_;
    std::vector<std::unique_ptr<rank::SoftwareRankServer>> servers_;
    LoadResult result_;
    Time deadline_ = 0;
};

}  // namespace catapult::service
