// Shared pieces of the benchmark driver: the per-run record every
// workload fills, seed derivation, host clocks and the output digest.
//
// One driver process runs one workload once, single-threaded: set-up,
// then the simulate phase, then output checks (outside every timed
// phase). perfbench/run.py repeats processes for the run length and
// reports medians.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "rank/document_generator.h"
#include "sampler.h"

namespace catapult::mgmt {
class PodContext;
}

namespace perfbench {

/** Host seconds on the monotonic clock. */
inline double HostNow() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seeds for one workload run, all derived from the --seed argument. */
struct Seeds {
    explicit Seeds(std::uint64_t seed)
        : corpus(Mix(seed, 1)),
          arrivals(Mix(seed, 2)),
          models(Mix(seed, 3)),
          fabric(Mix(seed, 4)) {}

    std::uint64_t corpus;
    std::uint64_t arrivals;
    std::uint64_t models;
    std::uint64_t fabric;

  private:
    /** splitmix64 of (seed, stream): decorrelated per-purpose streams. */
    static std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
        std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
};

/** FNV-1a over a run's simulated outputs: the behaviour fingerprint. */
class Digest {
  public:
    void Add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xFF;
            hash_ *= 1099511628211ull;
        }
    }
    void AddFloat(float f) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &f, sizeof bits);
        Add(bits);
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /** Arm the leaf-PC sampler and the driver's call spans. */
    bool trace = false;
};

/** Everything one run measures; the driver prints it as JSON. */
struct RunRecord {
    // Set-up spans (host seconds), timed around the driver's calls.
    double model_gen_s = 0;
    double build_s = 0;
    double deploy_s = 0;
    /** Process start to the first simulated arrival. */
    double setup_s = 0;
    /** Inside the run calls until quiesce, summed over testbeds. */
    double simulate_s = 0;
    /** Host seconds spent in the benchmark's own output checks. */
    double check_s = 0;

    /** Simulated latency (us) of the workload's accelerated requests. */
    std::vector<double> latency_us;
    /** Fixed latency limit for goodput (us, simulated). */
    double latency_limit_us = 0;
    /** Accelerated requests completed in full within the limit. */
    std::uint64_t good = 0;
    /** Simulated seconds the load was offered for. */
    double load_seconds = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Documents the FPGA rings scored (the base of reloads per doc). */
    std::uint64_t docs_scored = 0;
    /** Simulator events fired inside the simulate phase. */
    std::uint64_t events = 0;
    Digest digest;
    /** Names of failed output checks (empty = correct). */
    std::vector<std::string> check_failures;

    /** Exact counts and driver-side timings for the per-layer metrics. */
    std::map<std::string, double> layer;

    void Check(bool ok, const std::string& name) {
        if (!ok) check_failures.push_back(name);
    }
};

/**
 * Brackets one run call: arms the sampler (traced runs only), times the
 * call into RunRecord::simulate_s and counts the events it fired.
 */
class SimulatePhase {
  public:
    SimulatePhase(RunRecord& record, LeafSampler* sampler);
    ~SimulatePhase();

    SimulatePhase(const SimulatePhase&) = delete;
    SimulatePhase& operator=(const SimulatePhase&) = delete;

  private:
    RunRecord& record_;
    LeafSampler* sampler_;
    std::uint64_t events_at_start_;
    double started_;
};

/** Adds the elapsed host seconds of a scope to a double. */
class Span {
  public:
    explicit Span(double& into) : into_(into), started_(HostNow()) {}
    ~Span() { into_ += HostNow() - started_; }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    double& into_;
    double started_;
};

/** Process start (main entry) on HostNow()'s clock. */
double ProcessStart();

/** Adds one pod's shell, host, mgmt and ring counters into record.layer. */
void AddPodCounters(catapult::mgmt::PodContext& pod, RunRecord& record);

/**
 * Rank-layer replay (traced runs): times the rank layer's public calls
 * on the first documents of the workload's corpus (scored by model
 * `model_id % models`) and stores rank.*_us_per_doc.
 */
void ReplayRank(const catapult::rank::DocumentGenerator::Config& corpus,
                std::uint64_t corpus_seed, std::uint64_t model_seed,
                int models, RunRecord& record);

// Workloads. Each fills `record`; `sampler` is null for untraced runs.
void RunFrontier(const Options& options, LeafSampler* sampler,
                 RunRecord& record);
void RunBlackout(const Options& options, LeafSampler* sampler,
                 RunRecord& record);
void RunScoring(const Options& options, LeafSampler* sampler,
                RunRecord& record);

}  // namespace perfbench
