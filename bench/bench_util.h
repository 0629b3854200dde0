// Shared helpers for the bench harnesses: aligned table printing and
// common testbed configurations.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§5) and prints the same rows/series the paper reports.

#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "rank/model.h"
#include "service/load_generator.h"
#include "service/testbed.h"
#include "sim/simulator.h"

namespace catapult::bench {

/** Wall-clock stopwatch for host-time (not simulated-time) metrics. */
class WallTimer {
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}
    double Ms() const {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Prints the process-wide simulator event count at exit in a
 * machine-readable form. bench/run_all scrapes the line and records
 * events_fired / events_per_sec per bench, the simulator-core speed
 * metric the wall-clock totals alone can't isolate. One instance per
 * bench binary via this header; no per-bench wiring needed.
 */
struct EventsFiredReporter {
    ~EventsFiredReporter() {
        std::printf("[events_fired] %llu\n",
                    static_cast<unsigned long long>(sim::GlobalEventsFired()));
        std::fflush(stdout);
    }
};
inline EventsFiredReporter g_events_fired_reporter;

/** Print a header banner naming the experiment. */
inline void Banner(const std::string& title, const std::string& paper_ref) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================================\n");
}

/** Print one row of pipe-separated cells. */
inline void Row(const std::vector<std::string>& cells) {
    for (const auto& cell : cells) std::printf("%14s", cell.c_str());
    std::printf("\n");
}

inline std::string Fmt(double v, int decimals = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

inline std::string FmtInt(long long v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%lld", v);
    return buf;
}

/**
 * Standard pod testbed configuration for the ring experiments: the
 * production-sized default model with fast deploy (configuration time
 * is not under test in the throughput/latency figures).
 */
inline service::PodTestbed::Config RingBenchConfig() {
    service::PodTestbed::Config config;
    config.fabric.device.configure_time = Milliseconds(5);
    return config;
}

/**
 * Figs. 14-15 FPGA fleet: Poisson arrivals at `rate` per server for
 * `window` on the eight host fronts of a fresh 8-FPGA ring.
 */
inline service::LoadResult RunFpgaFleet(double rate, Time window,
                                        std::uint64_t seed) {
    service::PodTestbed bed(RingBenchConfig());
    if (!bed.DeployAndSettle()) return {};
    Rng rng(seed);
    std::vector<service::LoadTarget> fronts;
    for (int i = 0; i < service::RankingService::kRingLength; ++i) {
        fronts.push_back(service::HostFront(&bed.service(), i, rng));
    }
    return service::RunOpenLoop(fronts, {.rate = rate, .duration = window},
                                &rng);
}

/** Figs. 14-15 software fleet: the same load on one software server
 *  per ring server. */
inline service::LoadResult RunSoftwareFleet(double rate, Time window,
                                            const rank::Model* model,
                                            std::uint64_t seed) {
    sim::Simulator sim;
    Rng rng(seed);
    std::vector<service::LoadTarget> servers;
    for (int s = 0; s < service::RankingService::kRingLength; ++s) {
        servers.push_back(service::SoftwareServer(&sim, model, rng));
    }
    return service::RunOpenLoop(servers, {.rate = rate, .duration = window},
                                &rng);
}

}  // namespace catapult::bench
