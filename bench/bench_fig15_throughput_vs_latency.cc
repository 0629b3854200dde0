// Figure 15: 95th-percentile-latency-bounded throughput, FPGA vs
// software — the paper's headline result.
//
// "Figure 15 shows the measured improvement in scoring throughput while
// bounding the latency at the 95th percentile distribution. For the
// points labeled on the x-axis at 1.0 (which represent the maximum
// latency tolerated by Bing at the 95th percentile), the FPGA achieves
// a 95% gain in scoring throughput relative to software."

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace catapult;

namespace {

constexpr Time kWindow = Milliseconds(400);

struct Point {
    double rate_per_server;
    double throughput_per_server;
    double p95_us;
};

/** A fleet's per-server throughput and p95 latency at `rate`. */
Point ToPoint(double rate, const service::LoadResult& result) {
    return {rate, result.ThroughputPerSecond() / 8.0, result.latency_us.P95()};
}

/** Max throughput with p95 <= bound via linear scan of the frontier. */
double BoundedThroughput(const std::vector<Point>& frontier, double bound_us) {
    double best = 0.0;
    for (const auto& point : frontier) {
        if (point.p95_us <= bound_us) best = std::max(best, point.throughput_per_server);
    }
    return best;
}

}  // namespace

int main() {
    bench::Banner("Figure 15: p95-latency-bounded throughput (FPGA vs software)",
                  "Putnam et al., ISCA 2014, Fig. 15 / §5 production");

    const auto model = rank::Model::Generate(0, 0xCA7A9017ull);

    std::vector<Point> fpga, software;
    for (const double rate :
         {1'000.0, 2'000.0, 3'000.0, 4'000.0, 5'000.0, 5'500.0, 6'000.0,
          6'500.0, 7'000.0, 8'000.0, 9'000.0, 10'000.0, 11'000.0, 12'000.0,
          13'000.0}) {
        fpga.push_back(
            ToPoint(rate, bench::RunFpgaFleet(rate, kWindow, 0xF16'15)));
        software.push_back(ToPoint(
            rate,
            bench::RunSoftwareFleet(rate, kWindow, model.get(), 0x50F7'15)));
    }

    std::printf("\nThroughput/latency frontier per server:\n");
    bench::Row({"rate/s", "sw_tput/s", "sw_p95_us", "fpga_tput/s",
                "fpga_p95_us"});
    for (std::size_t i = 0; i < fpga.size(); ++i) {
        bench::Row({bench::Fmt(software[i].rate_per_server, 0),
                    bench::Fmt(software[i].throughput_per_server, 0),
                    bench::Fmt(software[i].p95_us, 0),
                    bench::Fmt(fpga[i].throughput_per_server, 0),
                    bench::Fmt(fpga[i].p95_us, 0)});
    }

    // Bing's p95 latency target: the knee of the software curve — the
    // p95 at the first operating point reaching 90% of software's
    // sustainable capacity ("the maximum latency tolerated", §5).
    double sw_capacity = 0.0;
    for (const auto& p : software) {
        sw_capacity = std::max(sw_capacity, p.throughput_per_server);
    }
    double target_us = 0.0;
    for (const auto& p : software) {
        if (p.throughput_per_server >= 0.90 * sw_capacity) {
            target_us = p.p95_us;
            break;
        }
    }

    const double sw_bounded = BoundedThroughput(software, target_us);
    const double fpga_bounded = BoundedThroughput(fpga, target_us);
    std::printf("\np95 latency target (x-axis 1.0): %.0f us\n", target_us);
    std::printf("software throughput at target    : %.0f docs/s/server\n",
                sw_bounded);
    std::printf("FPGA throughput at target        : %.0f docs/s/server\n",
                fpga_bounded);
    std::printf(
        "\nHeadline: FPGA ranks %.0f%% more documents/s at the same p95 "
        "latency target [paper: 95%% gain].\n",
        (fpga_bounded / sw_bounded - 1.0) * 100.0);
    return 0;
}
