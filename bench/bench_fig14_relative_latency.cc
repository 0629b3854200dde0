// Figure 14: relative latency (FPGA / software) vs document injection
// rate — average, 95th, 99th and 99.9th percentiles.
//
// "For a range of representative injection rates per server used in
// production, Figure 14 illustrates how the FPGA-accelerated ranker
// substantially reduces the end-to-end scoring latency relative to
// software. For example, given a target injection rate of 1.0 per
// server, the FPGA reduces the worst-case latency by 29% in the 95th
// percentile distribution. The improvement ... increases further at
// higher injection rates, because the variability of software latency
// increases at higher loads."

#include <cstdio>

#include "bench_util.h"

using namespace catapult;

namespace {

/** Arrivals/s per server at normalized rate 1.0 (production target). */
constexpr double kRateUnit = 3'400.0;
constexpr Time kWindow = Milliseconds(400);

}  // namespace

int main() {
    bench::Banner("Figure 14: relative latency FPGA/software vs injection rate",
                  "Putnam et al., ISCA 2014, Fig. 14 / §5 production");

    const auto model = rank::Model::Generate(0, 0xCA7A9017ull);

    std::printf("\nLatency ratios (FPGA / software), by injection rate:\n");
    bench::Row({"rate", "avg", "p95", "p99", "p99.9"});
    double ratio_p95_at_one = 0.0;
    for (const double rate : {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}) {
        const auto fpga = bench::RunFpgaFleet(rate * kRateUnit, kWindow,
                                              0xF16'14);
        const auto sw = bench::RunSoftwareFleet(rate * kRateUnit, kWindow,
                                                model.get(), 0x50F7'14);
        const double avg = fpga.latency_us.mean() / sw.latency_us.mean();
        const double p95 = fpga.latency_us.P95() / sw.latency_us.P95();
        const double p99 = fpga.latency_us.P99() / sw.latency_us.P99();
        const double p999 = fpga.latency_us.P999() / sw.latency_us.P999();
        if (rate == 1.0) ratio_p95_at_one = p95;
        bench::Row({bench::Fmt(rate), bench::Fmt(avg), bench::Fmt(p95),
                    bench::Fmt(p99), bench::Fmt(p999)});
    }
    std::printf(
        "\nHeadline: at rate 1.0 the FPGA's p95 latency is %.0f%% of "
        "software's (paper: 71%%, i.e. a 29%% reduction).\n",
        ratio_p95_at_one * 100.0);
    std::printf(
        "Shape check [paper: ratios < 1 everywhere and falling with rate]\n");
    return 0;
}
