// Benchmark driver: runs one workload once and prints one JSON object.
//
//   perfbench_driver --workload frontier|blackout|scoring --seed N [--trace]
//
// Untraced runs give the end-to-end metrics. --trace additionally arms
// the leaf-PC sampler inside the simulate phase, times the driver's
// SessionFrontEnd::Submit calls and replays the rank layer's public
// calls on a fixed document sample; perfbench/run.py turns those into
// the per-layer metrics. Everything runs on the calling thread.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "common/log.h"
#include "common/stats.h"
#include "mgmt/pod_context.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

double g_process_start = 0;

/** Sampling interval: a few thousand samples per traced run. */
constexpr int kSamplePeriodUs = 250;
constexpr std::size_t kSampleCapacity = 1 << 20;

/** Documents in the rank replay sample, and passes over it. */
constexpr int kReplayDocs = 48;
constexpr int kReplayPasses = 3;

void PrintString(const std::string& s) {
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            std::putchar('\\');
            std::putchar(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            std::printf("\\u%04x", c);
        } else {
            std::putchar(c);
        }
    }
    std::putchar('"');
}

void PrintNumber(const char* key, double value, bool comma = true) {
    std::printf("\"%s\": %.17g%s", key, value, comma ? ", " : "");
}

double PeakRssMiB() {
    rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double ProcessStart() { return g_process_start; }

SimulatePhase::SimulatePhase(RunRecord& record, LeafSampler* sampler)
    : record_(record),
      sampler_(sampler),
      events_at_start_(catapult::sim::GlobalEventsFired()),
      started_(HostNow()) {
    if (sampler_ != nullptr) sampler_->Arm();
}

SimulatePhase::~SimulatePhase() {
    if (sampler_ != nullptr) sampler_->Disarm();
    record_.simulate_s += HostNow() - started_;
    record_.events += catapult::sim::GlobalEventsFired() - events_at_start_;
}

void AddPodCounters(catapult::mgmt::PodContext& pod, RunRecord& record) {
    using catapult::shell::Port;
    auto& layer = record.layer;
    auto& fabric = pod.fabric();
    for (int i = 0; i < fabric.node_count(); ++i) {
        auto& shell = fabric.shell(i);
        for (const Port port :
             {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
            layer["shell.sl3_flits"] +=
                static_cast<double>(shell.link(port).counters().flits_sent);
        }
        layer["shell.router_stalls"] +=
            static_cast<double>(shell.router().counters().backpressure_stalls);
        layer["shell.dma_output_stalls"] +=
            static_cast<double>(shell.dma().counters().output_stalls);
    }
    for (auto* host : pod.hosts()) {
        layer["host.slot_timeouts"] +=
            static_cast<double>(host->driver().counters().timeouts);
        layer["host.late_responses"] +=
            static_cast<double>(host->driver().counters().late_responses);
    }
    const auto& health = pod.health_monitor().counters();
    layer["mgmt.heartbeats"] += static_cast<double>(health.heartbeats_sent);
    layer["mgmt.investigations"] += static_cast<double>(health.investigations);
    layer["service.model_reloads"] +=
        static_cast<double>(pod.pool().AggregateRingCounters().model_reloads);
}

void ReplayRank(const catapult::rank::DocumentGenerator::Config& corpus,
                std::uint64_t corpus_seed, std::uint64_t model_seed,
                int models, RunRecord& record) {
    using namespace catapult;
    rank::ModelStore store;
    rank::DocumentGenerator generator(corpus_seed, corpus);
    const std::vector<rank::CompressedRequest> docs =
        generator.Corpus(kReplayDocs);
    std::vector<std::unique_ptr<rank::RankingFunction>> functions;
    for (int m = 0; m < models; ++m) {
        functions.push_back(std::make_unique<rank::RankingFunction>(
            &store.GetOrGenerate(static_cast<std::uint32_t>(m), model_seed)));
    }
    const rank::SoftwareCostModel cost;
    rank::FeatureStore features;
    rank::FeatureStore compressed;
    // Per call: the median over passes of the per-document mean. The
    // calls and their order are the ones the ring's stage roles make.
    constexpr int kCalls = 5;
    std::vector<double> passes[kCalls];
    double sink = 0;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        double spent[kCalls] = {};
        for (const auto& doc : docs) {
            rank::RankingFunction& fn =
                *functions[doc.query.model_id %
                           static_cast<std::uint32_t>(models)];
            double t = HostNow();
            const auto lap = [&t, &spent](int call) {
                const double now = HostNow();
                spent[call] += now - t;
                t = now;
            };
            fn.ExtractFeatures(doc, features);
            lap(0);
            fn.RunFfe0(features);
            fn.RunFfe1(features);
            lap(1);
            compressed.Clear();
            fn.Compress(features, compressed);
            lap(2);
            for (int s = 0; s < rank::ScoringEnsemble::kShardCount; ++s) {
                sink += fn.model().ensemble().shard(s).PartialScore(compressed);
            }
            lap(3);
            sink += static_cast<double>(cost.FullServiceTime(doc, fn.model()));
            lap(4);
        }
        for (int call = 0; call < kCalls; ++call) {
            passes[call].push_back(spent[call] * 1e6 /
                                   static_cast<double>(docs.size()));
        }
    }
    const char* names[kCalls] = {
        "rank.fe_us_per_doc", "rank.ffe_us_per_doc", "rank.compress_us_per_doc",
        "rank.score_us_per_doc", "rank.cost_model_us_per_doc"};
    for (int call = 0; call < kCalls; ++call) {
        SampleStat stat;
        for (const double v : passes[call]) stat.Add(v);
        record.layer[names[call]] = stat.Median();
    }
    // Keeps the timed calls' results live.
    if (sink == 0.123456789) std::fputc(' ', stderr);
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    g_process_start = HostNow();
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--trace") {
            options.trace = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s --workload frontier|blackout|scoring "
                         "--seed N [--trace]\n",
                         argv[0]);
            return 2;
        }
    }
    catapult::Logger::set_level(catapult::LogLevel::kOff);

    std::unique_ptr<LeafSampler> sampler;
    if (options.trace) {
        sampler = std::make_unique<LeafSampler>(kSamplePeriodUs,
                                                kSampleCapacity);
    }
    RunRecord record;
    if (options.workload == "frontier") {
        RunFrontier(options, sampler.get(), record);
    } else if (options.workload == "blackout") {
        RunBlackout(options, sampler.get(), record);
    } else if (options.workload == "scoring") {
        RunScoring(options, sampler.get(), record);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    const double wall_s = HostNow() - g_process_start - record.check_s;
    record.layer["service.reloads_per_doc"] =
        record.docs_scored > 0 ? record.layer["service.model_reloads"] /
                                     static_cast<double>(record.docs_scored)
                               : 0.0;

    catapult::SampleStat latency;
    latency.Reserve(record.latency_us.size());
    for (const double v : record.latency_us) latency.Add(v);

    std::printf("{\"workload\": ");
    PrintString(options.workload);
    std::printf(", \"seed\": %llu, \"traced\": %s, ",
                static_cast<unsigned long long>(options.seed),
                options.trace ? "true" : "false");
    std::printf("\"correct\": %s, \"checks_failed\": [",
                record.check_failures.empty() ? "true" : "false");
    for (std::size_t i = 0; i < record.check_failures.size(); ++i) {
        if (i > 0) std::printf(", ");
        PrintString(record.check_failures[i]);
    }
    std::printf("], \"attempted\": %llu, \"failed\": %llu, \"events\": %llu, ",
                static_cast<unsigned long long>(record.attempted),
                static_cast<unsigned long long>(record.failed),
                static_cast<unsigned long long>(record.events));
    std::printf("\"digest\": \"%016llx\", ",
                static_cast<unsigned long long>(record.digest.value()));
    PrintNumber("setup_s", record.setup_s);
    PrintNumber("simulate_s", record.simulate_s);
    PrintNumber("wall_s", wall_s);
    PrintNumber("check_s", record.check_s);
    PrintNumber("peak_rss_mb", PeakRssMiB());
    PrintNumber("sim_latency_p50_us", latency.Median());
    PrintNumber("sim_latency_p99_us", latency.P99());
    PrintNumber("sim_goodput_per_s",
                record.load_seconds > 0
                    ? static_cast<double>(record.good) / record.load_seconds
                    : 0.0);
    PrintNumber("latency_limit_us", record.latency_limit_us);
    PrintNumber("latency_samples", static_cast<double>(latency.count()));
    PrintNumber("model_gen_s", record.model_gen_s);
    PrintNumber("build_s", record.build_s);
    PrintNumber("deploy_s", record.deploy_s);
    std::printf("\"layer\": {");
    bool first = true;
    for (const auto& [name, value] : record.layer) {
        if (!first) std::printf(", ");
        first = false;
        PrintNumber(name.c_str(), value, false);
    }
    std::printf("}");
    if (sampler) {
        std::printf(", \"samples\": %zu, \"sample_layers\": {",
                    sampler->samples());
        first = true;
        for (const auto& [name, count] : sampler->Attribute()) {
            if (!first) std::printf(", ");
            first = false;
            PrintNumber(name.c_str(), static_cast<double>(count), false);
        }
        std::printf("}, \"top_symbols\": [");
        first = true;
        for (const std::string& line : sampler->TopSymbols(25)) {
            if (!first) std::printf(", ");
            first = false;
            PrintString(line);
        }
        std::printf("]");
    }
    std::printf("}\n");
    return 0;
}
