// `scoring`: bit-exact functional scoring (§4, "same scores as
// software").
//
// One pod with two rings and compute_scores on, so every stage role
// runs the rank layer's kernels: feature extraction, the FFE
// interpreter, compression and tree scoring. A closed loop keeps 64
// documents outstanding, spread over 8 models, which exercises Queue
// Manager batching and model reloads; the 8 models push the working set
// past the CPU caches and put real model generation plus FFE compile
// into set-up.

#include <memory>
#include <vector>

#include "bench.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "service/testbed.h"

namespace perfbench {

namespace {

using namespace catapult;

constexpr int kRings = 2;
constexpr int kModels = 8;
constexpr int kClients = 64;
constexpr std::uint64_t kDocuments = 1'200;
/** Every k-th document's score is checked against the reference. */
constexpr std::uint64_t kCheckEvery = 16;
/** Goodput limit on document latency, near the closed loop's knee. */
constexpr double kLatencyLimitUs = 1'500.0;

rank::DocumentGenerator::Config Corpus() {
    rank::DocumentGenerator::Config corpus;
    corpus.model_count = kModels;
    return corpus;
}

/** 64 clients, each with one document outstanding on the pool. */
class ClosedLoop {
  public:
    ClosedLoop(service::ServicePool& pool, std::uint64_t corpus_seed,
               RunRecord& record)
        : pool_(pool), generator_(corpus_seed, Corpus()), record_(record) {}

    void Start() {
        // Clients own distinct driver threads, so no two ever contend
        // for one DMA slot; starts are staggered by a microsecond.
        for (int c = 0; c < kClients; ++c) {
            pool_.simulator()->ScheduleAfter(Microseconds(c),
                                             [this, c] { Send(c); });
        }
    }

    struct Scored {
        rank::CompressedRequest request;
        float score = 0;
        bool delivered = false;
    };

    std::uint64_t sent() const { return sent_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t timed_out() const { return timed_out_; }
    std::uint64_t refused() const { return refused_; }
    Time last_completion() const { return last_completion_; }
    const std::vector<Scored>& checked() const { return checked_; }

  private:
    void Send(int client) {
        if (sent_ >= kDocuments) return;
        const std::uint64_t seq = sent_++;
        const rank::CompressedRequest request = generator_.Next();
        const std::size_t slot = checked_.size();
        const bool check = seq % kCheckEvery == 0;
        if (check) checked_.push_back({request, 0.0f, false});
        const auto status = pool_.Inject(
            client, request,
            [this, client, seq, check, slot](const service::ScoreResult& r) {
                record_.digest.Add(seq);
                record_.digest.Add(static_cast<std::uint64_t>(r.latency));
                record_.digest.Add(r.ok ? 1 : 0);
                record_.digest.AddFloat(r.score);
                last_completion_ = pool_.simulator()->Now();
                if (r.ok) {
                    ++completed_;
                    const double us = ToMicroseconds(r.latency);
                    record_.latency_us.push_back(us);
                    if (us <= kLatencyLimitUs) ++record_.good;
                    if (check) {
                        checked_[slot].score = r.score;
                        checked_[slot].delivered = true;
                    }
                } else {
                    ++timed_out_;
                }
                Send(client);
            });
        if (status != host::SendStatus::kOk) {
            ++refused_;
            pool_.simulator()->ScheduleAfter(Microseconds(100),
                                             [this, client] { Send(client); });
        }
    }

    service::ServicePool& pool_;
    rank::DocumentGenerator generator_;
    RunRecord& record_;
    std::uint64_t sent_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t timed_out_ = 0;
    std::uint64_t refused_ = 0;
    Time last_completion_ = 0;
    std::vector<Scored> checked_;
};

}  // namespace

void RunScoring(const Options& options, LeafSampler* sampler,
                RunRecord& record) {
    const Seeds seeds(options.seed);
    service::PodTestbed::Config config;
    config.ring_count = kRings;
    config.driver_threads = kClients;
    config.seed = seeds.fabric;
    config.fabric.device.configure_time = Milliseconds(5);
    config.service.compute_scores = true;
    config.service.model_seed = seeds.models;
    record.latency_limit_us = kLatencyLimitUs;

    rank::ModelStore models(config.service.models);
    {
        Span span(record.model_gen_s);
        for (int m = 0; m < kModels; ++m) {
            models.GetOrGenerate(static_cast<std::uint32_t>(m), seeds.models);
        }
    }
    std::unique_ptr<service::PodTestbed> bed;
    {
        Span span(record.build_s);
        bed = std::make_unique<service::PodTestbed>(config);
    }
    bool deployed = false;
    {
        Span span(record.deploy_s);
        deployed = bed->DeployAndSettle();
    }
    record.Check(deployed, "scoring.deploy");
    ClosedLoop loop(bed->pool(), seeds.corpus, record);
    const Time load_start = bed->simulator().Now();
    loop.Start();
    record.setup_s = HostNow() - ProcessStart();

    {
        SimulatePhase phase(record, sampler);
        bed->simulator().Run();
    }
    // A closed loop has no offered rate: goodput is per simulated second
    // from the first send to the last completion.
    record.load_seconds = ToSeconds(loop.last_completion() - load_start);

    {
        Span span(record.check_s);
        record.attempted = loop.sent();
        record.failed = loop.timed_out() + loop.refused();
        record.Check(loop.sent() == kDocuments &&
                         loop.completed() + loop.timed_out() == loop.sent(),
                     "scoring.documents_accounted");
        std::vector<std::unique_ptr<rank::RankingFunction>> reference;
        for (int m = 0; m < kModels; ++m) {
            reference.push_back(std::make_unique<rank::RankingFunction>(
                &models.GetOrGenerate(static_cast<std::uint32_t>(m),
                                      seeds.models)));
        }
        bool bit_exact = !loop.checked().empty();
        for (const auto& scored : loop.checked()) {
            const float expected =
                reference[scored.request.query.model_id % kModels]
                    ->ReferenceScore(scored.request);
            bit_exact = bit_exact && scored.delivered &&
                        std::memcmp(&expected, &scored.score,
                                    sizeof expected) == 0;
        }
        record.Check(bit_exact, "scoring.scores_match_reference");
        record.docs_scored = loop.completed();
        AddPodCounters(bed->pod(), record);
    }
    if (options.trace) {
        ReplayRank(Corpus(), seeds.corpus, seeds.models, kModels, record);
    }
}

}  // namespace perfbench
