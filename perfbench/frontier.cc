// `frontier`: the paper's headline experiment (Fig. 14/15).
//
// One pod with one 8-FPGA ring, under an open loop of Poisson arrivals
// from its 8 injecting servers; each document first runs the host's
// pre-processing on that server's CpuPool, then waits for a free driver
// thread (one outstanding document per thread). Four fixed per-server
// rates go from below the latency knee to saturation, 400 ms of
// simulated time each. The 8-server software fleet ranks the same
// arrivals on its own simulator. Every request is timed from its
// arrival, so backlog wait counts and the generator is never late.

#include <deque>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "service/testbed.h"

namespace perfbench {

namespace {

using namespace catapult;

constexpr int kServers = 8;
constexpr int kThreadsPerServer = 32;
constexpr double kRatesPerServer[] = {3'000.0, 6'000.0, 9'000.0, 12'000.0};
constexpr Time kWindow = Milliseconds(400);
/** Goodput limit on FPGA document latency, near its knee (simulated). */
constexpr double kLatencyLimitUs = 1'000.0;

struct Tally {
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t refused = 0;
};

/** Poisson arrivals on the ring's eight injecting servers. */
class FpgaFleet {
  public:
    FpgaFleet(service::RankingService& ring, std::uint64_t corpus_seed,
              Rng rng, RunRecord& record)
        : ring_(ring), generator_(corpus_seed), record_(record) {
        for (int i = 0; i < kServers; ++i) {
            Server& server = servers_.emplace_back();
            server.busy.assign(kThreadsPerServer, false);
            server.cpu =
                std::make_unique<rank::CpuPool>(ring_.simulator(), rng.Fork());
            server.arrivals = rng.Fork();
            ring_.host(i)->driver().AssignThreads(kThreadsPerServer);
        }
    }

    void Start(double rate, Time deadline) {
        rate_ = rate;
        deadline_ = deadline;
        for (int i = 0; i < kServers; ++i) ScheduleArrival(i);
    }

    bool Idle() const {
        for (const Server& server : servers_) {
            if (!server.backlog.empty()) return false;
            for (const bool busy : server.busy) {
                if (busy) return false;
            }
        }
        return true;
    }

    const Tally& tally() const { return tally_; }

  private:
    struct Pending {
        rank::CompressedRequest request;
        Time arrived = 0;
    };

    struct Server {
        std::deque<Pending> backlog;
        std::vector<bool> busy;
        std::unique_ptr<rank::CpuPool> cpu;
        Rng arrivals;
    };

    sim::Simulator& sim() { return *ring_.simulator(); }

    void ScheduleArrival(int i) {
        Server& server = servers_[static_cast<std::size_t>(i)];
        const Time when =
            sim().Now() +
            static_cast<Time>(server.arrivals.Exponential(1.0 / rate_) * 1e12);
        if (when >= deadline_) return;
        sim().ScheduleAt(when, [this, i] {
            Arrive(i);
            ScheduleArrival(i);
        });
    }

    void Arrive(int i) {
        Pending doc{generator_.Next(), sim().Now()};
        doc.request.query.model_id = 0;
        ++tally_.arrivals;
        servers_[static_cast<std::size_t>(i)].backlog.push_back(std::move(doc));
        TryDispatch(i);
    }

    void TryDispatch(int i) {
        Server& server = servers_[static_cast<std::size_t>(i)];
        if (server.backlog.empty()) return;
        int thread = -1;
        for (int t = 0; t < kThreadsPerServer; ++t) {
            if (!server.busy[static_cast<std::size_t>(t)]) {
                thread = t;
                break;
            }
        }
        if (thread < 0) return;
        Pending doc = std::move(server.backlog.front());
        server.backlog.pop_front();
        server.busy[static_cast<std::size_t>(thread)] = true;
        const Time prep = cost_.PrepServiceTime(doc.request);
        server.cpu->Submit(prep, [this, i, thread, doc = std::move(doc)] {
            Inject(i, thread, doc);
        });
    }

    void Inject(int i, int thread, const Pending& doc) {
        const Time arrived = doc.arrived;
        const std::uint64_t id = doc.request.doc_id;
        const auto status = ring_.Inject(
            i, thread, doc.request,
            [this, i, thread, arrived, id](const service::ScoreResult& r) {
                servers_[static_cast<std::size_t>(i)]
                    .busy[static_cast<std::size_t>(thread)] = false;
                const Time latency = sim().Now() - arrived;
                record_.digest.Add(id);
                record_.digest.Add(static_cast<std::uint64_t>(latency));
                record_.digest.Add(r.ok ? 1 : 0);
                if (r.ok) {
                    ++tally_.completed;
                    const double us = ToMicroseconds(latency);
                    record_.latency_us.push_back(us);
                    if (us <= kLatencyLimitUs) ++record_.good;
                } else {
                    ++tally_.timed_out;
                }
                TryDispatch(i);
            });
        if (status != host::SendStatus::kOk) {
            servers_[static_cast<std::size_t>(i)]
                .busy[static_cast<std::size_t>(thread)] = false;
            ++tally_.refused;
            record_.digest.Add(id);
            TryDispatch(i);
        }
    }

    service::RankingService& ring_;
    rank::DocumentGenerator generator_;
    RunRecord& record_;
    const rank::SoftwareCostModel cost_;
    std::vector<Server> servers_;
    double rate_ = 0;
    Time deadline_ = 0;
    Tally tally_;
};

/** The same Poisson arrivals on eight software-only ranking servers. */
class SoftwareFleet {
  public:
    SoftwareFleet(sim::Simulator& simulator, const rank::Model& model,
                  std::uint64_t corpus_seed, Rng rng, RunRecord& record)
        : sim_(simulator), model_(model), generator_(corpus_seed),
          record_(record) {
        for (int i = 0; i < kServers; ++i) {
            servers_.push_back(
                std::make_unique<rank::SoftwareRankServer>(&sim_, rng.Fork()));
            arrivals_.push_back(rng.Fork());
        }
    }

    void Start(double rate, Time deadline) {
        rate_ = rate;
        deadline_ = deadline;
        for (int i = 0; i < kServers; ++i) ScheduleArrival(i);
    }

    const Tally& tally() const { return tally_; }

  private:
    void ScheduleArrival(int i) {
        const Time when =
            sim_.Now() +
            static_cast<Time>(
                arrivals_[static_cast<std::size_t>(i)].Exponential(1.0 / rate_) *
                1e12);
        if (when >= deadline_) return;
        sim_.ScheduleAt(when, [this, i] {
            const rank::CompressedRequest request = generator_.Next();
            const std::uint64_t id = request.doc_id;
            ++tally_.arrivals;
            servers_[static_cast<std::size_t>(i)]->Submit(
                request, model_, [this, id](Time latency) {
                    ++tally_.completed;
                    record_.digest.Add(id);
                    record_.digest.Add(static_cast<std::uint64_t>(latency));
                });
            ScheduleArrival(i);
        });
    }

    sim::Simulator& sim_;
    const rank::Model& model_;
    rank::DocumentGenerator generator_;
    RunRecord& record_;
    std::vector<std::unique_ptr<rank::SoftwareRankServer>> servers_;
    std::vector<Rng> arrivals_;
    double rate_ = 0;
    Time deadline_ = 0;
    Tally tally_;
};

}  // namespace

void RunFrontier(const Options& options, LeafSampler* sampler,
                 RunRecord& record) {
    const Seeds seeds(options.seed);
    service::PodTestbed::Config config;
    config.fabric.device.configure_time = Milliseconds(5);
    config.seed = seeds.fabric;
    config.service.model_seed = seeds.models;
    record.latency_limit_us = kLatencyLimitUs;

    rank::ModelStore models(config.service.models);
    const rank::Model* model = nullptr;
    {
        Span span(record.model_gen_s);
        model = &models.GetOrGenerate(0, seeds.models);
    }
    std::unique_ptr<service::PodTestbed> bed;
    sim::Simulator software_sim;
    {
        Span span(record.build_s);
        bed = std::make_unique<service::PodTestbed>(config);
    }
    bool deployed = false;
    {
        Span span(record.deploy_s);
        deployed = bed->DeployAndSettle();
    }
    record.Check(deployed, "frontier.deploy");
    Rng rng(seeds.arrivals);
    FpgaFleet fpga(bed->service(), seeds.corpus, rng.Fork(), record);
    SoftwareFleet software(software_sim, *model, seeds.corpus, rng.Fork(),
                           record);
    record.setup_s = HostNow() - ProcessStart();

    for (const double rate : kRatesPerServer) {
        fpga.Start(rate, bed->simulator().Now() + kWindow);
        {
            SimulatePhase phase(record, sampler);
            bed->simulator().Run();
        }
        software.Start(rate, software_sim.Now() + kWindow);
        {
            SimulatePhase phase(record, sampler);
            software_sim.Run();
        }
        record.load_seconds += ToSeconds(kWindow);
    }

    {
        Span span(record.check_s);
        const Tally& f = fpga.tally();
        const Tally& s = software.tally();
        record.attempted = f.arrivals + s.arrivals;
        record.failed = f.timed_out + f.refused;
        record.Check(f.arrivals == f.completed + f.timed_out + f.refused,
                     "frontier.fpga_arrivals_accounted");
        record.Check(fpga.Idle(), "frontier.fpga_drained");
        record.Check(s.arrivals == s.completed,
                     "frontier.software_arrivals_accounted");
        record.Check(f.completed >= 1'000 && s.completed >= 1'000,
                     "frontier.enough_requests");
        record.docs_scored = f.completed;
        AddPodCounters(bed->pod(), record);
    }
    if (options.trace) ReplayRank({}, seeds.corpus, seeds.models, 1, record);
}

}  // namespace perfbench
