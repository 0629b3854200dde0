// `blackout`: §3.5 failure handling at federation scale.
//
// Four pods of two rings each, sharded per pod on a SimulatorGroup run
// in lock-step (parallel = false: every shard on the calling thread).
// Score-weighted dispatch with the predictive health plane on. A paced
// open loop submits scatter-gather queries through 8 SessionFrontEnd
// sessions: 8 documents per gather, top-4 merge, a 2 ms budget, 6,000
// gathers/s for 1.5 s of simulated time. Pod 0 blacks out at 20% of the
// window and FederationTestbed::ReattachPod brings it back at 50%. This
// is the only workload that drives the front door, dispatcher failover,
// the mgmt daemons and the group's rounds and mailboxes.

#include <memory>
#include <vector>

#include "bench.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "service/federation_testbed.h"

namespace perfbench {

namespace {

using namespace catapult;

constexpr int kPods = 4;
constexpr int kRingsPerPod = 2;
constexpr int kSessions = 8;
constexpr int kDocsPerGather = 8;
constexpr std::size_t kTopK = 4;
constexpr Time kBudget = Milliseconds(2);
constexpr double kGathersPerSecond = 6'000.0;
constexpr Time kWindow = Milliseconds(1'500);
constexpr Time kBlackoutAt = kWindow / 5;
constexpr Time kReattachAt = kWindow / 2;

service::FederationTestbed::Config BlackoutConfig(const Seeds& seeds) {
    service::FederationTestbed::Config config;
    config.pod_count = kPods;
    config.pod.ring_count = kRingsPerPod;
    config.pod.seed = seeds.fabric;
    config.pod.service.model_seed = seeds.models;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    // Fast failure handling, so the whole-pod loss is detected and the
    // serviced pod rejoins inside the window.
    config.pod.host.soft_reboot_duration = Milliseconds(30);
    config.pod.host.hard_reboot_duration = Milliseconds(40);
    config.pod.host.crash_reboot_delay = Milliseconds(10);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(30);
    // Documents caught on the dark pod time out and fail over well
    // inside the gather budget.
    config.pod.host.driver.request_timeout = Microseconds(1'000);
    config.pod.predictive = true;
    config.dispatcher.policy = service::FederationPolicy::kScoreWeighted;
    config.sharding.enabled = true;
    config.sharding.parallel = false;
    return config;
}

/** Paced scatter-gather load through the session front end. */
class GatherLoad {
  public:
    GatherLoad(service::FederationTestbed& bed, std::uint64_t corpus_seed,
               bool time_submits, RunRecord& record)
        : bed_(bed),
          generator_(corpus_seed),
          time_submits_(time_submits),
          record_(record) {
        for (int s = 0; s < kSessions; ++s) {
            sessions_.push_back(bed_.front_end().OpenSession());
        }
    }

    void Start() {
        load_start_ = bed_.Now();
        beat_ = static_cast<Time>(1e12 / kGathersPerSecond);
        count_ = static_cast<std::uint64_t>(kWindow / beat_);
        fired_.assign(count_, 0);
        refused_.assign(count_, 0);
        bed_.simulator().ScheduleAt(load_start_, [this] { Arrive(0); });
        bed_.pod(0).failure_injector().SchedulePodBlackout(load_start_ +
                                                           kBlackoutAt);
        bed_.simulator().ScheduleAt(load_start_ + kReattachAt, [this] {
            bed_.ReattachPod(0, [this](bool ok) {
                reattach_ok_ = ok;
                reattached_ = true;
            });
        });
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t refused() const { return refused_count_; }
    std::uint64_t partial() const { return partial_; }
    bool reattach_ok() const { return reattach_ok_; }
    std::uint64_t pod0_answered_after_reattach() const {
        return pod0_after_reattach_;
    }
    double submit_seconds() const { return submit_s_; }
    /** Simulated seconds from the first submit to the last delivery. */
    double elapsed_seconds() const {
        return ToSeconds(last_delivery_ - load_start_);
    }

    /** Every accepted gather's callback fired exactly once, none else. */
    bool CallbacksExactlyOnce() const {
        for (std::uint64_t i = 0; i < count_; ++i) {
            if (fired_[i] != (refused_[i] ? 0 : 1)) return false;
        }
        return true;
    }

  private:
    void Arrive(std::uint64_t i) {
        if (i + 1 < count_) {
            bed_.simulator().ScheduleAt(
                load_start_ + beat_ * static_cast<Time>(i + 1),
                [this, i] { Arrive(i + 1); });
        }
        std::vector<rank::CompressedRequest> docs;
        docs.reserve(kDocsPerGather);
        for (int d = 0; d < kDocsPerGather; ++d) docs.push_back(generator_.Next());
        rank::Query query = docs.front().query;
        query.query_id = i + 1;
        query.model_id = 0;
        const std::uint64_t session = sessions_[i % sessions_.size()];
        auto on_complete =
            [this, i](const service::ScatterGatherDispatcher::GatherResult& r) {
                OnGather(i, r);
            };
        std::uint64_t id = 0;
        if (time_submits_) {
            const double t = HostNow();
            id = bed_.front_end().Submit(session, query, std::move(docs), kTopK,
                                         kBudget, std::move(on_complete));
            submit_s_ += HostNow() - t;
        } else {
            id = bed_.front_end().Submit(session, query, std::move(docs), kTopK,
                                         kBudget, std::move(on_complete));
        }
        if (id == 0) {
            refused_[i] = 1;
            ++refused_count_;
        }
    }

    void OnGather(std::uint64_t i,
                  const service::ScatterGatherDispatcher::GatherResult& r) {
        ++fired_[i];
        last_delivery_ = bed_.Now();
        const double us = ToMicroseconds(r.latency);
        record_.latency_us.push_back(us);
        if (r.partial) {
            ++partial_;
        } else if (r.latency <= kBudget) {
            ++record_.good;
        }
        record_.digest.Add(i);
        record_.digest.Add(static_cast<std::uint64_t>(r.latency));
        record_.digest.Add(r.partial ? 1 : 0);
        for (const service::RankedDoc& doc : r.top) {
            record_.digest.Add(doc.doc_id);
            record_.digest.AddFloat(doc.score);
            record_.digest.Add(static_cast<std::uint64_t>(doc.pod));
        }
        if (reattached_ && !r.pods.empty() && r.pods[0].answered > 0) {
            ++pod0_after_reattach_;
        }
    }

    service::FederationTestbed& bed_;
    rank::DocumentGenerator generator_;
    const bool time_submits_;
    RunRecord& record_;
    std::vector<std::uint64_t> sessions_;
    Time load_start_ = 0;
    Time last_delivery_ = 0;
    Time beat_ = 0;
    std::uint64_t count_ = 0;
    std::vector<std::uint8_t> fired_;
    std::vector<std::uint8_t> refused_;
    std::uint64_t refused_count_ = 0;
    std::uint64_t partial_ = 0;
    bool reattached_ = false;
    bool reattach_ok_ = false;
    std::uint64_t pod0_after_reattach_ = 0;
    double submit_s_ = 0;
};

}  // namespace

void RunBlackout(const Options& options, LeafSampler* sampler,
                 RunRecord& record) {
    const Seeds seeds(options.seed);
    const service::FederationTestbed::Config config = BlackoutConfig(seeds);
    record.latency_limit_us = ToMicroseconds(kBudget);

    {
        Span span(record.model_gen_s);
        rank::ModelStore models(config.pod.service.models);
        models.GetOrGenerate(0, seeds.models);
    }
    std::unique_ptr<service::FederationTestbed> bed;
    {
        Span span(record.build_s);
        bed = std::make_unique<service::FederationTestbed>(config);
    }
    bool deployed = false;
    {
        Span span(record.deploy_s);
        deployed = bed->DeployAndSettle();
    }
    record.Check(deployed, "blackout.deploy");
    GatherLoad load(*bed, seeds.corpus, options.trace, record);
    load.Start();
    record.setup_s = HostNow() - ProcessStart();

    {
        SimulatePhase phase(record, sampler);
        bed->Run();
    }
    record.load_seconds = load.elapsed_seconds();

    {
        Span span(record.check_s);
        const auto& dispatcher = bed->dispatcher().counters();
        const auto& scatter = bed->front_end().scatter().counters();
        record.attempted = load.count();
        record.failed = load.refused() + load.partial();
        record.Check(dispatcher.accepted ==
                         dispatcher.completed + dispatcher.lost,
                     "blackout.accepted_equals_completed_plus_lost");
        record.Check(dispatcher.lost == 0, "blackout.zero_lost");
        record.Check(scatter.docs_scattered == scatter.docs_answered +
                                                   scatter.docs_failed +
                                                   scatter.stragglers,
                     "blackout.scattered_accounted");
        record.Check(load.CallbacksExactlyOnce(),
                     "blackout.callback_exactly_once");
        record.Check(load.reattach_ok(), "blackout.reattach_ok");
        record.Check(load.pod0_answered_after_reattach() > 0,
                     "blackout.pod0_serves_after_reattach");
        record.Check(record.latency_us.size() >= 1'000,
                     "blackout.enough_requests");

        auto& layer = record.layer;
        const auto& profile = bed->group()->profile();
        layer["sim.group_rounds"] = static_cast<double>(profile.rounds);
        layer["sim.group_items_per_round"] =
            profile.rounds > 0 ? static_cast<double>(profile.round_items) /
                                     static_cast<double>(profile.rounds)
                               : 0.0;
        layer["sim.group_messages"] =
            static_cast<double>(profile.messages_drained);
        layer["service.failovers"] = static_cast<double>(dispatcher.failovers);
        layer["service.failover_ratio"] =
            dispatcher.accepted > 0
                ? static_cast<double>(dispatcher.failovers) /
                      static_cast<double>(dispatcher.accepted)
                : 0.0;
        layer["service.gathers_partial"] = static_cast<double>(scatter.partial);
        layer["service.stragglers"] = static_cast<double>(scatter.stragglers);
        record.docs_scored = scatter.docs_answered + scatter.stragglers;
        if (options.trace) {
            layer["service.submit_us"] =
                load.count() > 0 ? load.submit_seconds() * 1e6 /
                                       static_cast<double>(load.count())
                                 : 0.0;
        }
        for (int p = 0; p < kPods; ++p) AddPodCounters(bed->pod(p), record);
    }
    if (options.trace) ReplayRank({}, seeds.corpus, seeds.models, 1, record);
}

}  // namespace perfbench
