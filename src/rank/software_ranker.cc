#include "rank/software_ranker.h"

#include <cassert>
#include <cmath>
#include <type_traits>

#include "common/log.h"

namespace catapult::rank {

namespace {

// SoftwareCostModel's cycle counts, at the host CPU clock.
constexpr Frequency kCpuClock = Frequency::GHz(2.5);
constexpr double kBaseCycles = 150'000;
constexpr double kCyclesPerTuple = 900;  ///< metastream + FE work
constexpr double kCyclesPerFfeOp = 12;
constexpr double kCyclesPerTreeLevel = 9;
/** Preprocessing-only (FPGA path): share of tuple work + base. */
constexpr double kPrepBaseCycles = 120'000;
constexpr double kPrepCyclesPerTuple = 700;

}  // namespace

RankingFunction::RankingFunction(const Model* model) : model_(model) {
    assert(model_ != nullptr);
}

void RankingFunction::ExtractFeatures(const CompressedRequest& request,
                                      FeatureStore& store) {
    store.Clear();
    extractor_.Extract(request, store);
}

RankingFunction::Scratch& RankingFunction::EnsureScratch() {
    // The stage-wise roles never score whole requests, so their
    // functions never hold these two FST-sized stores.
    if (scratch_ == nullptr) scratch_ = std::make_unique<Scratch>();
    return *scratch_;
}

float RankingFunction::Score(const CompressedRequest& request) {
    Scratch& scratch = EnsureScratch();
    ExtractFeatures(request, scratch.features);
    RunFfe0(scratch.features);
    RunFfe1(scratch.features);
    scratch.compressed.Clear();
    Compress(scratch.features, scratch.compressed);
    return FinalScore(scratch.compressed);
}

float RankingFunction::ReferenceScore(const CompressedRequest& request) {
    Scratch& scratch = EnsureScratch();
    ExtractFeatures(request, scratch.features);
    // Direct AST evaluation of the unsplit expressions, writing the
    // same FFE output slots the compiled path writes.
    const auto& expressions = model_->expressions();
    for (std::size_t i = 0; i < expressions.size(); ++i) {
        const std::uint32_t slot =
            kFfeOutputBase + static_cast<std::uint32_t>(i) % kFfeOutputSlots;
        scratch.features.Set(slot, expressions[i]->Evaluate(scratch.features));
    }
    scratch.compressed.Clear();
    Compress(scratch.features, scratch.compressed);
    return FinalScore(scratch.compressed);
}

CpuPool::CpuPool(sim::Simulator* simulator, Rng rng, Config config)
    : simulator_(simulator), rng_(rng), config_(config) {
    assert(simulator_ != nullptr);
    if (config_.cores < 1) {
        FatalMisuse("CpuPool: cores %d < 1", config_.cores);
    }
}

void CpuPool::Submit(Time service, DoneFn on_done) {
    queue_.push_back(Job{service, std::move(on_done)});
    TryDispatch();
}

void CpuPool::TryDispatch() {
    while (busy_ < config_.cores && !queue_.empty()) {
        Job job = queue_.pop_front();
        ++busy_;
        // Contention in the memory hierarchy: service inflates with the
        // occupancy at dispatch time, plus heavy-ish lognormal noise.
        const double u = static_cast<double>(busy_) / config_.cores;
        const double contention = 1.0 + config_.contention_alpha * u * u;
        const double noise =
            std::exp(config_.noise_sigma * rng_.Normal() -
                     config_.noise_sigma * config_.noise_sigma / 2.0);
        const Time effective = static_cast<Time>(
            static_cast<double>(job.service) * contention * noise);
        // The event carries a slot index, not the completion itself,
        // which would not fit inline next to `this`.
        const std::uint32_t slot = running_.Acquire();
        running_[slot] = std::move(job.on_done);
        simulator_->ScheduleAfter(effective, [this, slot] {
            --busy_;
            DoneFn done = std::move(running_[slot]);
            running_.Release(slot);
            done();
            TryDispatch();
        });
    }
}

Time SoftwareCostModel::FullServiceTime(const CompressedRequest& request,
                                        const Model& model) const {
    // A tree evaluation visits ~depth nodes; estimate the average depth
    // from the node count (nodes ~= 2^(depth+1) for near-full trees).
    const double trees = std::max(1, model.ensemble().total_trees());
    const double nodes_per_tree =
        static_cast<double>(model.total_tree_nodes()) / trees;
    const double avg_depth = std::max(1.0, std::log2(nodes_per_tree + 1.0) - 1.0);
    const double tree_cycles = kCyclesPerTreeLevel * trees * avg_depth;
    const double cycles =
        kBaseCycles + kCyclesPerTuple * request.tuple_count +
        kCyclesPerFfeOp * static_cast<double>(model.total_ffe_ops()) +
        tree_cycles;
    return static_cast<Time>(cycles / kCpuClock.hertz() * 1e12);
}

Time SoftwareCostModel::PrepServiceTime(const CompressedRequest& request) const {
    const double cycles =
        kPrepBaseCycles + kPrepCyclesPerTuple * request.tuple_count;
    return static_cast<Time>(cycles / kCpuClock.hertz() * 1e12);
}

SoftwareRankServer::SoftwareRankServer(sim::Simulator* simulator, Rng rng)
    : simulator_(simulator), cpu_(simulator, rng) {}

void SoftwareRankServer::Submit(const CompressedRequest& request,
                                const Model& model,
                                std::function<void(Time)> on_done) {
    const Time submitted = simulator_->Now();
    const Time service = SoftwareCostModel().FullServiceTime(request, model);
    auto done = [this, submitted, on_done = std::move(on_done)] {
        on_done(simulator_->Now() - submitted);
    };
    // `this`, the submit time and the caller's std::function: the job
    // stays inline in the pool's queue, allocating nothing.
    static_assert(sizeof(done) <= CpuPool::DoneFn::kInlineBytes &&
                  std::is_nothrow_move_constructible_v<decltype(done)>);
    cpu_.Submit(service, std::move(done));
}

}  // namespace catapult::rank
