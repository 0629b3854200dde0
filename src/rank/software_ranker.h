// Software ranking baseline + the shared functional pipeline.
//
// The paper's comparisons (Figures 14-15) are FPGA-accelerated ranking
// versus "Bing's production-level ranker running without FPGAs". Both
// sides run the same logical computation; the software side runs it all
// on the host CPU, with latency variability that grows under load "due
// to contention in the CPU's memory hierarchy" (§5), while the
// FPGA-side host only runs the pre-processing portion (§4: SSD lookup,
// hit-vector computation, a few software features).
//
// RankingFunction is the shared functional path — the same feature
// FSMs, the same compiled-FFE semantics, the same ensemble — used by
// the software baseline, by tests, and (stage-wise) by the FPGA roles,
// which is what makes FPGA and software scores identical (§4).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/slot_table.h"
#include "common/units.h"
#include "rank/document.h"
#include "rank/feature_extraction.h"
#include "rank/ffe/processor.h"
#include "rank/model.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::rank {

/** Full functional scoring chain for one model. */
class RankingFunction {
  public:
    explicit RankingFunction(const Model* model);

    /** Score one request end-to-end (FE -> FFE0 -> FFE1 -> Comp -> Score). */
    float Score(const CompressedRequest& request);

    /** Stage-wise access for the distributed FPGA roles. */
    void ExtractFeatures(const CompressedRequest& request, FeatureStore& store);
    void RunFfe0(FeatureStore& store) {
        ffe::FfeProcessor::Run(model_->ffe0_partition(), store, values_);
    }
    void RunFfe1(FeatureStore& store) {
        ffe::FfeProcessor::Run(model_->ffe1_partition(), store, values_);
    }
    void Compress(const FeatureStore& in, FeatureStore& out) const {
        model_->compression().Apply(in, out);
    }
    float FinalScore(const FeatureStore& store) const {
        return model_->ensemble().Score(store);
    }

    /**
     * Software-reference score: direct AST evaluation of the unsplit
     * expressions (what the CPU baseline computes). Identical to the
     * compiled path by construction; asserted in tests.
     */
    float ReferenceScore(const CompressedRequest& request);

    const Model& model() const { return *model_; }
    FeatureExtractor& extractor() { return extractor_; }

  private:
    const Model* model_;
    FeatureExtractor extractor_;
    /** The FFE executor's value array, this function's own. */
    std::vector<float> values_;
    FeatureStore scratch_;
    FeatureStore compressed_;
};

/**
 * A pool of CPU cores with FIFO dispatch and a contention model:
 * effective service time inflates as more cores are busy (memory
 * hierarchy contention, §5), with multiplicative lognormal noise.
 */
class CpuPool {
  public:
    struct Config {
        int cores = 12;  ///< §2.3: 12-core Sandy Bridge (two sockets).
        /** Service inflation at full occupancy: t *= 1 + alpha*(u^2). */
        double contention_alpha = 0.25;
        /** Lognormal noise sigma on each service time. */
        double noise_sigma = 0.30;
    };

    CpuPool(sim::Simulator* simulator, Rng rng, Config config);
    CpuPool(sim::Simulator* simulator, Rng rng)
        : CpuPool(simulator, rng, Config()) {}

    /** Job completion; captures up to 48 bytes stay inline. */
    using DoneFn = sim::InlineFunction<void()>;

    /** Submit a job with nominal `service` time; on_done fires at completion. */
    void Submit(Time service, DoneFn on_done);

    int busy_cores() const { return busy_; }
    std::size_t queue_depth() const { return queue_.size(); }

    const Config& config() const { return config_; }

  private:
    struct Job {
        Time service = 0;
        DoneFn on_done;
    };

    void TryDispatch();

    sim::Simulator* simulator_;
    Rng rng_;
    Config config_;
    RingQueue<Job> queue_;
    /** Completions of the jobs on a core; their events carry the index. */
    SlotTable<DoneFn> running_;
    int busy_ = 0;
};

/**
 * Cost model for ranking work on the CPU (cycles at the host's 2.5 GHz
 * clock). The FPGA-side host pays only the preprocessing component.
 */
struct SoftwareCostModel {
    /**
     * Stateless: the cycle counts are constants in software_ranker.cc.
     * User-provided, so a `const SoftwareCostModel` member needs no
     * initializer.
     */
    SoftwareCostModel() {}

    /** Full software ranking time for one request. */
    Time FullServiceTime(const CompressedRequest& request,
                         const Model& model) const;

    /** Host-side preprocessing time on the FPGA path. */
    Time PrepServiceTime(const CompressedRequest& request) const;
};

/**
 * One software-only ranking server: a CpuPool running the full ranking
 * computation per document.
 */
class SoftwareRankServer {
  public:
    SoftwareRankServer(sim::Simulator* simulator, Rng rng);

    /** Rank one request; on_done(latency) fires at completion. */
    void Submit(const CompressedRequest& request, const Model& model,
                std::function<void(Time)> on_done);

    CpuPool& cpu() { return cpu_; }

  private:
    sim::Simulator* simulator_;
    CpuPool cpu_;
};

}  // namespace catapult::rank
