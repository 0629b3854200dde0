// Ranking models and the model store (§4.3).
//
// "In practice there are many different sets of features, free forms,
// and scorers. We call these different sets models. Different models
// are selected based on each query, and can vary for language, query
// type, or for trying out experimental models."
//
// A Model bundles the FFE expression set (compiled into the two FFE
// chips' program partitions, with oversized expressions split via
// metafeatures), the scoring ensemble (sharded across the three scoring
// chips) and the programmed compression stage. The ModelStore holds all
// models resident in board DRAM and prices Model Reload: "In the worst
// case, it requires all of the embedded M20K RAMs to be reloaded with
// new contents from DRAM ... up to 250 us" at DDR3-1333.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/units.h"
#include "rank/compression.h"
#include "rank/document.h"
#include "rank/feature_extraction.h"
#include "rank/feature_space.h"
#include "rank/ffe/compiler.h"
#include "rank/ffe/expression.h"
#include "rank/ffe/processor.h"
#include "rank/scorer.h"

namespace catapult::rank {

/** Identifies which ring stage a reload cost is asked for. */
enum class PipelineStage : int {
    kFeatureExtraction = 0,
    kFfe0 = 1,
    kFfe1 = 2,
    kCompression = 3,
    kScoring0 = 4,
    kScoring1 = 5,
    kScoring2 = 6,
    kSpare = 7,
};

inline constexpr int kPipelineStageCount = 8;

const char* ToString(PipelineStage stage);

/** One complete ranking model. */
class Model {
  public:
    struct Config {
        int expression_count = 1'600;  ///< "typically thousands of FFEs".
        int tree_count = 6'000;
        ffe::ExpressionGenerator::Config expressions;
        ffe::FfeCompiler::Config compiler;
    };

    /** Deterministically synthesize the model for (model_id, seed). */
    static std::unique_ptr<Model> Generate(std::uint32_t model_id,
                                           std::uint64_t seed, Config config);
    static std::unique_ptr<Model> Generate(std::uint32_t model_id,
                                           std::uint64_t seed) {
        return Generate(model_id, seed, Config());
    }

    std::uint32_t model_id() const { return model_id_; }
    std::uint64_t seed() const { return seed_; }

    /** Original (unsplit) expressions — the software reference. */
    const std::vector<ffe::ExprPtr>& expressions() const {
        return expressions_;
    }

    /** Compiled partitions for the two FFE chips. */
    const std::vector<ffe::Program>& ffe0_programs() const { return ffe0_; }
    const std::vector<ffe::Program>& ffe1_programs() const { return ffe1_; }

    /**
     * The two partitions decoded for execution. Each is decoded once,
     * by its first caller on any thread, and shared by every caller
     * from then on; a run that only prices FFE time never decodes.
     */
    const ffe::FfeProcessor::Partition& ffe0_partition() const {
        return Decoded(ffe0_decoded_, ffe0_);
    }
    const ffe::FfeProcessor::Partition& ffe1_partition() const {
        return Decoded(ffe1_decoded_, ffe1_);
    }
    /** Partitions decoded so far: 0, 1 or 2. */
    int decoded_partitions() const { return decoded_partitions_.load(); }

    /**
     * FFE0's and FFE1's stage time per document on the §4.5 processor,
     * computed once at generation from the partitions' static thread
     * assignment (nothing is decoded for it).
     */
    Time ffe0_service_time() const { return ffe0_service_time_; }
    Time ffe1_service_time() const { return ffe1_service_time_; }

    const ScoringEnsemble& ensemble() const { return ensemble_; }
    const CompressionStage& compression() const { return compression_; }

    /** Model memory that stage must reload on a model switch (§4.3). */
    Bytes ReloadBytes(PipelineStage stage) const;

    /** Total FFE operation count (software cost model input). */
    std::int64_t total_ffe_ops() const { return total_ffe_ops_; }
    std::int64_t total_tree_nodes() const;
    int metafeature_count() const { return metafeature_count_; }

  private:
    Model() = default;

    struct LazyPartition {
        std::once_flag once;
        std::optional<ffe::FfeProcessor::Partition> partition;
    };
    const ffe::FfeProcessor::Partition& Decoded(
        LazyPartition& lazy, const std::vector<ffe::Program>& programs) const;

    std::uint32_t model_id_ = 0;
    std::uint64_t seed_ = 0;
    std::vector<ffe::ExprPtr> expressions_;
    std::vector<ffe::Program> ffe0_;
    std::vector<ffe::Program> ffe1_;
    ScoringEnsemble ensemble_;
    CompressionStage compression_;
    std::int64_t total_ffe_ops_ = 0;
    /** Instruction totals of ffe0_ and ffe1_ (their reload sizes). */
    std::int64_t ffe0_instructions_ = 0;
    std::int64_t ffe1_instructions_ = 0;
    Time ffe0_service_time_ = 0;
    Time ffe1_service_time_ = 0;
    int metafeature_count_ = 0;
    mutable LazyPartition ffe0_decoded_;
    mutable LazyPartition ffe1_decoded_;
    mutable std::atomic<int> decoded_partitions_{0};
};

/**
 * All models resident in board DRAM, plus the reload cost model.
 */
class ModelStore {
  public:
    struct Config {
        Model::Config model;
    };

    ModelStore() : ModelStore(Config()) {}
    explicit ModelStore(Config config) : config_(config) {}

    /**
     * Create (or return) the model for `model_id`. Generation is
     * deterministic in (model_id, seed, config) and the result is
     * immutable, so stores share generated models through a
     * process-wide cache: the multi-pod testbeds deploy dozens of
     * rings whose stores would otherwise each regenerate and recompile
     * identical models — the dominant deploy-time cost. A store holds
     * one model per id: asking for a resident id with another seed
     * aborts in every build.
     */
    const Model& GetOrGenerate(std::uint32_t model_id, std::uint64_t seed);

    const Model* Find(std::uint32_t model_id) const;

    /** Reload duration for one stage switching to `model`. */
    Time StageReloadTime(const Model& model, PipelineStage stage) const;

    /**
     * Pipeline reload duration: stages reload concurrently once the
     * Model Reload command reaches them, so the pipeline stall is the
     * maximum stage reload plus command propagation.
     */
    Time PipelineReloadTime(const Model& model) const;

    /** §4.3 worst case: every M20K block reloaded from DRAM. */
    Time WorstCaseReloadTime() const;

    std::size_t resident_models() const { return models_.size(); }
    const Config& config() const { return config_; }

  private:
    Config config_;
    std::map<std::uint32_t, std::shared_ptr<const Model>> models_;
};

}  // namespace catapult::rank
