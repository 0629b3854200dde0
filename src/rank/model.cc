#include "rank/model.h"

#include <algorithm>
#include <mutex>
#include <tuple>

#include "common/log.h"

namespace catapult::rank {

namespace {

/** Depth of every scoring tree. */
constexpr int kTreeDepth = 6;
/** Dual-channel DDR3-1333 streaming rate during reload (§4.3). */
constexpr Bandwidth kReloadBandwidth = Bandwidth::MegabytesPerSecond(21'334);
/** Command/quiesce overhead per stage reload. */
constexpr Time kReloadOverhead = Microseconds(5);

/**
 * FNV-1a over every generation-relevant config field. Two configs with
 * the same fingerprint synthesize bit-identical models for a given
 * (model_id, seed), which is what makes cross-store sharing safe.
 */
std::uint64_t ConfigFingerprint(const Model::Config& config) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    const auto mix_double = [&](double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(config.expression_count));
    mix(static_cast<std::uint64_t>(config.tree_count));
    mix_double(config.expressions.small_probability);
    mix(static_cast<std::uint64_t>(config.compiler.split_threshold_ops));
    mix(static_cast<std::uint64_t>(config.compiler.split_chunk_ops));
    return h;
}

using CacheKey = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>;

std::shared_ptr<const Model> CachedGenerate(std::uint32_t model_id,
                                            std::uint64_t seed,
                                            const Model::Config& config) {
    static std::mutex mutex;
    static std::map<CacheKey, std::shared_ptr<const Model>>* cache =
        new std::map<CacheKey, std::shared_ptr<const Model>>;
    const CacheKey key{ConfigFingerprint(config), model_id, seed};
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache->find(key);
    if (it == cache->end()) {
        it = cache->emplace(key, Model::Generate(model_id, seed, config))
                 .first;
    }
    return it->second;
}

}  // namespace

const char* ToString(PipelineStage stage) {
    switch (stage) {
      case PipelineStage::kFeatureExtraction: return "FE";
      case PipelineStage::kFfe0: return "FFE0";
      case PipelineStage::kFfe1: return "FFE1";
      case PipelineStage::kCompression: return "Comp";
      case PipelineStage::kScoring0: return "Score0";
      case PipelineStage::kScoring1: return "Score1";
      case PipelineStage::kScoring2: return "Score2";
      case PipelineStage::kSpare: return "Spare";
    }
    return "?";
}

std::unique_ptr<Model> Model::Generate(std::uint32_t model_id,
                                       std::uint64_t seed, Config config) {
    auto model = std::unique_ptr<Model>(new Model());
    model->model_id_ = model_id;
    model->seed_ = seed;
    const std::uint64_t model_seed =
        seed ^ (static_cast<std::uint64_t>(model_id) * 0xD1B54A32D192ED03ull);

    // 1. Generate the expression set (the software-reference ASTs).
    ffe::ExpressionGenerator generator(model_seed, config.expressions);
    model->expressions_.reserve(
        static_cast<std::size_t>(config.expression_count));
    for (int i = 0; i < config.expression_count; ++i) {
        model->expressions_.push_back(generator.Generate());
        model->total_ffe_ops_ += model->expressions_.back()->OpCount();
    }

    // 2. Compile: split oversized expressions across the two FFE chips
    //    via metafeatures (§4.5), then partition the remaining work.
    ffe::FfeCompiler compiler(config.compiler);
    std::uint32_t next_meta_slot = 0;
    std::vector<ffe::Program> upstream;   // FFE0: metafeature producers
    std::vector<ffe::Program> remainder;  // split between the chips

    for (std::size_t i = 0; i < model->expressions_.size(); ++i) {
        const std::uint32_t output_slot =
            kFfeOutputBase +
            static_cast<std::uint32_t>(i) % kFfeOutputSlots;
        const ffe::Expr& expr = *model->expressions_[i];
        if (expr.OpCount() <= config.compiler.split_threshold_ops) {
            // Nothing to split: compile the reference AST itself.
            remainder.push_back(compiler.Compile(expr, output_slot));
            continue;
        }
        // Split a clone so expressions_ stays the unsplit reference.
        ffe::ExprPtr work = expr.Clone();
        auto parts = compiler.SplitForMetafeatures(*work, next_meta_slot);
        for (auto& part : parts) {
            upstream.push_back(compiler.Compile(*part.expr, part.slot));
        }
        remainder.push_back(compiler.Compile(*work, output_slot));
    }
    model->metafeature_count_ = static_cast<int>(next_meta_slot);
    // Metafeature slots must not wrap within one model: a collision
    // would let a later producer overwrite an earlier one's value.
    if (next_meta_slot > kMetaFeatureSlots) {
        FatalMisuse("Model::Generate: model %u needs %u metafeatures, more "
                    "than the %u slots (kMetaFeatureSlots)", model_id,
                    next_meta_slot, kMetaFeatureSlots);
    }

    // Partition the remainder across the chips, balancing instruction
    // counts. Metafeature producers must run upstream (FFE0); consumers
    // of metafeatures must run downstream (FFE1).
    std::vector<ffe::Program> ffe0 = std::move(upstream);
    std::vector<ffe::Program> ffe1;
    std::int64_t load0 = 0;
    for (const auto& p : ffe0) load0 += p.InstructionCount();
    std::int64_t load1 = 0;
    for (auto& program : remainder) {
        const bool reads_meta = std::any_of(
            program.instructions.begin(), program.instructions.end(),
            [](const ffe::Instruction& instr) {
                return instr.op == ffe::OpCode::kLoadFeature &&
                       instr.feature >= kMetaFeatureBase &&
                       instr.feature < kMetaFeatureBase + kMetaFeatureSlots;
            });
        if (reads_meta || load1 <= load0) {
            load1 += program.InstructionCount();
            ffe1.push_back(std::move(program));
        } else {
            load0 += program.InstructionCount();
            ffe0.push_back(std::move(program));
        }
    }
    model->ffe0_ = std::move(ffe0);
    model->ffe1_ = std::move(ffe1);
    model->ffe0_instructions_ = load0;
    model->ffe1_instructions_ = load1;
    // The two FFE stages' time per document on the §4.5 processor.
    const ffe::FfeProcessor processor;
    model->ffe0_service_time_ = processor.DocumentServiceTime(model->ffe0_);
    model->ffe1_service_time_ = processor.DocumentServiceTime(model->ffe1_);

    // 3. Scoring ensemble + compression stage programming.
    model->ensemble_ =
        GenerateEnsemble(model_seed, config.tree_count, kTreeDepth);
    model->compression_.ProgramForModel(model->ensemble_);
    return model;
}

const ffe::FfeProcessor::Partition& Model::Decoded(
    LazyPartition& lazy, const std::vector<ffe::Program>& programs) const {
    std::call_once(lazy.once, [&] {
        lazy.partition.emplace(programs);
        ++decoded_partitions_;
    });
    return *lazy.partition;
}

std::int64_t Model::total_tree_nodes() const {
    std::int64_t nodes = 0;
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        nodes += ensemble_.shard(s).total_nodes();
    }
    return nodes;
}

Bytes Model::ReloadBytes(PipelineStage stage) const {
    switch (stage) {
      case PipelineStage::kFeatureExtraction:
        // FE reloads feature configuration tables (thresholds, masks).
        return 64 * 1024;
      case PipelineStage::kFfe0:
        return ffe0_instructions_ * 8;
      case PipelineStage::kFfe1:
        return ffe1_instructions_ * 8;
      case PipelineStage::kCompression:
        return static_cast<Bytes>(compression_.operand_count()) * 4;
      case PipelineStage::kScoring0:
        return ensemble_.shard(0).ModelBytes();
      case PipelineStage::kScoring1:
        return ensemble_.shard(1).ModelBytes();
      case PipelineStage::kScoring2:
        return ensemble_.shard(2).ModelBytes();
      case PipelineStage::kSpare:
        return 0;
    }
    return 0;
}

const Model& ModelStore::GetOrGenerate(std::uint32_t model_id,
                                       std::uint64_t seed) {
    auto it = models_.find(model_id);
    if (it == models_.end()) {
        it = models_.emplace(model_id,
                             CachedGenerate(model_id, seed, config_.model))
                 .first;
    } else if (it->second->seed() != seed) {
        FatalMisuse("ModelStore::GetOrGenerate: model %u is resident for "
                    "seed %#llx, not %#llx",
                    model_id,
                    static_cast<unsigned long long>(it->second->seed()),
                    static_cast<unsigned long long>(seed));
    }
    return *it->second;
}

const Model* ModelStore::Find(std::uint32_t model_id) const {
    const auto it = models_.find(model_id);
    return it == models_.end() ? nullptr : it->second.get();
}

Time ModelStore::StageReloadTime(const Model& model,
                                 PipelineStage stage) const {
    const Bytes bytes = model.ReloadBytes(stage);
    if (bytes == 0) return 0;
    return kReloadOverhead + kReloadBandwidth.SerializationTime(bytes);
}

Time ModelStore::PipelineReloadTime(const Model& model) const {
    Time worst = 0;
    for (int s = 0; s < kPipelineStageCount; ++s) {
        worst = std::max(
            worst, StageReloadTime(model, static_cast<PipelineStage>(s)));
    }
    // Command propagation down the ring (one hop per stage).
    return worst + Microseconds(2);
}

Time ModelStore::WorstCaseReloadTime() const {
    // §4.3: all 2,014 M20K RAMs (20 Kb each) reloaded from DRAM.
    const Bytes all_m20k = 2'014ll * 20'480 / 8;
    return kReloadOverhead + kReloadBandwidth.SerializationTime(all_m20k);
}

}  // namespace catapult::rank
