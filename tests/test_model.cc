// Unit tests for model generation and the Model Reload cost model (§4.3).

#include <gtest/gtest.h>

#include "rank/model.h"

namespace catapult::rank {
namespace {

Model::Config SmallModelConfig() {
    Model::Config config;
    config.expression_count = 200;
    config.tree_count = 600;
    return config;
}

TEST(Model, GenerateIsDeterministic) {
    const auto a = Model::Generate(1, 42, SmallModelConfig());
    const auto b = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_EQ(a->total_ffe_ops(), b->total_ffe_ops());
    EXPECT_EQ(a->total_tree_nodes(), b->total_tree_nodes());
    EXPECT_EQ(a->ffe0_programs().size(), b->ffe0_programs().size());
}

TEST(Model, DifferentModelIdsDiffer) {
    const auto a = Model::Generate(1, 42, SmallModelConfig());
    const auto b = Model::Generate(2, 42, SmallModelConfig());
    EXPECT_NE(a->total_ffe_ops(), b->total_ffe_ops());
}

TEST(Model, ExpressionsPartitionedAcrossFfeChips) {
    const auto model = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_FALSE(model->ffe0_programs().empty());
    EXPECT_FALSE(model->ffe1_programs().empty());
    // Rough balance: neither chip holds everything.
    std::int64_t i0 = 0, i1 = 0;
    for (const auto& p : model->ffe0_programs()) i0 += p.InstructionCount();
    for (const auto& p : model->ffe1_programs()) i1 += p.InstructionCount();
    EXPECT_GT(i0, 0);
    EXPECT_GT(i1, 0);
    const double balance = static_cast<double>(i0) / static_cast<double>(i0 + i1);
    EXPECT_GT(balance, 0.25);
    EXPECT_LT(balance, 0.75);
}

TEST(Model, MetafeatureConsumersRunDownstream) {
    // Programs on FFE1 may read metafeatures; programs on FFE0 that
    // read a metafeature would violate pipeline order.
    Model::Config config = SmallModelConfig();
    config.expressions.small_probability = 0.5;  // force big expressions
    const auto model = Model::Generate(3, 99, config);
    EXPECT_GT(model->metafeature_count(), 0);
    for (const auto& program : model->ffe0_programs()) {
        bool writes_meta =
            program.output_slot >= kMetaFeatureBase &&
            program.output_slot < kMetaFeatureBase + kMetaFeatureSlots;
        for (const auto& instr : program.instructions) {
            if (instr.op == ffe::OpCode::kLoadFeature &&
                instr.feature >= kMetaFeatureBase &&
                instr.feature < kMetaFeatureBase + kMetaFeatureSlots) {
                // Only allowed if this chip also produced it earlier —
                // our partition forbids it entirely on FFE0 unless the
                // program itself is a metafeature producer chain.
                EXPECT_TRUE(writes_meta)
                    << "FFE0 consumer program reads a metafeature";
            }
        }
    }
}

TEST(Model, ReloadBytesPerStage) {
    const auto model = Model::Generate(1, 42, SmallModelConfig());
    EXPECT_GT(model->ReloadBytes(PipelineStage::kFfe0), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kFfe1), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kScoring0), 0);
    EXPECT_GT(model->ReloadBytes(PipelineStage::kCompression), 0);
    EXPECT_EQ(model->ReloadBytes(PipelineStage::kSpare), 0);
}

TEST(ModelStore, CachesGeneratedModels) {
    ModelStore store;
    const Model& a = store.GetOrGenerate(5, 42);
    const Model& b = store.GetOrGenerate(5, 42);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(store.resident_models(), 1u);
    store.GetOrGenerate(6, 42);
    EXPECT_EQ(store.resident_models(), 2u);
    EXPECT_NE(store.Find(5), nullptr);
    EXPECT_EQ(store.Find(99), nullptr);
}

// A store holds one model per id. Returning the resident model for
// another seed would hand the caller a model it did not ask for, so a
// second seed aborts in every build.
TEST(ModelStoreDeathTest, RejectsASecondSeedForOneModel) {
    ModelStore store;
    store.GetOrGenerate(5, 42);
    EXPECT_DEATH(store.GetOrGenerate(5, 43),
                 "ModelStore::GetOrGenerate: model 5 is resident for seed "
                 "0x2a, not 0x2b");
}

TEST(ModelStore, WorstCaseReloadMatchesPaper) {
    // §4.3: "Model Reload can take up to 250 us" — all 2,014 M20Ks
    // reloaded from DRAM at DDR3-1333 (dual channel).
    ModelStore store;
    const Time worst = store.WorstCaseReloadTime();
    EXPECT_LE(worst, Microseconds(250));
    EXPECT_GE(worst, Microseconds(200));
}

TEST(ModelStore, TypicalReloadMuchLessThanWorstCase) {
    // §4.3: "In practice model reload takes much less than 250 us
    // because not all embedded memories ... need to be reloaded."
    ModelStore::Config config;
    config.model.expression_count = 2'400;
    config.model.tree_count = 6'000;
    ModelStore store(config);
    const Model& model = store.GetOrGenerate(0, 42);
    const Time reload = store.PipelineReloadTime(model);
    EXPECT_LT(reload, store.WorstCaseReloadTime());
    EXPECT_GT(reload, Microseconds(5));
}

TEST(ModelStore, ReloadTimesArePinned) {
    // Model Reload streams 8 bytes per tree node and per FFE instruction
    // (§4.3), whatever records the simulator keeps them in. Pinned with
    // 12-byte tree nodes and 28-byte instructions.
    ModelStore store;
    const Model& model = store.GetOrGenerate(0, 42);
    const Time expected[kPipelineStageCount] = {
        8'071'904,  21'239'243, 21'236'993, 5'608'043,
        28'929'502, 29'226'493, 29'125'246, 0};
    for (int s = 0; s < kPipelineStageCount; ++s) {
        const auto stage = static_cast<PipelineStage>(s);
        EXPECT_EQ(store.StageReloadTime(model, stage), expected[s])
            << ToString(stage);
    }
    EXPECT_EQ(model.ReloadBytes(PipelineStage::kScoring0),
              model.ensemble().shard(0).total_nodes() * 8);
    EXPECT_EQ(store.PipelineReloadTime(model), 31'226'493);
}

TEST(ModelStore, StageReloadScalesWithFootprint) {
    ModelStore store;
    const Model& model = store.GetOrGenerate(0, 42);
    // Scoring shards carry the largest memories (Table 1 RAM 88-90%).
    EXPECT_GE(store.StageReloadTime(model, PipelineStage::kScoring0),
              store.StageReloadTime(model, PipelineStage::kCompression));
    EXPECT_EQ(store.StageReloadTime(model, PipelineStage::kSpare), 0);
}

// More metafeatures than slots aborts in every build: in release the
// slots would wrap, a later producer would overwrite an earlier one, and
// FPGA and reference scores would part silently.
TEST(ModelDeathTest, RejectsExhaustedMetafeatureSlots) {
    Model::Config config;
    config.compiler.split_threshold_ops = 16;
    config.compiler.split_chunk_ops = 8;
    EXPECT_DEATH(Model::Generate(0, 1, config),
                 "Model::Generate: model 0 needs [0-9]+ metafeatures, more "
                 "than the 4096 slots \\(kMetaFeatureSlots\\)");
}

TEST(PipelineStage, Names) {
    EXPECT_STREQ(ToString(PipelineStage::kFeatureExtraction), "FE");
    EXPECT_STREQ(ToString(PipelineStage::kSpare), "Spare");
    EXPECT_EQ(kPipelineStageCount, 8);
}

}  // namespace
}  // namespace catapult::rank
