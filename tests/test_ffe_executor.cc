// The level-scheduled FFE executor, differentially tested against the
// sequential interpreter it replaced.
//
// SequentialInterpreter below is a test-local copy of that interpreter:
// one decoded op stream for the whole partition, run program after
// program in load order, each result written to the FST before the next
// program starts (the way test_sl3_transmitter.cc keeps its two-event
// link). Its arithmetic goes through the same ffe:: helpers, so the
// executor must match it bit for bit, NaN payloads included. Each seed
// builds one random partition over a small pool of FST slots, so that
// later programs read slots earlier ones wrote (forwarding chains), two
// programs write one slot, and a slot is read before a later program
// writes it; programs may be empty or a lone load, and operands come
// from the edge values of every op's semantics. The whole FST is
// compared with memcmp, and a mismatch names its seed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rank/document_generator.h"
#include "rank/ffe/compiler.h"
#include "rank/ffe/processor.h"
#include "rank/model.h"
#include "rank/software_ranker.h"

namespace catapult::rank::ffe {
namespace {

/** The sequential interpreter the executor replaced. */
class SequentialInterpreter {
  public:
    explicit SequentialInterpreter(const std::vector<Program>& programs) {
        for (const Program& program : programs) Append(program);
        registers_.assign(max_registers_, 0.0f);
    }

    void Run(FeatureStore& store) {
        const float* const banks[] = {registers_.data(), store.raw().data(),
                                      constants_.data()};
        const auto read = [&banks](std::uint32_t ref) {
            return banks[ref >> kBankShift][ref & kIndexMask];
        };
        for (const DecodedOp& op : ops_) {
            const float a = read(op.a);
            const float b = read(op.b);
            const float c = read(op.c);
            float value = 0.0f;
            switch (op.code) {
              case kWriteOutput:
                store.Set(op.dst, a);
                continue;
              case static_cast<std::uint32_t>(OpCode::kAdd): value = Add(a, b); break;
              case static_cast<std::uint32_t>(OpCode::kSub): value = Sub(a, b); break;
              case static_cast<std::uint32_t>(OpCode::kMul): value = Mul(a, b); break;
              case static_cast<std::uint32_t>(OpCode::kMax): value = Blend(Mask(a > b), a, b); break;
              case static_cast<std::uint32_t>(OpCode::kMin): value = Blend(Mask(a < b), a, b); break;
              case static_cast<std::uint32_t>(OpCode::kCmpGt): value = Blend(Mask(a > b), 1.0f, 0.0f); break;
              case static_cast<std::uint32_t>(OpCode::kSelect): value = Blend(Mask(a != 0.0f), b, c); break;
              case static_cast<std::uint32_t>(OpCode::kDiv): value = Div(a, b); break;
              case static_cast<std::uint32_t>(OpCode::kLn): value = Ln(a); break;
              case static_cast<std::uint32_t>(OpCode::kExp): value = Exp(a); break;
              default: value = FloatToInt(a); break;
            }
            registers_[op.dst] = value;
        }
    }

  private:
    // An operand reference: bank in the top two bits, index below.
    static constexpr std::uint32_t kBankShift = 30;
    static constexpr std::uint32_t kIndexMask = (1u << kBankShift) - 1;
    static constexpr std::uint32_t kRegisterBank = 0;
    static constexpr std::uint32_t kFeatureBank = 1;
    static constexpr std::uint32_t kConstantBank = 2;
    static constexpr std::uint32_t kWriteOutput =
        static_cast<std::uint32_t>(OpCode::kLoadConst) + 1;

    struct DecodedOp {
        std::uint32_t code = 0;
        std::uint32_t dst = 0;  ///< Register; the FST slot for an output write.
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::uint32_t c = 0;
    };

    static constexpr std::uint32_t Ref(std::uint32_t bank, std::uint32_t index) {
        return bank << kBankShift | index;
    }
    static constexpr std::uint32_t Mask(bool p) {
        return 0u - static_cast<std::uint32_t>(p);
    }
    static constexpr float Blend(std::uint32_t mask, float if_set, float if_clear) {
        return std::bit_cast<float>((std::bit_cast<std::uint32_t>(if_set) & mask) |
                                    (std::bit_cast<std::uint32_t>(if_clear) & ~mask));
    }

    void Append(const Program& program) {
        std::vector<std::uint32_t> refs(program.register_count, 0);
        std::uint32_t result = Ref(kConstantBank, 0);  // an empty program yields 0
        std::uint32_t registers = 0;
        for (const Instruction& instr : program.instructions) {
            std::uint32_t ref;
            if (instr.op == OpCode::kLoadConst) {
                ref = Ref(kConstantBank, static_cast<std::uint32_t>(constants_.size()));
                constants_.push_back(instr.constant);
            } else if (instr.op == OpCode::kLoadFeature) {
                ref = Ref(kFeatureBank, instr.feature);
            } else {
                DecodedOp op;
                op.code = static_cast<std::uint32_t>(instr.op);
                op.dst = registers;
                op.a = refs[instr.src_a];
                op.b = instr.op == OpCode::kLn || instr.op == OpCode::kExp ||
                               instr.op == OpCode::kFloatToInt
                           ? op.a
                           : refs[instr.src_b];
                op.c = instr.op == OpCode::kSelect ? refs[instr.src_c] : op.b;
                ops_.push_back(op);
                ref = Ref(kRegisterBank, registers++);
            }
            refs[instr.dst] = ref;
            result = ref;
        }
        max_registers_ = std::max(max_registers_, registers);
        DecodedOp write;
        write.code = kWriteOutput;
        write.dst = program.output_slot;
        write.a = write.b = write.c = result;
        ops_.push_back(write);
    }

    std::vector<float> constants_ = {0.0f};
    std::vector<DecodedOp> ops_;
    std::uint32_t max_registers_ = 1;
    std::vector<float> registers_;
};

/** Operand values at the edges of every op's semantics, plus NaNs with
 *  distinct payloads (one signalling) so NaN propagation shows. */
std::vector<float> EdgeValues() {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    return {nan,    -nan,  0.0f,  -0.0f, inf,   -inf,  1.0f,
            -2.5f,  1e-31f, -1.0f, 60.5f, -61.0f, 3.0f,
            std::bit_cast<float>(0x7FC0'0123u), std::bit_cast<float>(0x7F80'0001u)};
}

/** FST slots the random partitions read and write. */
constexpr std::uint32_t kSlots[] = {
    0, 7, 4'483, kSoftwareFeatureBase + 3, kMetaFeatureBase,
    kMetaFeatureBase + 1, kMetaFeatureBase + 9, kFfeOutputBase,
    kFfeOutputBase + 5, kFeatureUniverse - 1};
constexpr std::size_t kSlotCount = sizeof(kSlots) / sizeof(kSlots[0]);

/** What one random partition exercises. */
struct Coverage {
    int forwarded = 0;           ///< Loads of a slot an earlier program wrote.
    int double_writes = 0;       ///< Programs writing a slot already written.
    int read_before_write = 0;   ///< Slots read, then written by a later program.
    int empty = 0;
    int load_only = 0;
};

/** One random partition of 1-12 programs over the kSlots pool. */
std::vector<Program> RandomPartition(Rng& rng, Coverage& coverage) {
    const std::vector<float> edges = EdgeValues();
    const auto constant = [&] {
        return rng.Chance(0.5)
                   ? edges[rng.NextBounded(edges.size())]
                   : static_cast<float>(rng.Uniform(-4.0, 4.0));
    };
    bool written[kSlotCount] = {};
    bool read[kSlotCount] = {};
    const auto load = [&](Program& program) {
        Instruction instr;
        instr.dst = program.register_count++;
        if (rng.Chance(0.3)) {
            instr.op = OpCode::kLoadConst;
            instr.constant = constant();
        } else {
            const std::size_t s = rng.NextBounded(kSlotCount);
            instr.op = OpCode::kLoadFeature;
            instr.feature = kSlots[s];
            if (written[s]) ++coverage.forwarded;
            read[s] = true;
        }
        program.instructions.push_back(instr);
    };
    std::vector<Program> programs(1 + rng.NextBounded(12));
    for (Program& program : programs) {
        const std::size_t out = rng.NextBounded(kSlotCount);
        program.output_slot = kSlots[out];
        const double shape = rng.NextDouble();
        if (shape < 0.08) {
            ++coverage.empty;
        } else if (shape < 0.18) {
            ++coverage.load_only;
            load(program);
        } else {
            // SSA in post-order: each op reads registers written before it.
            const int length = 1 + static_cast<int>(rng.NextBounded(40));
            for (int k = 0; k < length; ++k) {
                if (program.register_count == 0 || rng.Chance(0.35)) {
                    load(program);
                    continue;
                }
                Instruction instr;
                instr.op = static_cast<OpCode>(
                    rng.NextBounded(static_cast<std::uint64_t>(OpCode::kLoadFeature)));
                const auto earlier = [&] {
                    return static_cast<std::uint32_t>(
                        rng.NextBounded(program.register_count));
                };
                instr.src_a = earlier();
                instr.src_b = earlier();
                instr.src_c = earlier();
                instr.dst = program.register_count++;
                program.instructions.push_back(instr);
            }
        }
        if (written[out]) ++coverage.double_writes;
        if (read[out] && !written[out]) ++coverage.read_before_write;
        written[out] = true;
    }
    return programs;
}

TEST(FfeExecutor, MatchesTheSequentialInterpreterOnRandomPartitions) {
    const std::vector<float> edges = EdgeValues();
    Coverage coverage;
    // One value array for every seed: it must carry nothing between runs.
    std::vector<float> values;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        Rng rng(seed);
        const std::vector<Program> programs = RandomPartition(rng, coverage);
        FeatureStore input;
        for (const std::uint32_t slot : kSlots) {
            input.Set(slot, rng.Chance(0.5)
                                ? edges[rng.NextBounded(edges.size())]
                                : static_cast<float>(rng.Uniform(-100.0, 100.0)));
        }
        FeatureStore expected = input;
        SequentialInterpreter(programs).Run(expected);
        FeatureStore actual = input;
        FfeProcessor::Run(FfeProcessor::Partition(programs), actual, values);
        ASSERT_EQ(std::memcmp(actual.raw().data(), expected.raw().data(),
                              kFeatureUniverse * sizeof(float)),
                  0)
            << "seed " << seed;
    }
    EXPECT_GT(coverage.forwarded, 100);
    EXPECT_GT(coverage.double_writes, 100);
    EXPECT_GT(coverage.read_before_write, 100);
    EXPECT_GT(coverage.empty, 50);
    EXPECT_GT(coverage.load_only, 50);
}

TEST(FfeExecutor, ForwardsEarlierResultsAndLetsTheLastWriterWin) {
    // Program 0 writes slot s; program 1 reads s (forwarded), program 2
    // reads t before program 3 writes it (incoming value), and programs
    // 3 and 4 both write t (the last one wins).
    const std::uint32_t s = kMetaFeatureBase;
    const std::uint32_t t = kMetaFeatureBase + 1;
    const FfeCompiler compiler;
    std::vector<Program> programs;
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kAdd, MakeFeature(1), MakeConst(1.0f)), s));
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kMul, MakeFeature(s), MakeConst(3.0f)), kFfeOutputBase));
    programs.push_back(compiler.Compile(*MakeFeature(t), kFfeOutputBase + 1));
    programs.push_back(compiler.Compile(*MakeConst(7.0f), t));
    programs.push_back(compiler.Compile(
        *MakeBinary(OpCode::kSub, MakeFeature(s), MakeFeature(t)), t));
    FeatureStore store;
    store.Set(1, 2.0f);
    store.Set(s, 100.0f);
    store.Set(t, 50.0f);
    const FfeProcessor::Partition partition(programs);
    EXPECT_EQ(partition.forwarded_loads(), 3u);
    std::vector<float> values;
    FfeProcessor::Run(partition, store, values);
    EXPECT_EQ(store.Get(s), 3.0f);
    EXPECT_EQ(store.Get(kFfeOutputBase), 9.0f);
    EXPECT_EQ(store.Get(kFfeOutputBase + 1), 50.0f);
    EXPECT_EQ(store.Get(t), 3.0f - 7.0f);
}

TEST(FfeExecutor, EmptyProgramWritesZero) {
    std::vector<Program> programs(1);
    programs[0].output_slot = kFfeOutputBase;
    FeatureStore store;
    store.Set(kFfeOutputBase, 5.0f);
    std::vector<float> values;
    FfeProcessor::Run(FfeProcessor::Partition(programs), store, values);
    EXPECT_EQ(store.Get(kFfeOutputBase), 0.0f);
}

TEST(FfeExecutor, LevelsCountTheLongestDependencyChain) {
    // ((f0 + f1) * f2) - (f3 / f4): three levels; four opcode groups.
    const FfeCompiler compiler;
    auto expr = MakeBinary(
        OpCode::kSub,
        MakeBinary(OpCode::kMul, MakeBinary(OpCode::kAdd, MakeFeature(0), MakeFeature(1)),
                   MakeFeature(2)),
        MakeBinary(OpCode::kDiv, MakeFeature(3), MakeFeature(4)));
    const std::vector<Program> programs = {compiler.Compile(*expr, kFfeOutputBase)};
    const FfeProcessor::Partition partition(programs);
    EXPECT_EQ(partition.level_count(), 3);
    EXPECT_EQ(partition.group_count(), 4u);
    // Four ops, the zero constant, and five gathered features.
    EXPECT_EQ(partition.value_count(), 4u + 1u + 5u);
}

TEST(FfeArithmetic, NaNResultsDoNotDependOnOperandOrder) {
    const float a = std::bit_cast<float>(0x7FC0'0123u);
    const float b = std::bit_cast<float>(0xFFC0'0456u);
    const float signalling = std::bit_cast<float>(0x7F80'0001u);
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (const auto op : {&Add, &Sub, &Mul, &Div}) {
        EXPECT_EQ(bits(op(a, b)), 0x7FC0'0123u);
        EXPECT_EQ(bits(op(b, a)), 0xFFC0'0456u);
        EXPECT_EQ(bits(op(2.0f, b)), 0xFFC0'0456u);
        // A signalling NaN comes out quieted.
        EXPECT_EQ(bits(op(signalling, 1.0f)), 0x7FC0'0001u);
    }
    // No NaN operand: the operation's own (default) NaN, as computed at
    // run time.
    volatile float inf = std::numeric_limits<float>::infinity();
    volatile float zero = 0.0f;
    const float default_nan = inf - inf;
    EXPECT_EQ(bits(Sub(inf, inf)), bits(default_nan));
    EXPECT_EQ(bits(Mul(zero, inf)), bits(default_nan));
    // Division by zero saturates to 0, even for a NaN dividend.
    EXPECT_EQ(bits(Div(a, 0.0f)), 0u);
}

/** FNV-1a over the whole FST. */
void MixStore(std::uint64_t& hash, const FeatureStore& store) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(store.raw().data());
    for (std::size_t i = 0; i < store.raw().size() * sizeof(float); ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
}

TEST(FfeExecutor, GoldenStoresOverEightModels) {
    // The FST after FFE0 then FFE1, for the first 16 documents of two
    // corpora through each of models 0-7 (seed 7), hashed whole. Pinned
    // from the sequential interpreter the executor replaced.
    ModelStore models;
    std::vector<std::unique_ptr<RankingFunction>> functions;
    for (std::uint32_t m = 0; m < 8; ++m) {
        functions.push_back(
            std::make_unique<RankingFunction>(&models.GetOrGenerate(m, 7)));
    }
    DocumentGenerator::Config corpus;
    corpus.model_count = 8;
    const std::uint64_t golden[] = {0xce4ebc7be95c3ed9ull, 0x8490c292e157ca03ull};
    const std::uint64_t corpus_seeds[] = {1, 13};
    for (int c = 0; c < 2; ++c) {
        DocumentGenerator generator(corpus_seeds[c], corpus);
        std::uint64_t hash = 1469598103934665603ull;
        for (int doc = 0; doc < 16; ++doc) {
            const CompressedRequest request = generator.Next();
            for (const auto& function : functions) {
                FeatureStore store;
                function->ExtractFeatures(request, store);
                function->RunFfe0(store);
                function->RunFfe1(store);
                MixStore(hash, store);
            }
        }
        EXPECT_EQ(hash, golden[c])
            << "corpus seed " << corpus_seeds[c] << ": 0x" << std::hex << hash;
    }
}

Model::Config SmallModel() {
    Model::Config config;
    config.expression_count = 150;
    config.tree_count = 30;
    return config;
}

TEST(FfeExecutor, RankingFunctionsShareOneDecodePerModel) {
    const auto model = Model::Generate(0, 5, SmallModel());
    RankingFunction first(model.get());
    RankingFunction second(model.get());
    // Generation prices the FFE stages but decodes nothing.
    EXPECT_EQ(model->decoded_partitions(), 0);
    EXPECT_GT(model->ffe0_service_time(), 0);
    EXPECT_GT(model->ffe1_service_time(), 0);

    DocumentGenerator generator(5);
    const CompressedRequest request = generator.Next();
    FeatureStore one;
    first.ExtractFeatures(request, one);
    FeatureStore two = one;
    first.RunFfe0(one);
    EXPECT_EQ(model->decoded_partitions(), 1);
    const FfeProcessor::Partition* ffe0 = &model->ffe0_partition();
    second.RunFfe0(two);
    EXPECT_EQ(model->decoded_partitions(), 1);
    EXPECT_EQ(&model->ffe0_partition(), ffe0);
    first.RunFfe1(one);
    second.RunFfe1(two);
    EXPECT_EQ(model->decoded_partitions(), 2);
    EXPECT_EQ(std::memcmp(one.raw().data(), two.raw().data(),
                          kFeatureUniverse * sizeof(float)),
              0);
}

TEST(FfeExecutor, ModelPricesEachPartitionAsALoadedProcessorDoes) {
    const auto model = Model::Generate(3, 11, SmallModel());
    FfeProcessor ffe0;
    ffe0.LoadPrograms(model->ffe0_programs());
    FfeProcessor ffe1;
    ffe1.LoadPrograms(model->ffe1_programs());
    EXPECT_EQ(model->ffe0_service_time(), ffe0.DocumentServiceTime());
    EXPECT_EQ(model->ffe1_service_time(), ffe1.DocumentServiceTime());
    EXPECT_EQ(model->decoded_partitions(), 0);
}

TEST(FfeExecutor, ConcurrentFirstRunsDecodeOnce) {
    const auto model = Model::Generate(0, 9, SmallModel());
    DocumentGenerator generator(9);
    const CompressedRequest request = generator.Next();
    constexpr int kThreads = 4;
    std::vector<FeatureStore> stores(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RankingFunction function(model.get());
            function.ExtractFeatures(request, stores[static_cast<std::size_t>(t)]);
            function.RunFfe0(stores[static_cast<std::size_t>(t)]);
            function.RunFfe1(stores[static_cast<std::size_t>(t)]);
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(model->decoded_partitions(), 2);
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(std::memcmp(stores[0].raw().data(),
                              stores[static_cast<std::size_t>(t)].raw().data(),
                              kFeatureUniverse * sizeof(float)),
                  0);
    }
}

TEST(FfeExecutor, ExecuteAllWithNothingLoadedWritesNothing) {
    FfeProcessor processor;
    FeatureStore store;
    store.Set(kFfeOutputBase, 2.0f);
    processor.ExecuteAll(store);
    EXPECT_EQ(store.NonZeroCount(), 1u);
    EXPECT_EQ(store.Get(kFfeOutputBase), 2.0f);
}

// A malformed program aborts in every build: in release it would read
// or write past the FST, or read a register nothing wrote.
TEST(FfeExecutorDeathTest, RejectsAnOperandNoEarlierInstructionWrote) {
    std::vector<Program> programs(2);
    programs[1].register_count = 2;
    programs[1].instructions.resize(2);
    programs[1].instructions[0].op = OpCode::kLoadConst;
    programs[1].instructions[1].op = OpCode::kAdd;
    programs[1].instructions[1].dst = 1;
    programs[1].instructions[1].src_a = 0;
    programs[1].instructions[1].src_b = 1;  // itself
    EXPECT_DEATH(FfeProcessor::Partition{programs},
                 "FfeProcessor: program 1 instruction 1 reads register 1, "
                 "which no earlier instruction of the program writes");
}

TEST(FfeExecutorDeathTest, RejectsSlotsOutsideTheStore) {
    const FfeCompiler compiler;
    const std::vector<Program> reads = {
        compiler.Compile(*MakeFeature(kFeatureUniverse), kFfeOutputBase)};
    EXPECT_DEATH(FfeProcessor::Partition{reads},
                 "FfeProcessor: program 0 instruction 0 loads feature 13700, "
                 "outside the 13700-slot FST");
    const std::vector<Program> writes = {
        compiler.Compile(*MakeFeature(1), kFfeOutputBase),
        compiler.Compile(*MakeConst(1.0f), kFeatureUniverse + 2)};
    EXPECT_DEATH(FfeProcessor::Partition{writes},
                 "FfeProcessor: program 1 writes slot 13702, outside the "
                 "13700-slot FST");
}

}  // namespace
}  // namespace catapult::rank::ffe
