// Unit + property tests for the FFE stack: expressions, compiler,
// metafeature splitting, thread assignment, and processor timing (§4.5).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "rank/document_generator.h"
#include "rank/ffe/compiler.h"
#include "rank/ffe/expression.h"
#include "rank/ffe/processor.h"
#include "rank/model.h"
#include "rank/software_ranker.h"

namespace catapult::rank::ffe {
namespace {

FeatureStore MakeStore() {
    FeatureStore store;
    for (std::uint32_t i = 0; i < kDynamicFeatureCount; i += 3) {
        store.Set(i, static_cast<float>(i % 17) * 0.25f);
    }
    return store;
}

TEST(Expression, LeafEvaluation) {
    FeatureStore store;
    store.Set(5, 3.5f);
    EXPECT_EQ(MakeConst(2.0f)->Evaluate(store), 2.0f);
    EXPECT_EQ(MakeFeature(5)->Evaluate(store), 3.5f);
}

TEST(Expression, ArithmeticOps) {
    FeatureStore store;
    auto two = [] { return MakeConst(2.0f); };
    auto three = [] { return MakeConst(3.0f); };
    EXPECT_EQ(MakeBinary(OpCode::kAdd, two(), three())->Evaluate(store), 5.0f);
    EXPECT_EQ(MakeBinary(OpCode::kSub, two(), three())->Evaluate(store), -1.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMul, two(), three())->Evaluate(store), 6.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMax, two(), three())->Evaluate(store), 3.0f);
    EXPECT_EQ(MakeBinary(OpCode::kMin, two(), three())->Evaluate(store), 2.0f);
    EXPECT_EQ(MakeBinary(OpCode::kCmpGt, three(), two())->Evaluate(store), 1.0f);
    EXPECT_EQ(MakeBinary(OpCode::kCmpGt, two(), three())->Evaluate(store), 0.0f);
}

TEST(Expression, ComplexOps) {
    FeatureStore store;
    EXPECT_FLOAT_EQ(
        MakeBinary(OpCode::kDiv, MakeConst(7.0f), MakeConst(2.0f))
            ->Evaluate(store),
        3.5f);
    // Division by zero saturates to 0 (hardware behaviour).
    EXPECT_EQ(MakeBinary(OpCode::kDiv, MakeConst(7.0f), MakeConst(0.0f))
                  ->Evaluate(store),
              0.0f);
    EXPECT_FLOAT_EQ(MakeUnary(OpCode::kLn, MakeConst(std::exp(1.0f)))
                        ->Evaluate(store),
                    1.0f);
    EXPECT_FLOAT_EQ(MakeUnary(OpCode::kExp, MakeConst(0.0f))->Evaluate(store),
                    1.0f);
    EXPECT_EQ(MakeUnary(OpCode::kFloatToInt, MakeConst(2.9f))->Evaluate(store),
              2.0f);
    EXPECT_EQ(MakeUnary(OpCode::kFloatToInt, MakeConst(-2.9f))->Evaluate(store),
              -2.0f);
}

TEST(Expression, SelectEvaluatesAllThenMuxes) {
    FeatureStore store;
    auto select = MakeSelect(MakeConst(1.0f), MakeConst(10.0f),
                             MakeConst(20.0f));
    EXPECT_EQ(select->Evaluate(store), 10.0f);
    auto select2 = MakeSelect(MakeConst(0.0f), MakeConst(10.0f),
                              MakeConst(20.0f));
    EXPECT_EQ(select2->Evaluate(store), 20.0f);
}

TEST(Expression, OpCountAndComplexCount) {
    auto e = MakeBinary(OpCode::kAdd, MakeUnary(OpCode::kLn, MakeFeature(1)),
                        MakeConst(1.0f));
    EXPECT_EQ(e->OpCount(), 4);
    EXPECT_EQ(e->ComplexOpCount(), 1);
    EXPECT_EQ(e->Depth(), 3);
}

TEST(Expression, NodesArePostOrderWithSubtreeSizes) {
    // add(ln(f1), 1.0): operands first, root last.
    auto e = MakeBinary(OpCode::kAdd, MakeUnary(OpCode::kLn, MakeFeature(1)),
                        MakeConst(1.0f));
    const auto& nodes = e->nodes();
    ASSERT_EQ(nodes.size(), 4u);
    EXPECT_EQ(nodes[0].op, OpCode::kLoadFeature);
    EXPECT_EQ(nodes[0].feature, 1u);
    EXPECT_EQ(nodes[1].op, OpCode::kLn);
    EXPECT_EQ(nodes[2].op, OpCode::kLoadConst);
    EXPECT_EQ(nodes[2].constant, 1.0f);
    EXPECT_EQ(nodes[3].op, OpCode::kAdd);
    EXPECT_EQ(nodes[0].size, 1u);
    EXPECT_EQ(nodes[1].size, 2u);
    EXPECT_EQ(nodes[2].size, 1u);
    EXPECT_EQ(nodes[3].size, 4u);
    std::uint32_t operands[3];
    ASSERT_EQ(e->Operands(3, operands), 2);
    EXPECT_EQ(operands[0], 1u);
    EXPECT_EQ(operands[1], 2u);
    ASSERT_EQ(e->Operands(1, operands), 1);
    EXPECT_EQ(operands[0], 0u);

    // Detaching ln(f1) leaves add(f9, 1.0), with the root's size cut.
    const ExprPtr part = e->Detach(1, 9);
    ASSERT_EQ(part->OpCount(), 2);
    EXPECT_EQ(part->nodes()[1].op, OpCode::kLn);
    ASSERT_EQ(e->OpCount(), 3);
    EXPECT_EQ(nodes[0].op, OpCode::kLoadFeature);
    EXPECT_EQ(nodes[0].feature, 9u);
    EXPECT_EQ(nodes[2].op, OpCode::kAdd);
    EXPECT_EQ(nodes[2].size, 3u);
}

// Nodes that are not one tree in post-order abort in every build: the
// compiler would read operands outside the array.
TEST(ExpressionDeathTest, RejectsNodesThatAreNotOneTree) {
    EXPECT_DEATH(Expr({Expr::Node{OpCode::kAdd}}),
                 "Expr: node 0 \\(add\\) lacks an operand");
    EXPECT_DEATH(MakeUnary(OpCode::kMul, MakeConst(1.0f)),
                 "Expr: node 1 \\(mul\\) lacks an operand");
    EXPECT_DEATH(Expr({Expr::Node{}, Expr::Node{}}),
                 "Expr: 2 nodes are not one tree in post-order");
    EXPECT_DEATH(Expr({}), "Expr: 0 nodes are not one tree in post-order");
}

TEST(Expression, CloneIsDeepAndEqual) {
    ExpressionGenerator generator(3);
    const ExprPtr original = generator.Generate();
    const ExprPtr copy = original->Clone();
    const FeatureStore store = MakeStore();
    EXPECT_EQ(original->Evaluate(store), copy->Evaluate(store));
    EXPECT_EQ(original->OpCount(), copy->OpCount());
}

TEST(ExpressionGenerator, SizesSpanSmallToLarge) {
    // §4.5: FFEs range "from very simple ... to large and complex
    // (thousands of operations)".
    ExpressionGenerator generator(11);
    int small = 0, large = 0;
    for (int i = 0; i < 3'000; ++i) {
        const int ops = generator.Generate()->OpCount();
        if (ops <= 50) ++small;
        if (ops >= 500) ++large;
    }
    EXPECT_GT(small, 2'000);
    EXPECT_GT(large, 5);
}

TEST(ExpressionGenerator, TargetSizeApproximate) {
    ExpressionGenerator generator(13);
    const ExprPtr e = generator.GenerateWithSize(200);
    EXPECT_GT(e->OpCount(), 100);
    EXPECT_LE(e->OpCount(), 300);  // budget is approximate by design
}

TEST(Compiler, InterpreterMatchesAstExactly) {
    // The load-bearing §4 property: compiled-program execution equals
    // direct AST evaluation bit-for-bit, across many random expressions.
    ExpressionGenerator generator(17);
    FfeCompiler compiler;
    const FeatureStore store = MakeStore();
    for (int i = 0; i < 300; ++i) {
        const ExprPtr expr = generator.Generate();
        const Program program = compiler.Compile(*expr, kFfeOutputBase);
        const float direct = expr->Evaluate(store);
        const float interpreted = FfeProcessor::Execute(program, store);
        EXPECT_EQ(direct, interpreted) << "expression " << i;
    }
}

TEST(Compiler, ProgramMetadata) {
    FfeCompiler compiler;
    auto e = MakeBinary(OpCode::kAdd, MakeUnary(OpCode::kLn, MakeFeature(1)),
                        MakeConst(1.0f));
    const Program p = compiler.Compile(*e, 42);
    EXPECT_EQ(p.output_slot, 42u);
    EXPECT_EQ(p.InstructionCount(), 4);
    EXPECT_EQ(p.complex_ops, 1);
    // Critical path: ldf(2) + ln(24) + add(4) = 30.
    EXPECT_EQ(p.serial_latency, 30);
}

TEST(Compiler, SplitPreservesSemantics) {
    // §4.5: oversized expressions split across FPGAs via metafeatures;
    // upstream parts + rewritten remainder must equal the original.
    ExpressionGenerator generator(19);
    FfeCompiler::Config config;
    config.split_threshold_ops = 64;
    config.split_chunk_ops = 32;
    FfeCompiler compiler(config);
    FeatureStore store = MakeStore();

    for (int i = 0; i < 20; ++i) {
        const ExprPtr original = generator.GenerateWithSize(400);
        const float expected = original->Evaluate(store);

        ExprPtr work = original->Clone();
        std::uint32_t next_slot = 0;
        const auto parts = compiler.SplitForMetafeatures(*work, next_slot);
        EXPECT_FALSE(parts.empty());
        EXPECT_LE(work->OpCount(), config.split_threshold_ops + 1);

        // Evaluate upstream parts into their metafeature slots, then the
        // remainder.
        FeatureStore staged = store;
        for (const auto& part : parts) {
            staged.Set(part.slot, part.expr->Evaluate(staged));
        }
        EXPECT_EQ(work->Evaluate(staged), expected) << "expression " << i;
    }
}

TEST(Compiler, SmallExpressionsNotSplit) {
    FfeCompiler compiler;
    ExpressionGenerator generator(23);
    ExprPtr small = generator.GenerateWithSize(20);
    std::uint32_t next_slot = 0;
    const auto parts = compiler.SplitForMetafeatures(*small, next_slot);
    EXPECT_TRUE(parts.empty());
    EXPECT_EQ(next_slot, 0u);
}

TEST(ThreadAssignment, LongestFirstSlotZero) {
    // §4.5: "The assembler maps the expressions with the longest
    // expected latency to Thread Slot 0 on all cores, then fills in
    // Slot 1 ..."
    std::vector<Program> programs(8);
    for (int i = 0; i < 8; ++i) {
        programs[static_cast<std::size_t>(i)].serial_latency = 100 - i * 10;
    }
    const ThreadAssignment assignment = AssignThreads(programs, 2, 4);
    // Slot 0 on cores 0,1 get programs 0,1 (longest), slot 1 gets 2,3...
    EXPECT_EQ(assignment.thread_queues[0][0], (std::vector<int>{0}));
    EXPECT_EQ(assignment.thread_queues[1][0], (std::vector<int>{1}));
    EXPECT_EQ(assignment.thread_queues[0][1], (std::vector<int>{2}));
    EXPECT_EQ(assignment.thread_queues[1][3], (std::vector<int>{7}));
}

TEST(ThreadAssignment, OverflowAppendsRoundRobin) {
    std::vector<Program> programs(10);
    for (int i = 0; i < 10; ++i) {
        programs[static_cast<std::size_t>(i)].serial_latency = 1000 - i;
    }
    const ThreadAssignment assignment = AssignThreads(programs, 2, 4);
    // 8 slots; programs 8 and 9 append back at slot 0.
    EXPECT_EQ(assignment.thread_queues[0][0], (std::vector<int>{0, 8}));
    EXPECT_EQ(assignment.thread_queues[1][0], (std::vector<int>{1, 9}));
}

TEST(ThreadAssignment, AllProgramsAssignedExactlyOnce) {
    ExpressionGenerator generator(29);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 500; ++i) {
        programs.push_back(
            compiler.Compile(*generator.Generate(), kFfeOutputBase));
    }
    const ThreadAssignment assignment = AssignThreads(programs, 60, 4);
    std::vector<int> seen(programs.size(), 0);
    for (const auto& core : assignment.thread_queues) {
        for (const auto& slot : core) {
            for (int index : slot) ++seen[static_cast<std::size_t>(index)];
        }
    }
    for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(FfeProcessor, SixtyCoresFourThreadsSixPerCluster) {
    const FfeProcessor processor;
    EXPECT_EQ(processor.config().core_count, 60);       // §4.5
    EXPECT_EQ(processor.config().threads_per_core, 4);  // §4.5
    EXPECT_EQ(processor.config().cores_per_cluster, 6); // §4.5
}

TEST(FfeProcessor, ExecuteAllWritesOutputSlots) {
    ExpressionGenerator generator(31);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 50; ++i) {
        programs.push_back(compiler.Compile(
            *generator.Generate(), kFfeOutputBase + static_cast<std::uint32_t>(i)));
    }
    FfeProcessor processor;
    processor.LoadPrograms(programs);
    FeatureStore store = MakeStore();
    processor.ExecuteAll(store);
    int non_zero = 0;
    for (int i = 0; i < 50; ++i) {
        if (store.Get(kFfeOutputBase + static_cast<std::uint32_t>(i)) != 0.0f) {
            ++non_zero;
        }
    }
    EXPECT_GT(non_zero, 10);
}

/** Operand values at the edges of every op's semantics. */
std::vector<float> EdgeValues() {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    return {nan,   -nan,  0.0f,  -0.0f, inf,   -inf,  1.0f,
            -2.5f, 1e-31f, -1.0f, 60.5f, -61.0f, 3.0f};
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(FfeProcessor, EdgeOperandsMatchAstBitForBit) {
    // NaN (either sign), signed zeros and infinities through every op,
    // including division by zero, ln of values <= 0 and exp beyond the
    // +-60 clamp. EXPECT_EQ would fail on NaN and equate -0 with +0, so
    // results are compared bit for bit.
    const std::vector<float> values = EdgeValues();
    const auto n = static_cast<std::uint32_t>(values.size());
    FeatureStore store;
    for (std::uint32_t i = 0; i < n; ++i) store.Set(i, values[i]);
    // Operands rotate over the evaluator's three sources: a feature
    // load, a constant, and a register (x + -0.0f is x, bit for bit).
    const auto operand = [&values](std::uint32_t i, std::uint32_t form) {
        switch (form % 3) {
          case 0: return MakeFeature(i);
          case 1: return MakeConst(values[i]);
          default:
            return MakeBinary(OpCode::kAdd, MakeFeature(i), MakeConst(-0.0f));
        }
    };
    std::vector<ExprPtr> exprs;
    for (const OpCode op : {OpCode::kAdd, OpCode::kSub, OpCode::kMul,
                            OpCode::kMax, OpCode::kMin, OpCode::kCmpGt,
                            OpCode::kDiv}) {
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t j = 0; j < n; ++j) {
                const auto form = static_cast<std::uint32_t>(op) + i;
                exprs.push_back(
                    MakeBinary(op, operand(i, form), operand(j, form + j)));
            }
        }
    }
    for (const OpCode op : {OpCode::kLn, OpCode::kExp, OpCode::kFloatToInt}) {
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t form = 0; form < 3; ++form) {
                exprs.push_back(MakeUnary(op, operand(i, form)));
            }
        }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            for (std::uint32_t k = 0; k < n; ++k) {
                exprs.push_back(MakeSelect(operand(i, j), operand(j, k),
                                           operand(k, i)));
            }
        }
    }
    ASSERT_LE(exprs.size(), kFfeOutputSlots);

    FfeCompiler compiler;
    std::vector<Program> programs;
    for (std::size_t e = 0; e < exprs.size(); ++e) {
        programs.push_back(compiler.Compile(
            *exprs[e], kFfeOutputBase + static_cast<std::uint32_t>(e)));
    }
    FfeProcessor processor;
    processor.LoadPrograms(programs);
    FeatureStore out = store;
    processor.ExecuteAll(out);
    for (std::size_t e = 0; e < exprs.size(); ++e) {
        const float expected = exprs[e]->Evaluate(store);
        EXPECT_TRUE(SameBits(out.Get(kFfeOutputBase + static_cast<std::uint32_t>(e)),
                             expected))
            << ToString(exprs[e]->nodes().back().op) << " expression " << e;
        EXPECT_TRUE(SameBits(FfeProcessor::Execute(programs[e], store), expected))
            << ToString(exprs[e]->nodes().back().op) << " expression " << e;
    }
}

TEST(FfeProcessor, PartitionsWriteTheStagedAstStore) {
    // FFE0 then FFE1 must leave the whole FST byte-identical to
    // evaluating the split AST parts in order — metafeature slots and
    // FFE outputs no tree reads included, which a score comparison
    // cannot see.
    Model::Config config;
    config.expression_count = 240;
    config.tree_count = 30;
    config.expressions.small_probability = 0.5;  // more split expressions
    const FfeCompiler compiler(config.compiler);
    for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
        const auto model = Model::Generate(0, seed, config);
        ASSERT_GT(model->metafeature_count(), 0);
        // The staged reference: each expression split as Model::Generate
        // splits it, producer parts first, writing the same slots.
        std::vector<std::pair<std::uint32_t, ExprPtr>> staged_parts;
        std::uint32_t next_meta_slot = 0;
        const auto& expressions = model->expressions();
        for (std::size_t i = 0; i < expressions.size(); ++i) {
            ExprPtr work = expressions[i]->Clone();
            for (auto& part : compiler.SplitForMetafeatures(*work, next_meta_slot)) {
                staged_parts.emplace_back(part.slot, std::move(part.expr));
            }
            staged_parts.emplace_back(
                kFfeOutputBase + static_cast<std::uint32_t>(i) % kFfeOutputSlots,
                std::move(work));
        }

        RankingFunction function(model.get());
        DocumentGenerator generator(seed);
        for (int doc = 0; doc < 32; ++doc) {
            const CompressedRequest request = generator.Next();
            FeatureStore compiled;
            function.ExtractFeatures(request, compiled);
            FeatureStore staged = compiled;
            function.RunFfe0(compiled);
            function.RunFfe1(compiled);
            for (const auto& [slot, expr] : staged_parts) {
                staged.Set(slot, expr->Evaluate(staged));
            }
            EXPECT_EQ(std::memcmp(compiled.raw().data(), staged.raw().data(),
                                  kFeatureUniverse * sizeof(float)),
                      0)
                << "seed " << seed << " doc " << doc;
        }
    }
}

/** FNV-1a over 64-bit words, byte by byte. */
struct Fnv {
    std::uint64_t hash = 1469598103934665603ull;
    void Add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xFF;
            hash *= 1099511628211ull;
        }
    }
    void AddFloat(float f) { Add(std::bit_cast<std::uint32_t>(f)); }
    void AddProgram(const Program& program) {
        Add(program.instructions.size());
        for (const Instruction& instr : program.instructions) {
            Add(static_cast<std::uint64_t>(instr.op));
            Add(instr.dst);
            Add(instr.src_a);
            Add(instr.src_b);
            Add(instr.src_c);
            AddFloat(instr.constant);
            Add(instr.feature);
        }
        Add(program.output_slot);
        Add(program.register_count);
        Add(static_cast<std::uint64_t>(program.complex_ops));
        Add(static_cast<std::uint64_t>(program.serial_latency));
    }
};

TEST(ModelGeneration, GoldenModels) {
    // Models 0-7 under the default config at perfbench's model seeds for
    // --seed 1 and 7 (Seeds(seed).models), hashed whole: every FFE0 and
    // FFE1 program, the metafeature and op totals, the reference
    // expressions' nodes in post-order (which compiling lists as
    // instructions) and every scorer shard's flat nodes. Pinned from the
    // generator that built each expression as a tree of heap nodes.
    const std::uint64_t model_seeds[] = {0xf893a2eefb32555eull,
                                         0xe6984080bab12a02ull};
    const std::uint64_t golden[2][8] = {
        {0x57df2eae81781b6aull, 0xe4c6e5ac6febbac6ull, 0x032a2febceebdf0cull,
         0x5a0c9754b6903263ull, 0xc67259789643905full, 0xf78020b5dfc356ddull,
         0xf1b4e76aa28c874full, 0x6a8fde898e4000deull},
        {0x741cdc33a74c2b1full, 0x2239d3174aaaa3eaull, 0xca17d834eaf0f773ull,
         0x49f88893166f98b5ull, 0x14683844957c6437ull, 0x72b25c8220690635ull,
         0x19e1ca46acc5327aull, 0x3413db46b18bc84full},
    };
    const FfeCompiler compiler(ModelStore::Config().model.compiler);
    for (int s = 0; s < 2; ++s) {
        ModelStore models;  // a store holds one model per id
        for (std::uint32_t m = 0; m < 8; ++m) {
            const Model& model = models.GetOrGenerate(m, model_seeds[s]);
            Fnv fnv;
            for (const auto* partition :
                 {&model.ffe0_programs(), &model.ffe1_programs()}) {
                fnv.Add(partition->size());
                for (const Program& program : *partition) fnv.AddProgram(program);
            }
            fnv.Add(static_cast<std::uint64_t>(model.metafeature_count()));
            fnv.Add(static_cast<std::uint64_t>(model.total_ffe_ops()));
            fnv.Add(model.expressions().size());
            for (const ExprPtr& expr : model.expressions()) {
                fnv.AddProgram(compiler.Compile(*expr, 0));
            }
            for (int shard = 0; shard < ScoringEnsemble::kShardCount; ++shard) {
                const ScorerShard& scorer = model.ensemble().shard(shard);
                fnv.Add(static_cast<std::uint64_t>(scorer.tree_count()));
                fnv.Add(scorer.nodes().size());
                for (const ScorerShard::FlatNode& node : scorer.nodes()) {
                    fnv.Add(node.feature);
                    fnv.AddFloat(node.value);
                    fnv.Add(node.right);
                }
            }
            EXPECT_EQ(fnv.hash, golden[s][m])
                << "model seed 0x" << std::hex << model_seeds[s] << std::dec
                << " model " << m << ": 0x" << std::hex << fnv.hash;
        }
    }
}

TEST(FfeProcessor, TimingBoundsAreConsistent) {
    ExpressionGenerator generator(37);
    FfeCompiler compiler;
    std::vector<Program> programs;
    std::int64_t total_instructions = 0;
    for (int i = 0; i < 1'000; ++i) {
        programs.push_back(compiler.Compile(*generator.Generate(),
                                            kFfeOutputBase));
        total_instructions += programs.back().InstructionCount();
    }
    FfeProcessor processor;
    processor.LoadPrograms(programs);
    const auto breakdown = processor.Breakdown();
    // Issue bound >= perfectly balanced instructions per core.
    EXPECT_GE(breakdown.max_core_issue_cycles, total_instructions / 60);
    // Document cycles covers every bound plus overhead.
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_core_issue_cycles);
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_thread_serial_cycles);
    EXPECT_GE(processor.DocumentCycles(),
              breakdown.max_cluster_complex_cycles);
    EXPECT_EQ(processor.TotalInstructions(), total_instructions);
}

TEST(FfeProcessor, MoreCoresProcessFaster) {
    ExpressionGenerator generator(41);
    FfeCompiler compiler;
    std::vector<Program> programs;
    for (int i = 0; i < 2'000; ++i) {
        programs.push_back(compiler.Compile(*generator.Generate(),
                                            kFfeOutputBase));
    }
    FfeProcessor::Config small_config;
    small_config.core_count = 15;
    FfeProcessor small(small_config);
    small.LoadPrograms(programs);
    FfeProcessor big;  // 60 cores
    big.LoadPrograms(programs);
    EXPECT_LT(big.DocumentCycles(), small.DocumentCycles());
}

TEST(FfeProcessor, StageWithinMacropipelineBudget) {
    // A production-sized model partition (§4.2: stages target <= 8 us;
    // FFE runs at 125 MHz -> 1,000 cycles). Long expressions must first
    // be split across the chips via metafeatures (§4.5) — that splitting
    // is exactly what keeps any one thread's dependency chain bounded.
    ExpressionGenerator generator(43);
    FfeCompiler compiler;
    std::vector<Program> programs;
    std::uint32_t next_meta = 0;
    for (int i = 0; i < 1'200; ++i) {
        ExprPtr expr = generator.Generate();
        for (auto& part : compiler.SplitForMetafeatures(*expr, next_meta)) {
            programs.push_back(compiler.Compile(*part.expr, part.slot));
        }
        programs.push_back(compiler.Compile(*expr, kFfeOutputBase));
    }
    FfeProcessor processor;
    processor.LoadPrograms(programs);
    EXPECT_LT(processor.DocumentServiceTime(), Microseconds(12));
    EXPECT_GT(processor.DocumentServiceTime(), Microseconds(1));
}

// A processor with no cores, threads or clusters aborts in every build:
// in release it would divide by zero computing its timing.
TEST(FfeProcessorDeathTest, RejectsAnEmptyTopology) {
    FfeProcessor::Config no_cores;
    no_cores.core_count = 0;
    EXPECT_DEATH(FfeProcessor{no_cores},
                 "FfeProcessor: core_count 0, threads_per_core 4 and "
                 "cores_per_cluster 6 must all be positive");
    FfeProcessor::Config no_threads;
    no_threads.threads_per_core = 0;
    EXPECT_DEATH(FfeProcessor{no_threads}, "threads_per_core 0");
    FfeProcessor::Config no_clusters;
    no_clusters.cores_per_cluster = -1;
    EXPECT_DEATH(FfeProcessor{no_clusters}, "cores_per_cluster -1");
}

TEST(OpLatencies, ComplexOpsAreLong) {
    const OpLatencies latencies;
    EXPECT_GT(latencies.For(OpCode::kLn), latencies.For(OpCode::kAdd));
    EXPECT_GT(latencies.For(OpCode::kDiv), latencies.For(OpCode::kAdd));
    EXPECT_TRUE(IsComplexOp(OpCode::kLn));
    EXPECT_TRUE(IsComplexOp(OpCode::kDiv));
    EXPECT_TRUE(IsComplexOp(OpCode::kExp));
    EXPECT_TRUE(IsComplexOp(OpCode::kFloatToInt));
    EXPECT_FALSE(IsComplexOp(OpCode::kAdd));
    EXPECT_FALSE(IsComplexOp(OpCode::kSelect));
}

}  // namespace
}  // namespace catapult::rank::ffe
