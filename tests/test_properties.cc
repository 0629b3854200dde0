// Parameterized property tests: invariants swept across configuration
// spaces with TEST_P / INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/rng.h"
#include "fabric/torus_topology.h"
#include "rank/document.h"
#include "rank/document_generator.h"
#include "rank/ffe/compiler.h"
#include "rank/ffe/processor.h"
#include "rank/model.h"
#include "rank/queue_manager.h"
#include "rank/scorer.h"
#include "rank/software_ranker.h"
#include "shell/sl3_link.h"
#include "sim/simulator.h"

namespace catapult {
namespace {

// ---------------------------------------------------------------------
// Torus invariants across sizes (the paper's 6x8 plus other shapes).
// ---------------------------------------------------------------------

class TorusProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TorusProperty, NeighborSymmetry) {
    const auto [rows, cols] = GetParam();
    const fabric::TorusTopology torus(rows, cols);
    for (int i = 0; i < torus.node_count(); ++i) {
        for (const auto port : {shell::Port::kNorth, shell::Port::kSouth,
                                shell::Port::kEast, shell::Port::kWest}) {
            const int j = torus.NeighborOf(i, port);
            EXPECT_EQ(torus.NeighborOf(j, shell::Opposite(port)), i);
        }
    }
}

TEST_P(TorusProperty, DimensionOrderRoutesTerminate) {
    const auto [rows, cols] = GetParam();
    const fabric::TorusTopology torus(rows, cols);
    for (int src = 0; src < torus.node_count(); ++src) {
        for (int dst = 0; dst < torus.node_count(); ++dst) {
            if (src == dst) continue;
            int at = src;
            int steps = 0;
            while (at != dst) {
                at = torus.NeighborOf(at, torus.NextHop(at, dst));
                ASSERT_LE(++steps, rows + cols) << "routing loop";
            }
            EXPECT_EQ(steps, torus.HopCount(src, dst));
        }
    }
}

TEST_P(TorusProperty, HopCountTriangleInequality) {
    const auto [rows, cols] = GetParam();
    const fabric::TorusTopology torus(rows, cols);
    Rng rng(rows * 100 + cols);
    for (int trial = 0; trial < 50; ++trial) {
        const int a = static_cast<int>(rng.NextBounded(torus.node_count()));
        const int b = static_cast<int>(rng.NextBounded(torus.node_count()));
        const int c = static_cast<int>(rng.NextBounded(torus.node_count()));
        EXPECT_LE(torus.HopCount(a, c),
                  torus.HopCount(a, b) + torus.HopCount(b, c));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusProperty,
    ::testing::Values(std::make_tuple(6, 8),   // the Catapult pod
                      std::make_tuple(1, 2), std::make_tuple(2, 2),
                      std::make_tuple(3, 5), std::make_tuple(4, 4),
                      std::make_tuple(8, 6), std::make_tuple(2, 24)));

// ---------------------------------------------------------------------
// SL3 error-model invariants across bit error rates.
// ---------------------------------------------------------------------

class Sl3BerProperty : public ::testing::TestWithParam<double> {};

TEST_P(Sl3BerProperty, AccountingConserved) {
    const double ber = GetParam();
    sim::Simulator sim;
    shell::Sl3Link a(&sim, "a", Rng(5));
    shell::Sl3Link b(&sim, "b", Rng(6));
    a.ConnectTo(&b);
    b.set_bit_error_rate(ber);
    b.set_on_receive([&] { b.PopReceived(); });
    const int kPackets = 500;
    for (int i = 0; i < kPackets; ++i) {
        if (!a.Send(shell::MakePacket(shell::PacketType::kScoringRequest, 0,
                                      1, 8'192))) {
            sim.Run();
            ASSERT_TRUE(a.Send(shell::MakePacket(
                shell::PacketType::kScoringRequest, 0, 1, 8'192)));
        }
    }
    sim.Run();
    const auto& counters = b.counters();
    // Conservation: every sent packet is delivered or dropped for an
    // accounted reason; nothing vanishes.
    EXPECT_EQ(counters.packets_delivered + counters.double_bit_drops +
                  counters.crc_drops,
              static_cast<std::uint64_t>(kPackets));
    // Higher BER can only reduce delivery; at zero BER it is perfect.
    if (ber == 0.0) {
        EXPECT_EQ(counters.packets_delivered,
                  static_cast<std::uint64_t>(kPackets));
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, Sl3BerProperty,
                         ::testing::Values(0.0, 1e-10, 1e-8, 1e-7, 1e-6,
                                           1e-5));

// ---------------------------------------------------------------------
// Codec round-trip across corpus seeds.
// ---------------------------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, EncodeDecodeRoundTrip) {
    rank::DocumentGenerator generator(GetParam());
    for (int i = 0; i < 10; ++i) {
        const rank::CompressedRequest original = generator.Next();
        const auto bytes = rank::RequestCodec::Encode(original);
        EXPECT_EQ(static_cast<Bytes>(bytes.size()), original.EncodedSize());
        rank::CompressedRequest decoded;
        std::vector<rank::HitTuple> tuples;
        ASSERT_TRUE(rank::RequestCodec::Decode(bytes, decoded, tuples));
        EXPECT_EQ(decoded.tuple_count, original.tuple_count);
        EXPECT_EQ(tuples.size(), original.tuple_count);
        EXPECT_EQ(decoded.software_features, original.software_features);
    }
}

TEST_P(CodecProperty, TupleSizesAreTwoFourOrSix) {
    rank::DocumentGenerator generator(GetParam() ^ 0xABCD);
    const rank::CompressedRequest request = generator.Next();
    rank::HitVectorReader reader(request);
    rank::HitTuple tuple;
    while (reader.Next(tuple)) {
        const int size = tuple.EncodedSize();
        EXPECT_TRUE(size == 2 || size == 4 || size == 6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1u, 17u, 99u, 12345u, 777777u));

// ---------------------------------------------------------------------
// FFE compiled-vs-AST identity across model seeds (the §4 claim).
// ---------------------------------------------------------------------

class FfeIdentityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FfeIdentityProperty, CompiledMatchesAst) {
    rank::ffe::ExpressionGenerator generator(GetParam());
    rank::ffe::FfeCompiler compiler;
    rank::FeatureStore store;
    Rng rng(GetParam() ^ 0xFEED);
    for (std::uint32_t i = 0; i < rank::kDynamicFeatureCount; i += 2) {
        store.Set(i, static_cast<float>(rng.Uniform(-4.0, 12.0)));
    }
    for (int i = 0; i < 40; ++i) {
        const auto expr = generator.Generate();
        const auto program =
            compiler.Compile(*expr, rank::kFfeOutputBase);
        EXPECT_EQ(expr->Evaluate(store),
                  rank::ffe::FfeProcessor::Execute(program, store));
    }
}

TEST_P(FfeIdentityProperty, SplitPreservesValue) {
    rank::ffe::ExpressionGenerator generator(GetParam() ^ 0x5417);
    rank::ffe::FfeCompiler compiler;
    rank::FeatureStore store;
    Rng rng(GetParam());
    for (std::uint32_t i = 0; i < rank::kDynamicFeatureCount; i += 3) {
        store.Set(i, static_cast<float>(rng.Uniform(0.0, 6.0)));
    }
    for (int i = 0; i < 6; ++i) {
        const auto original = generator.GenerateWithSize(600);
        const float expected = original->Evaluate(store);
        auto work = original->Clone();
        std::uint32_t next_slot = 0;
        const auto parts = compiler.SplitForMetafeatures(*work, next_slot);
        rank::FeatureStore staged = store;
        for (const auto& part : parts) {
            staged.Set(part.slot, part.expr->Evaluate(staged));
        }
        EXPECT_EQ(work->Evaluate(staged), expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfeIdentityProperty,
                         ::testing::Values(3u, 31u, 314u, 3141u, 31415u));

// ---------------------------------------------------------------------
// Ensemble sharding identity across tree counts.
// ---------------------------------------------------------------------

class EnsembleProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnsembleProperty, ShardSumEqualsEnsembleScore) {
    const int trees = GetParam();
    const rank::ScoringEnsemble ensemble = rank::GenerateEnsemble(7, trees);
    EXPECT_EQ(ensemble.total_trees(), trees);
    rank::FeatureStore store;
    Rng rng(trees);
    for (std::uint32_t i = 0; i < rank::kFeatureUniverse; i += 7) {
        store.Set(i, static_cast<float>(rng.Uniform(0.0, 20.0)));
    }
    float sharded = 0.0f;
    int shard_trees = 0;
    for (int s = 0; s < rank::ScoringEnsemble::kShardCount; ++s) {
        sharded += ensemble.shard(s).PartialScore(store);
        shard_trees += ensemble.shard(s).tree_count();
    }
    EXPECT_EQ(shard_trees, trees);
    EXPECT_EQ(sharded, ensemble.Score(store));
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, EnsembleProperty,
                         ::testing::Values(1, 2, 3, 4, 100, 999, 6000));

// ---------------------------------------------------------------------
// Queue Manager never loses or duplicates work, for any model count.
// ---------------------------------------------------------------------

class QueueManagerProperty : public ::testing::TestWithParam<int> {};

TEST_P(QueueManagerProperty, ConservesEntries) {
    const int models = GetParam();
    rank::QueueManager qm;
    Rng rng(models * 31);
    std::set<std::uint64_t> sent, received;
    Time now = 0;
    const int kDocs = 500;
    for (int i = 0; i < kDocs; ++i) {
        const auto model =
            static_cast<std::uint32_t>(rng.NextBounded(models));
        qm.Enqueue(model, static_cast<std::uint64_t>(i), now);
        sent.insert(static_cast<std::uint64_t>(i));
        now += Microseconds(1);
    }
    int guard = 0;
    while (true) {
        const auto decision = qm.Next(now);
        using Kind = rank::QueueManager::DispatchDecision::Kind;
        if (decision.kind == Kind::kIdle) break;
        if (decision.kind == Kind::kDispatch) {
            EXPECT_TRUE(received.insert(decision.entry).second)
                << "duplicate dispatch";
        }
        now += Microseconds(5);
        ASSERT_LT(++guard, kDocs * 4) << "dispatch loop did not converge";
    }
    EXPECT_EQ(received, sent);
    // Switches bounded by dispatches (cannot reload more than once per
    // batch) and at least the number of distinct models touched.
    EXPECT_GE(qm.counters().model_switches,
              static_cast<std::uint64_t>(std::min(models, kDocs) > 0 ? 1 : 0));
    EXPECT_LE(qm.counters().model_switches, qm.counters().dispatched + 1);
}

INSTANTIATE_TEST_SUITE_P(ModelCounts, QueueManagerProperty,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

// ---------------------------------------------------------------------
// Document generator invariants across target sizes.
// ---------------------------------------------------------------------

class DocSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(DocSizeProperty, WireSizeTracksTarget) {
    rank::DocumentGenerator generator(99);
    const Bytes target = GetParam();
    const auto request = generator.WithTargetSize(target);
    EXPECT_LE(request.wire_bytes, rank::kMaxCompressedBytes);
    EXPECT_GT(request.tuple_count, 0u);
    if (target >= 1'024) {
        EXPECT_NEAR(static_cast<double>(request.wire_bytes),
                    static_cast<double>(std::min(target,
                                                 rank::kMaxCompressedBytes)),
                    static_cast<double>(target) * 0.1 + 256.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DocSizeProperty,
                         ::testing::Values(64, 256, 1'024, 4'096, 16'384,
                                           65'536, 200'000));

// ---------------------------------------------------------------------
// FFE processor timing monotonicity across core counts.
// ---------------------------------------------------------------------

class FfeScalingProperty : public ::testing::TestWithParam<int> {};

TEST_P(FfeScalingProperty, DocumentCyclesBoundedByWork) {
    const int cores = GetParam();
    rank::ffe::ExpressionGenerator generator(4242);
    rank::ffe::FfeCompiler compiler;
    std::vector<rank::ffe::Program> programs;
    std::int64_t total_instructions = 0;
    for (int i = 0; i < 600; ++i) {
        programs.push_back(
            compiler.Compile(*generator.Generate(), rank::kFfeOutputBase));
        total_instructions += programs.back().InstructionCount();
    }
    rank::ffe::FfeProcessor::Config config;
    config.core_count = cores;
    rank::ffe::FfeProcessor processor(config);
    processor.LoadPrograms(programs);
    // Lower bound: perfect balance; upper bound: serial execution.
    EXPECT_GE(processor.DocumentCycles(),
              total_instructions / cores);
    EXPECT_LE(processor.DocumentCycles() -
                  rank::ffe::FfeProcessor::kOverheadCycles,
              total_instructions * rank::ffe::OpLatencies::kLn);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, FfeScalingProperty,
                         ::testing::Values(6, 12, 30, 60, 120));

}  // namespace
}  // namespace catapult
