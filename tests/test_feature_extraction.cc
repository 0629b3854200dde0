// Unit tests for the Feature Extraction stage (§4.4).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rank/document_generator.h"
#include "rank/feature_extraction.h"
#include "rank/feature_space.h"

namespace catapult::rank {
namespace {

TEST(FeatureExtraction, FortyThreeStateMachines) {
    // §4.4: "We currently implement 43 unique feature extraction state
    // machines, with up to 4,484 features."
    const auto& descriptors = FeatureExtractor::Descriptors();
    EXPECT_EQ(descriptors.size(), 43u);
    std::uint32_t total = 0;
    for (const auto& d : descriptors) total += d.feature_count;
    EXPECT_EQ(total, kDynamicFeatureCount);
    EXPECT_EQ(kDynamicFeatureCount, 4'484u);
}

TEST(FeatureExtraction, FeatureIdsArePackedAndDisjoint) {
    std::uint32_t next = 0;
    for (const auto& d : FeatureExtractor::Descriptors()) {
        EXPECT_EQ(d.feature_base, next);
        next += d.feature_count;
    }
    EXPECT_EQ(next, kDynamicFeatureCount);
}

TEST(FeatureExtraction, DeterministicAcrossRuns) {
    DocumentGenerator generator(3);
    const CompressedRequest request = generator.Next();
    FeatureExtractor extractor;
    FeatureStore a, b;
    extractor.Extract(request, a);
    extractor.Extract(request, b);
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(FeatureExtraction, ExtractorsAreInterchangeable) {
    // Two extractor instances produce identical features — the basis
    // for software/FPGA score identity (§4).
    DocumentGenerator generator(3);
    const CompressedRequest request = generator.Next();
    FeatureExtractor e1, e2;
    FeatureStore a, b;
    e1.Extract(request, a);
    e2.Extract(request, b);
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(FeatureExtraction, EmitsNonZeroFeatures) {
    DocumentGenerator generator(5);
    const CompressedRequest request = generator.Next();
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    // A realistic document lights up a meaningful share of the space.
    EXPECT_GT(store.NonZeroCount(), 100u);
    EXPECT_LT(store.NonZeroCount(), kFeatureUniverse);
}

TEST(FeatureExtraction, EmptyDocumentEmitsNothingDynamic) {
    CompressedRequest request;
    request.tuple_count = 0;
    request.query.term_count = 3;
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    for (std::uint32_t id = 0; id < kDynamicFeatureCount; ++id) {
        EXPECT_EQ(store.Get(id), 0.0f);
    }
}

TEST(FeatureExtraction, SoftwareFeaturesRemapped) {
    CompressedRequest request;
    request.tuple_count = 0;
    request.software_features.push_back({60'123, 2.5f});
    FeatureExtractor extractor;
    FeatureStore store;
    extractor.Extract(request, store);
    EXPECT_EQ(store.Get(SoftwareFeatureSlot(60'123)), 2.5f);
}

TEST(FeatureExtraction, CountOccurrencesCountsHits) {
    // Synthetic request with known tuples requires a direct FSM test.
    const auto& descriptors = FeatureExtractor::Descriptors();
    const FsmDescriptor& count_fsm = descriptors[0];
    ASSERT_EQ(count_fsm.kind, FsmKind::kCountOccurrences);

    FeatureFsm fsm(count_fsm);
    CompressedRequest request;
    request.document_length = 100;
    // Three hits for (stream 0, term 0), one for (stream 1, term 2).
    HitTuple t1{.delta = 5, .term = 0, .stream = 0, .properties = 0};
    HitTuple t2{.delta = 3, .term = 0, .stream = 0, .properties = 0};
    HitTuple t3{.delta = 9, .term = 0, .stream = 0, .properties = 0};
    HitTuple t4{.delta = 2, .term = 2, .stream = 1, .properties = 0};
    std::uint32_t position = 0;
    for (const auto& t : {t1, t2, t3, t4}) {
        position += t.delta;
        fsm.Consume(t, position);
    }
    FeatureStore store;
    fsm.Emit(request, store);
    // Cell (stream 0, term 0) has 3 values per cell; primary first.
    EXPECT_EQ(store.Get(count_fsm.feature_base + 0), 3.0f);
    // Cell (stream 1, term 2): cell index = 1*10 + 2 = 12, vpc = 3.
    EXPECT_EQ(store.Get(count_fsm.feature_base + 12 * 3), 1.0f);
}

/** A store whose every slot holds `fill`, so a stray write shows. */
FeatureStore FilledStore(float fill) {
    FeatureStore store;
    for (std::uint32_t id = 0; id < kFeatureUniverse; ++id) store.Set(id, fill);
    return store;
}

/** What Extract computes, from the 43 reference FSMs run side by side. */
void ReferenceExtract(std::vector<FeatureFsm>& fsms,
                      const CompressedRequest& request, FeatureStore& store) {
    for (FeatureFsm& fsm : fsms) fsm.Reset();
    HitVectorReader reader(request);
    HitTuple tuple;
    std::uint32_t position = 0;
    while (reader.Next(tuple)) {
        position += tuple.delta;
        for (FeatureFsm& fsm : fsms) fsm.Consume(tuple, position);
    }
    for (const FeatureFsm& fsm : fsms) fsm.Emit(request, store);
    for (const auto& feature : request.software_features) {
        store.Set(SoftwareFeatureSlot(feature.feature_id), feature.value);
    }
}

TEST(FeatureExtraction, MatchesFsmReference) {
    // The extractor must write exactly what the 43 reference FSMs write,
    // bit for bit, and leave every other slot alone.
    const auto& descriptors = FeatureExtractor::Descriptors();
    std::vector<FeatureFsm> fsms(descriptors.begin(), descriptors.end());
    std::vector<CompressedRequest> requests;
    for (const std::uint32_t tuples : {0u, 1u}) {
        CompressedRequest request;
        request.doc_id = tuples;
        request.content_seed = 77;
        request.tuple_count = tuples;
        request.document_length = 40;
        request.query.term_count = 3;
        request.software_features.push_back({60'007, 1.5f});
        requests.push_back(request);
    }
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        DocumentGenerator generator(seed);
        for (int i = 0; i < 16; ++i) requests.push_back(generator.Next());
    }
    DocumentGenerator generator(99);
    // One term, all ten, and more terms than FSM cells (terms wrap).
    for (const int terms : {1, 10, 13}) {
        CompressedRequest request = generator.Next();
        request.query.term_count = terms;
        requests.push_back(request);
    }
    // A document cut at the 64 KB slot size (§4.1).
    CompressedRequest truncated = generator.Next();
    while (!truncated.truncated) truncated = generator.Next();
    requests.push_back(truncated);

    FeatureExtractor extractor;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        FeatureStore actual = FilledStore(-7.0f);
        FeatureStore expected = actual;
        extractor.Extract(requests[r], actual);
        ReferenceExtract(fsms, requests[r], expected);
        EXPECT_EQ(std::memcmp(actual.raw().data(), expected.raw().data(),
                              kFeatureUniverse * sizeof(float)),
                  0)
            << "request " << r << " (" << requests[r].tuple_count
            << " tuples, " << requests[r].query.term_count << " terms)";
    }
}

TEST(FeatureExtraction, GoldenExtractedFeatures) {
    // Pins the features extracted from the first documents of two
    // corpora, so a change to extraction cannot silently move every
    // downstream score.
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
    FeatureExtractor extractor;
    for (const std::uint64_t seed : {3ull, 11ull}) {
        DocumentGenerator generator(seed);
        for (int i = 0; i < 4; ++i) {
            FeatureStore store;
            extractor.Extract(generator.Next(), store);
            for (const float value : store.raw()) {
                std::uint32_t bits = 0;
                std::memcpy(&bits, &value, sizeof bits);
                digest ^= bits;
                digest *= 1099511628211ull;
            }
        }
    }
    EXPECT_EQ(digest, 0xe26d180ebb672385ull);
}

TEST(FeatureExtraction, ServiceTimeScalesWithTuples) {
    FeatureExtractor extractor;
    const Time small = extractor.ServiceTime(100u);
    const Time large = extractor.ServiceTime(10'000u);
    EXPECT_GT(large, small);
    // Linear-ish scaling.
    const double ratio = static_cast<double>(large) / static_cast<double>(small);
    EXPECT_GT(ratio, 5.0);
}

TEST(FeatureExtraction, AverageDocumentNearMacropipelineBudget) {
    // §4.2: macropipeline stages target <= 8 us. FE, the bottleneck
    // stage, should be in that neighbourhood for an average (~2,400
    // tuple) document.
    FeatureExtractor extractor;
    const Time t = extractor.ServiceTime(2'400u);
    EXPECT_GT(t, Microseconds(4));
    EXPECT_LT(t, Microseconds(16));
}

TEST(FeatureExtraction, ServiceTimeIsThePipelineStageTime) {
    // 250 fixed cycles + int64(0.5 x 2,400 + 1) = 1,451 cycles at the
    // Table 1 FE clock: the time every FE stage of the simulator takes.
    EXPECT_EQ(FeatureExtractor::ServiceTime(2'400u),
              Frequency::MHz(150.0).Cycles(1'451));
    EXPECT_EQ(FeatureExtractor::ServiceTime(2'401u),
              Frequency::MHz(150.0).Cycles(1'451));
}

TEST(FeatureStore, NonZeroCountAndClear) {
    FeatureStore store;
    EXPECT_EQ(store.NonZeroCount(), 0u);
    store.Set(0, 1.0f);
    store.Set(100, 2.0f);
    EXPECT_EQ(store.NonZeroCount(), 2u);
    store.Clear();
    EXPECT_EQ(store.NonZeroCount(), 0u);
}

}  // namespace
}  // namespace catapult::rank
