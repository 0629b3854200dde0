// Unit + property tests for the request model, wire codec, and the
// Figure 4 document-size distribution.

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "rank/document.h"
#include "rank/document_generator.h"

namespace catapult::rank {
namespace {

TEST(HitTuple, EncodedSizeClasses) {
    // §4.1: tuples are encoded in 2, 4 or 6 bytes.
    HitTuple small{.delta = 5, .term = 0, .stream = 0, .properties = 0};
    EXPECT_EQ(small.EncodedSize(), 2);
    HitTuple medium{.delta = 300, .term = 1, .stream = 1, .properties = 9};
    EXPECT_EQ(medium.EncodedSize(), 4);
    HitTuple props{.delta = 5, .term = 0, .stream = 0, .properties = 1};
    EXPECT_EQ(props.EncodedSize(), 4);
    HitTuple large{.delta = 70'000, .term = 2, .stream = 2, .properties = 0};
    EXPECT_EQ(large.EncodedSize(), 6);
    HitTuple big_props{.delta = 5, .term = 0, .stream = 0, .properties = 4'000};
    EXPECT_EQ(big_props.EncodedSize(), 6);
}

TEST(HitVectorReader, DeterministicReplay) {
    // §3.6: a trace id maps to "a specific compressed document that can
    // be replayed in a test environment" — replays must be identical.
    DocumentGenerator generator(1);
    const CompressedRequest request = generator.Next();
    HitVectorReader a(request), b(request);
    HitTuple ta, tb;
    int count = 0;
    while (a.Next(ta)) {
        ASSERT_TRUE(b.Next(tb));
        EXPECT_EQ(ta, tb);
        ++count;
    }
    EXPECT_FALSE(b.Next(tb));
    EXPECT_EQ(count, static_cast<int>(request.tuple_count));
}

TEST(HitVectorReader, GoldenTupleStream) {
    // Every bench and test draws its corpus through this reader, so the
    // stream a fixed request produces is pinned: a reader or Rng change
    // that alters any tuple fails here rather than silently moving every
    // downstream number.
    CompressedRequest request;
    request.doc_id = 4242;
    request.content_seed = 0x5EEDC0FFEEull;
    request.tuple_count = 6'000;
    request.query.term_count = 7;
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
    const auto mix = [&digest](std::uint64_t v) {
        digest ^= v;
        digest *= 1099511628211ull;
    };
    HitVectorReader reader(request);
    HitTuple tuple;
    while (reader.Next(tuple)) {
        mix(tuple.delta);
        mix(tuple.term);
        mix(tuple.stream);
        mix(tuple.properties);
    }
    EXPECT_EQ(reader.produced(), 6'000u);
    EXPECT_EQ(digest, 0x79a696ce0c42547dull);
    EXPECT_EQ(request.EncodedSize(), 16'432);
}

TEST(RequestCodec, RoundTripPreservesEverything) {
    DocumentGenerator generator(7);
    for (int i = 0; i < 20; ++i) {
        const CompressedRequest original = generator.Next();
        const auto bytes = RequestCodec::Encode(original);
        EXPECT_EQ(static_cast<Bytes>(bytes.size()), original.EncodedSize());

        CompressedRequest decoded;
        std::vector<HitTuple> tuples;
        ASSERT_TRUE(RequestCodec::Decode(bytes, decoded, tuples));
        EXPECT_EQ(decoded.doc_id, original.doc_id);
        EXPECT_EQ(decoded.query.query_id, original.query.query_id);
        EXPECT_EQ(decoded.query.model_id, original.query.model_id);
        EXPECT_EQ(decoded.query.term_count, original.query.term_count);
        EXPECT_EQ(decoded.document_length, original.document_length);
        EXPECT_EQ(decoded.tuple_count, original.tuple_count);
        EXPECT_EQ(decoded.truncated, original.truncated);
        EXPECT_EQ(decoded.software_features, original.software_features);

        // Tuples decode exactly as the reader streams them.
        HitVectorReader reader(original);
        HitTuple expected;
        std::size_t index = 0;
        while (reader.Next(expected)) {
            ASSERT_LT(index, tuples.size());
            EXPECT_EQ(tuples[index].delta, expected.delta);
            EXPECT_EQ(tuples[index].term, expected.term);
            EXPECT_EQ(tuples[index].stream, expected.stream);
            EXPECT_EQ(tuples[index].properties, expected.properties);
            ++index;
        }
        EXPECT_EQ(index, tuples.size());
    }
}

TEST(RequestCodec, RejectsCorruptHeader) {
    DocumentGenerator generator(9);
    auto bytes = RequestCodec::Encode(generator.Next());
    bytes[0] ^= 0xFF;  // break the magic
    CompressedRequest decoded;
    std::vector<HitTuple> tuples;
    EXPECT_FALSE(RequestCodec::Decode(bytes, decoded, tuples));
}

TEST(RequestCodec, RejectsTruncatedBuffer) {
    DocumentGenerator generator(9);
    auto bytes = RequestCodec::Encode(generator.Next());
    bytes.resize(bytes.size() / 2);
    CompressedRequest decoded;
    std::vector<HitTuple> tuples;
    EXPECT_FALSE(RequestCodec::Decode(bytes, decoded, tuples));
}

TEST(DocumentGenerator, WireBytesTracksExactEncoding) {
    DocumentGenerator generator(11);
    for (int i = 0; i < 50; ++i) {
        const CompressedRequest request = generator.Next();
        const double exact = static_cast<double>(request.EncodedSize());
        const double approx = static_cast<double>(request.wire_bytes);
        EXPECT_NEAR(approx / exact, 1.0, 0.15)
            << "doc " << request.doc_id << " exact " << exact << " approx "
            << approx;
    }
}

TEST(DocumentGenerator, Figure4Statistics) {
    // Fig. 4 + §4.1: mean 6.5 KB, p99 = 53 KB, nearly all under 64 KB
    // (~300 of 210K truncated).
    DocumentGenerator generator(2024);
    SampleStat sizes;
    const int n = 210'000;
    for (int i = 0; i < n; ++i) {
        sizes.Add(static_cast<double>(generator.Next().wire_bytes));
    }
    EXPECT_NEAR(sizes.mean(), 6'500.0, 1'000.0);
    EXPECT_NEAR(sizes.Percentile(99.0), 53'000.0, 8'000.0);
    EXPECT_LE(sizes.max(), 65'536.0);
    // Truncation is rare: within an order of magnitude of 300/210K.
    const double truncated_fraction =
        static_cast<double>(generator.truncated_count()) / n;
    EXPECT_GT(truncated_fraction, 0.0001);
    EXPECT_LT(truncated_fraction, 0.01);
}

TEST(DocumentGenerator, TargetSizeHonored) {
    DocumentGenerator generator(5);
    const CompressedRequest request = generator.WithTargetSize(16'384);
    EXPECT_NEAR(static_cast<double>(request.wire_bytes), 16'384.0, 600.0);
}

TEST(DocumentGenerator, SixtyFourKilobyteCap) {
    DocumentGenerator generator(5);
    for (int i = 0; i < 2'000; ++i) {
        EXPECT_LE(generator.Next().wire_bytes, kMaxCompressedBytes);
    }
}

TEST(DocumentGenerator, DistinctModelsAssigned) {
    DocumentGenerator::Config config;
    config.model_count = 4;
    DocumentGenerator generator(13, config);
    std::set<std::uint32_t> models;
    for (int i = 0; i < 200; ++i) models.insert(generator.Next().query.model_id);
    EXPECT_EQ(models.size(), 4u);
}

TEST(DocumentGenerator, SequentialDocIds) {
    DocumentGenerator generator(17);
    EXPECT_EQ(generator.Next().doc_id, 0u);
    EXPECT_EQ(generator.Next().doc_id, 1u);
    EXPECT_EQ(generator.generated(), 2u);
}

}  // namespace
}  // namespace catapult::rank
