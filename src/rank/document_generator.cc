#include "rank/document_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace catapult::rank {

namespace {

/** Weight of the big-document mixture component. */
constexpr double kBigComponentWeight = 0.03;
/** Small component: lognormal mean (bytes) and sigma. */
constexpr double kSmallMeanBytes = 5'300.0;
constexpr double kSmallSigma = 0.80;
/** Big component: lognormal mean (bytes) and sigma. */
constexpr double kBigMeanBytes = 45'000.0;
constexpr double kBigSigma = 0.28;
/**
 * Average encoded bytes contributed per hit-vector tuple, calibrated to
 * the 2/4/6-byte mix the codec produces; the document_generator tests
 * validate wire_bytes vs EncodedSize.
 */
constexpr double kBytesPerTuple = 2.7;
/** Software-computed features per request (§4.1). */
constexpr int kMinSoftwareFeatures = 4;
constexpr int kMaxSoftwareFeatures = 24;

}  // namespace

DocumentGenerator::DocumentGenerator(std::uint64_t seed, Config config)
    : config_(config), rng_(seed) {}

double DocumentGenerator::DrawTargetBytes() {
    const bool big = rng_.Chance(kBigComponentWeight);
    const double mean = big ? kBigMeanBytes : kSmallMeanBytes;
    const double sigma = big ? kBigSigma : kSmallSigma;
    // Parameterize the lognormal by its arithmetic mean:
    //   E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
    const double mu = std::log(mean) - sigma * sigma / 2.0;
    return rng_.LogNormal(mu, sigma);
}

CompressedRequest DocumentGenerator::Next() {
    // Oversized draws flow into Build() uncapped so the §4.1 truncation
    // to 64 KB is applied (and counted) there.
    const double target = DrawTargetBytes();
    return Build(static_cast<Bytes>(target));
}

CompressedRequest DocumentGenerator::WithTargetSize(Bytes target) {
    return Build(std::min(target, kMaxCompressedBytes));
}

CompressedRequest DocumentGenerator::Build(Bytes target) {
    CompressedRequest request;
    request.doc_id = next_doc_id_++;
    request.content_seed = rng_.Next();
    request.query.query_id = rng_.Next();
    request.query.model_id = static_cast<std::uint32_t>(
        rng_.NextBounded(config_.model_count));
    request.query.term_count =
        1 + static_cast<int>(rng_.NextBounded(kMaxQueryTerms));

    const int feature_count = static_cast<int>(
        rng_.UniformInt(kMinSoftwareFeatures, kMaxSoftwareFeatures));
    request.software_features.reserve(static_cast<std::size_t>(feature_count));
    for (int i = 0; i < feature_count; ++i) {
        SoftwareFeature feature;
        // Software-computed feature ids live in their own range above
        // the FPGA-computed dynamic features.
        feature.feature_id = static_cast<std::uint16_t>(
            60'000 + rng_.NextBounded(1'000));
        feature.value = static_cast<float>(rng_.Uniform(0.0, 8.0));
        request.software_features.push_back(feature);
    }

    // Apportion the target bytes: header + software features are fixed;
    // the remainder is hit vector, sized by the mean tuple encoding.
    // (For typical documents the hit vector is the vast majority of the
    // payload, matching §4.1.)
    const Bytes fixed = CompressedRequest::HeaderSize() +
                        static_cast<Bytes>(request.software_features.size()) * 6;
    const Bytes hit_bytes =
        std::max<Bytes>(target - fixed, static_cast<Bytes>(kBytesPerTuple));
    request.tuple_count = static_cast<std::uint32_t>(std::max<Bytes>(
        1, static_cast<Bytes>(static_cast<double>(hit_bytes) /
                              kBytesPerTuple)));

    // Cap the encoded size at 64 KB by shaving tuples if needed.
    const double max_tuples =
        (static_cast<double>(kMaxCompressedBytes - fixed)) /
        kBytesPerTuple;
    if (static_cast<double>(request.tuple_count) > max_tuples) {
        request.tuple_count = static_cast<std::uint32_t>(max_tuples);
        request.truncated = true;
        ++truncated_;
    }

    // Document length in tokens: hits are a few percent of tokens.
    request.document_length =
        request.tuple_count * 20 +
        static_cast<std::uint32_t>(rng_.NextBounded(1'000));
    request.wire_bytes =
        fixed + static_cast<Bytes>(static_cast<double>(request.tuple_count) *
                                   kBytesPerTuple);
    if (request.wire_bytes > kMaxCompressedBytes) {
        request.wire_bytes = kMaxCompressedBytes;
    }
    return request;
}

std::vector<CompressedRequest> DocumentGenerator::Corpus(int count) {
    std::vector<CompressedRequest> corpus;
    corpus.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) corpus.push_back(Next());
    return corpus;
}

}  // namespace catapult::rank
