#include "rank/document.h"

#include <cassert>
#include <cstring>

namespace catapult::rank {

namespace {

// Header layout (40 bytes): magic, version, query/document identity, and
// the §4.1 "necessary additional fields": location and length of the
// hit vector, the software-computed features, document length, and
// number of query terms.
constexpr std::uint16_t kMagic = 0xC47A;  // "CATApult"
constexpr std::uint8_t kVersion = 1;
constexpr Bytes kHeaderBytes = 40;
constexpr Bytes kSoftwareFeatureBytes = 6;  // id:2 + float:4

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}
void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint16_t GetU16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t GetU32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

}  // namespace

int HitTuple::EncodedSize() const {
    // 2-byte form: small delta, no properties.
    if (properties == 0 && delta <= 0xFF) return 2;
    // 4-byte form: 16-bit delta, 8-bit properties.
    if (delta <= 0xFFFF && properties <= 0xFF) return 4;
    // 6-byte form: 24-bit delta, 16-bit properties.
    return 6;
}

Bytes CompressedRequest::HeaderSize() { return kHeaderBytes; }

Bytes CompressedRequest::EncodedSize() const {
    Bytes hit_vector = 0;
    HitVectorReader reader(*this);
    HitTuple tuple;
    while (reader.Next(tuple)) hit_vector += tuple.EncodedSize();
    return kHeaderBytes +
           static_cast<Bytes>(software_features.size()) * kSoftwareFeatureBytes +
           hit_vector;
}

HitVectorReader::HitVectorReader(const CompressedRequest& request)
    : request_(request),
      rng_(request.content_seed ^ (request.doc_id * 0x9E3779B97F4A7C15ull)) {}

bool HitVectorReader::Next(HitTuple& tuple) {
    if (produced_ >= request_.tuple_count) return false;
    // Deltas are mostly small gaps between query-term hits; occasional
    // long jumps cross section boundaries.
    static const Rng::GeometricParam kHitGap(0.10);
    static const Rng::GeometricParam kSectionGap(0.002);
    static const Rng::GeometricParam kLongJump(0.00005);
    const double shape = rng_.NextDouble();
    if (shape < 0.85) {
        tuple.delta = 1 + static_cast<std::uint32_t>(rng_.Geometric(kHitGap));
    } else if (shape < 0.985) {
        tuple.delta =
            256 + static_cast<std::uint32_t>(rng_.Geometric(kSectionGap));
    } else {
        tuple.delta =
            65536 + static_cast<std::uint32_t>(rng_.Geometric(kLongJump));
    }
    const int terms =
        request_.query.term_count > 0 ? request_.query.term_count : 1;
    tuple.term = static_cast<std::uint8_t>(
        rng_.NextBounded(static_cast<std::uint64_t>(terms)));
    static constexpr double kStreamWeights[] = {0.55, 0.25, 0.15,
                                                0.05};  // body, title, anchor, url
    tuple.stream = static_cast<std::uint8_t>(rng_.WeightedIndex(kStreamWeights));
    // Properties (match weight class etc.): frequency depends on the
    // query term, which drives the 2/4/6-byte size mix (§4.1).
    const double p_props = tuple.term >= 4 ? 0.35 : 0.12;
    if (rng_.Chance(p_props)) {
        tuple.properties = static_cast<std::uint16_t>(
            1 + rng_.NextBounded(rng_.Chance(0.1) ? 0xFFFEull : 0xFEull));
    } else {
        tuple.properties = 0;
    }
    position_ += tuple.delta;
    ++produced_;
    return true;
}

std::vector<std::uint8_t> RequestCodec::Encode(
    const CompressedRequest& request) {
    std::vector<std::uint8_t> out;
    out.reserve(static_cast<std::size_t>(request.EncodedSize()));

    PutU16(out, kMagic);
    out.push_back(kVersion);
    out.push_back(static_cast<std::uint8_t>(request.query.term_count));
    PutU32(out, request.query.model_id);
    PutU64(out, request.query.query_id);
    PutU64(out, request.doc_id);
    PutU32(out, request.document_length);
    PutU32(out, request.tuple_count);
    PutU16(out, static_cast<std::uint16_t>(request.software_features.size()));
    out.push_back(request.truncated ? 1 : 0);
    out.push_back(0);  // pad
    PutU32(out, 0);    // hit vector byte length, patched below
    assert(static_cast<Bytes>(out.size()) == kHeaderBytes);

    for (const auto& feature : request.software_features) {
        PutU16(out, feature.feature_id);
        std::uint32_t bits;
        static_assert(sizeof bits == sizeof feature.value);
        std::memcpy(&bits, &feature.value, sizeof bits);
        PutU32(out, bits);
    }

    const std::size_t hit_vector_start = out.size();
    HitVectorReader reader(request);
    HitTuple tuple;
    while (reader.Next(tuple)) {
        const int size = tuple.EncodedSize();
        const std::uint8_t size_code =
            size == 2 ? 0 : (size == 4 ? 1 : 2);
        const std::uint8_t tag = static_cast<std::uint8_t>(
            (size_code << 6) | ((tuple.term & 0x0F) << 2) |
            (tuple.stream & 0x03));
        out.push_back(tag);
        switch (size) {
          case 2:
            out.push_back(static_cast<std::uint8_t>(tuple.delta));
            break;
          case 4:
            out.push_back(static_cast<std::uint8_t>(tuple.delta & 0xFF));
            out.push_back(static_cast<std::uint8_t>(tuple.delta >> 8));
            out.push_back(static_cast<std::uint8_t>(tuple.properties));
            break;
          default:
            out.push_back(static_cast<std::uint8_t>(tuple.delta & 0xFF));
            out.push_back(static_cast<std::uint8_t>((tuple.delta >> 8) & 0xFF));
            out.push_back(static_cast<std::uint8_t>((tuple.delta >> 16) & 0xFF));
            out.push_back(static_cast<std::uint8_t>(tuple.properties & 0xFF));
            out.push_back(static_cast<std::uint8_t>(tuple.properties >> 8));
            break;
        }
    }
    const auto hit_vector_bytes =
        static_cast<std::uint32_t>(out.size() - hit_vector_start);
    out[36] = static_cast<std::uint8_t>(hit_vector_bytes & 0xFF);
    out[37] = static_cast<std::uint8_t>((hit_vector_bytes >> 8) & 0xFF);
    out[38] = static_cast<std::uint8_t>((hit_vector_bytes >> 16) & 0xFF);
    out[39] = static_cast<std::uint8_t>((hit_vector_bytes >> 24) & 0xFF);
    return out;
}

bool RequestCodec::Decode(const std::vector<std::uint8_t>& bytes,
                          CompressedRequest& request,
                          std::vector<HitTuple>& tuples) {
    if (static_cast<Bytes>(bytes.size()) < kHeaderBytes) return false;
    const std::uint8_t* p = bytes.data();
    if (GetU16(p) != kMagic || p[2] != kVersion) return false;
    request = CompressedRequest{};
    request.query.term_count = p[3];
    request.query.model_id = GetU32(p + 4);
    request.query.query_id = GetU64(p + 8);
    request.doc_id = GetU64(p + 16);
    request.document_length = GetU32(p + 24);
    request.tuple_count = GetU32(p + 28);
    const std::uint16_t feature_count = GetU16(p + 32);
    request.truncated = p[34] != 0;
    const std::uint32_t hit_vector_bytes = GetU32(p + 36);

    std::size_t offset = static_cast<std::size_t>(kHeaderBytes);
    request.software_features.reserve(feature_count);
    for (std::uint16_t i = 0; i < feature_count; ++i) {
        if (offset + 6 > bytes.size()) return false;
        SoftwareFeature feature;
        feature.feature_id = GetU16(p + offset);
        const std::uint32_t bits = GetU32(p + offset + 2);
        std::memcpy(&feature.value, &bits, sizeof feature.value);
        request.software_features.push_back(feature);
        offset += 6;
    }

    const std::size_t hit_vector_end = offset + hit_vector_bytes;
    if (hit_vector_end != bytes.size()) return false;
    tuples.clear();
    tuples.reserve(request.tuple_count);
    while (offset < hit_vector_end) {
        const std::uint8_t tag = p[offset];
        const int size_code = tag >> 6;
        HitTuple tuple;
        tuple.term = (tag >> 2) & 0x0F;
        tuple.stream = tag & 0x03;
        if (size_code == 0) {
            if (offset + 2 > bytes.size()) return false;
            tuple.delta = p[offset + 1];
            tuple.properties = 0;
            offset += 2;
        } else if (size_code == 1) {
            if (offset + 4 > bytes.size()) return false;
            tuple.delta = static_cast<std::uint32_t>(p[offset + 1]) |
                          (static_cast<std::uint32_t>(p[offset + 2]) << 8);
            tuple.properties = p[offset + 3];
            offset += 4;
        } else if (size_code == 2) {
            if (offset + 6 > bytes.size()) return false;
            tuple.delta = static_cast<std::uint32_t>(p[offset + 1]) |
                          (static_cast<std::uint32_t>(p[offset + 2]) << 8) |
                          (static_cast<std::uint32_t>(p[offset + 3]) << 16);
            tuple.properties =
                static_cast<std::uint16_t>(p[offset + 4] | (p[offset + 5] << 8));
            offset += 6;
        } else {
            return false;
        }
        tuples.push_back(tuple);
    }
    return tuples.size() == request.tuple_count;
}

}  // namespace catapult::rank
