#include "rank/feature_extraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <optional>
#include <span>

#include "common/log.h"

namespace catapult::rank {

namespace {

/**
 * Build the 43 FSM descriptors. Feature ids are packed contiguously:
 * 30 rich per-(stream,term) FSMs emit 3 values per cell (primary,
 * length-normalized, log-compressed), 10 emit 2, and the 3 aggregate
 * FSMs own the tail of the id space; kTermShare's allocation includes
 * reserved ids for future term slots, so the dynamic space totals
 * exactly 4,484 features.
 */
std::vector<FsmDescriptor> BuildDescriptors() {
    struct Spec {
        FsmKind kind;
        const char* name;
        std::uint32_t param;
        std::uint32_t values_per_cell;
        std::uint32_t cells;  // 0 => per (stream, term)
    };
    const std::uint32_t st = kMetastreamCount * kMaxQueryTerms;  // 40
    std::vector<Spec> specs = {
        // 30 rich per-(stream,term) FSMs, 3 values per cell.
        {FsmKind::kCountOccurrences, "NumberOfOccurrences", 0, 3, st},
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.props", 1, 3, st},
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.tight", 2, 3, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence", 0, 3, st},
        {FsmKind::kLastOccurrence, "LastOccurrence", 0, 3, st},
        {FsmKind::kCoverageSpan, "CoverageSpan", 0, 3, st},
        {FsmKind::kMeanGap, "MeanGap", 0, 3, st},
        {FsmKind::kMaxGap, "MaxGap", 0, 3, st},
        {FsmKind::kPropertySum, "PropertySum", 0, 3, st},
        {FsmKind::kPropertySum, "PropertySum.high", 1, 3, st},
        {FsmKind::kPropertyMax, "PropertyMax", 0, 3, st},
        {FsmKind::kBigramAdjacency, "BigramNext", 0, 3, st},
        {FsmKind::kBigramAdjacency, "BigramRepeat", 1, 3, st},
        {FsmKind::kBigramAdjacency, "BigramCrossStream", 2, 3, st},
        {FsmKind::kProximityWindow, "Proximity.8", 8, 3, st},
        {FsmKind::kProximityWindow, "Proximity.16", 16, 3, st},
        {FsmKind::kProximityWindow, "Proximity.32", 32, 3, st},
        {FsmKind::kProximityWindow, "Proximity.64", 64, 3, st},
        {FsmKind::kProximityWindow, "Proximity.128", 128, 3, st},
        {FsmKind::kProximityWindow, "Proximity.256", 256, 3, st},
        {FsmKind::kProximityWindow, "Proximity.512", 512, 3, st},
        {FsmKind::kProximityWindow, "Proximity.1024", 1024, 3, st},
        {FsmKind::kEarlySection, "Early.128", 128, 3, st},
        {FsmKind::kEarlySection, "Early.512", 512, 3, st},
        {FsmKind::kEarlySection, "Early.2048", 2048, 3, st},
        {FsmKind::kEarlySection, "Early.8192", 8192, 3, st},
        {FsmKind::kEarlySection, "Early.32768", 32768, 3, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence.props", 1, 3, st},
        {FsmKind::kLastOccurrence, "LastOccurrence.props", 1, 3, st},
        {FsmKind::kMaxGap, "MaxGap.props", 1, 3, st},
        // 10 per-(stream,term) FSMs, 2 values per cell.
        {FsmKind::kCountOccurrences, "NumberOfOccurrences.wide", 3, 2, st},
        {FsmKind::kFirstOccurrence, "FirstOccurrence.tight", 2, 2, st},
        {FsmKind::kLastOccurrence, "LastOccurrence.tight", 2, 2, st},
        {FsmKind::kCoverageSpan, "CoverageSpan.props", 1, 2, st},
        {FsmKind::kMeanGap, "MeanGap.props", 1, 2, st},
        {FsmKind::kPropertySum, "PropertySum.low", 2, 2, st},
        {FsmKind::kPropertyMax, "PropertyMax.props", 1, 2, st},
        {FsmKind::kBigramAdjacency, "BigramNext.props", 3, 2, st},
        {FsmKind::kProximityWindow, "Proximity.4096", 4096, 2, st},
        {FsmKind::kEarlySection, "Early.131072", 131072, 2, st},
        // Aggregate FSMs.
        {FsmKind::kDensity, "StreamDensity", 0, 2, kMetastreamCount},
        {FsmKind::kStreamSpan, "StreamSpan", 0, 2, kMetastreamCount},
        // kTermShare owns 68 ids: 10 terms x 3 emitted + 38 reserved,
        // bringing the dynamic feature space to exactly 4,484.
        {FsmKind::kTermShare, "TermShare", 0, 3, kMaxQueryTerms},
    };

    std::vector<FsmDescriptor> descriptors;
    descriptors.reserve(specs.size());
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec& spec = specs[i];
        FsmDescriptor d;
        d.kind = spec.kind;
        d.name = spec.name;
        d.param = spec.param;
        d.feature_base = next_id;
        d.feature_count = spec.cells * spec.values_per_cell;
        if (i + 1 == specs.size()) {
            d.feature_count = kDynamicFeatureCount - next_id;  // reserved tail
        }
        next_id += d.feature_count;
        descriptors.push_back(std::move(d));
    }
    assert(descriptors.size() == 43);
    assert(next_id == kDynamicFeatureCount);
    return descriptors;
}

/** Values per cell for a descriptor (from its allocation). */
std::uint32_t ValuesPerCell(const FsmDescriptor& d) {
    switch (d.kind) {
      case FsmKind::kDensity:
      case FsmKind::kStreamSpan:
        return d.feature_count / kMetastreamCount;
      case FsmKind::kTermShare:
        return 3;  // remaining ids are reserved
      default:
        return d.feature_count / (kMetastreamCount * kMaxQueryTerms);
    }
}

/** Count lanes after the four occurrence predicates; see Cell. */
constexpr std::uint32_t kBigramLane = 4;
constexpr std::uint32_t kProximityWindows[] = {8,   16,  32,   64,  128,
                                               256, 512, 1024, 4096};
constexpr std::uint32_t kProximityLane = kBigramLane + 4;
constexpr std::uint32_t kEarlyThresholds[] = {128,  512,   2048,
                                              8192, 32768, 131072};
constexpr std::uint32_t kEarlyLane =
    kProximityLane + static_cast<std::uint32_t>(std::size(kProximityWindows));

}  // namespace

FeatureFsm::FeatureFsm(const FsmDescriptor& descriptor)
    : descriptor_(descriptor) {
    Reset();
}

void FeatureFsm::Reset() {
    cells_.fill(Cell{});
    stream_totals_.fill(0);
    total_hits_ = 0;
    previous_term_ = 0xFF;
    previous_stream_ = 0xFF;
    previous_position_ = 0;
}

FeatureFsm::Cell& FeatureFsm::CellFor(int stream, int term) {
    return cells_[static_cast<std::size_t>(stream) * kMaxQueryTerms +
                  static_cast<std::size_t>(term)];
}

void FeatureFsm::Consume(const HitTuple& tuple, std::uint32_t position) {
    const int stream = tuple.stream % kMetastreamCount;
    const int term = tuple.term % kMaxQueryTerms;
    Cell& cell = CellFor(stream, term);
    ++total_hits_;
    ++stream_totals_[static_cast<std::size_t>(stream)];

    // Kind-specific filters decide whether this tuple "counts".
    bool counts = true;
    std::uint32_t value = 1;
    switch (descriptor_.kind) {
      case FsmKind::kCountOccurrences:
        if (descriptor_.param == 1) counts = tuple.properties != 0;
        else if (descriptor_.param == 2) counts = tuple.delta < 4;
        else if (descriptor_.param == 3) counts = tuple.delta >= 4;
        break;
      case FsmKind::kFirstOccurrence:
      case FsmKind::kLastOccurrence:
      case FsmKind::kCoverageSpan:
        if (descriptor_.param == 1) counts = tuple.properties != 0;
        else if (descriptor_.param == 2) counts = tuple.delta < 4;
        value = position;
        break;
      case FsmKind::kMeanGap:
        if (descriptor_.param == 1) counts = tuple.properties != 0;
        value = tuple.delta;
        break;
      case FsmKind::kMaxGap:
        if (descriptor_.param == 1) counts = tuple.properties != 0;
        value = tuple.delta;
        break;
      case FsmKind::kPropertySum:
        if (descriptor_.param == 1) counts = tuple.properties >= 256;
        else if (descriptor_.param == 2) {
            counts = tuple.properties > 0 && tuple.properties < 256;
        } else {
            counts = tuple.properties != 0;
        }
        value = tuple.properties;
        break;
      case FsmKind::kPropertyMax:
        if (descriptor_.param == 1) counts = tuple.properties >= 16;
        value = tuple.properties;
        break;
      case FsmKind::kBigramAdjacency:
        switch (descriptor_.param) {
          case 0:
            counts = previous_stream_ == stream &&
                     previous_term_ + 1 == tuple.term;
            break;
          case 1:
            counts = previous_stream_ == stream && previous_term_ == tuple.term;
            break;
          case 2:
            counts = previous_stream_ != stream &&
                     previous_stream_ != 0xFF && previous_term_ == tuple.term;
            break;
          default:
            counts = previous_stream_ == stream &&
                     previous_term_ + 1 == tuple.term && tuple.properties != 0;
            break;
        }
        break;
      case FsmKind::kProximityWindow:
        counts = previous_stream_ == stream && tuple.delta <= descriptor_.param;
        break;
      case FsmKind::kEarlySection:
        counts = position <= descriptor_.param;
        break;
      case FsmKind::kDensity:
      case FsmKind::kStreamSpan:
        value = tuple.delta;
        break;
      case FsmKind::kTermShare:
        break;
    }

    if (counts) {
        ++cell.count;
        if (cell.count == 1) cell.first = position;
        cell.last = position;
        cell.sum += value;
        if (value > cell.max) cell.max = value;
        if (tuple.delta > cell.max_gap) cell.max_gap = tuple.delta;
    }

    previous_term_ = tuple.term;
    previous_stream_ = static_cast<std::uint8_t>(stream);
    previous_position_ = position;
}

void FeatureFsm::Emit(const CompressedRequest& request,
                      FeatureStore& store) const {
    const std::uint32_t vpc = ValuesPerCell(descriptor_);
    const float doc_norm =
        1.0f / (1.0f + static_cast<float>(request.document_length));

    auto emit_cell = [&](std::uint32_t cell_index, float primary) {
        if (primary == 0.0f) return;  // §4.4: only non-zero values emitted
        const std::uint32_t base =
            descriptor_.feature_base + cell_index * vpc;
        store.Set(base, primary);
        if (vpc >= 2) store.Set(base + 1, primary * doc_norm);
        if (vpc >= 3) store.Set(base + 2, std::log1p(primary));
    };

    switch (descriptor_.kind) {
      case FsmKind::kDensity:
        for (int s = 0; s < kMetastreamCount; ++s) {
            const auto hits = stream_totals_[static_cast<std::size_t>(s)];
            emit_cell(static_cast<std::uint32_t>(s),
                      static_cast<float>(hits) /
                          (1.0f + static_cast<float>(request.document_length)));
        }
        return;
      case FsmKind::kStreamSpan: {
        for (int s = 0; s < kMetastreamCount; ++s) {
            // Span accumulated in the per-stream cells' sums.
            std::uint64_t span = 0;
            for (int t = 0; t < kMaxQueryTerms; ++t) {
                span += cells_[static_cast<std::size_t>(s) * kMaxQueryTerms +
                               static_cast<std::size_t>(t)].sum;
            }
            emit_cell(static_cast<std::uint32_t>(s), static_cast<float>(span));
        }
        return;
      }
      case FsmKind::kTermShare: {
        if (total_hits_ == 0) return;
        for (int t = 0; t < kMaxQueryTerms; ++t) {
            std::uint32_t term_hits = 0;
            for (int s = 0; s < kMetastreamCount; ++s) {
                term_hits +=
                    cells_[static_cast<std::size_t>(s) * kMaxQueryTerms +
                           static_cast<std::size_t>(t)].count;
            }
            emit_cell(static_cast<std::uint32_t>(t),
                      static_cast<float>(term_hits) /
                          static_cast<float>(total_hits_));
        }
        return;
      }
      default:
        break;
    }

    for (std::uint32_t cell_index = 0;
         cell_index < static_cast<std::uint32_t>(kMetastreamCount) * kMaxQueryTerms;
         ++cell_index) {
        const Cell& cell = cells_[cell_index];
        if (cell.count == 0) continue;
        float primary = 0.0f;
        switch (descriptor_.kind) {
          case FsmKind::kCountOccurrences:
          case FsmKind::kBigramAdjacency:
          case FsmKind::kProximityWindow:
          case FsmKind::kEarlySection:
            primary = static_cast<float>(cell.count);
            break;
          case FsmKind::kFirstOccurrence:
            primary = static_cast<float>(cell.first);
            break;
          case FsmKind::kLastOccurrence:
            primary = static_cast<float>(cell.last);
            break;
          case FsmKind::kCoverageSpan:
            primary = static_cast<float>(cell.last - cell.first);
            break;
          case FsmKind::kMeanGap:
            primary = static_cast<float>(cell.sum) /
                      static_cast<float>(cell.count);
            break;
          case FsmKind::kMaxGap:
            primary = static_cast<float>(cell.max_gap);
            break;
          case FsmKind::kPropertySum:
            primary = static_cast<float>(cell.sum);
            break;
          case FsmKind::kPropertyMax:
            primary = static_cast<float>(cell.max);
            break;
          default:
            break;
        }
        emit_cell(cell_index, primary);
    }
}

FeatureExtractor::FeatureExtractor() {
    static_assert(kEarlyLane + std::size(kEarlyThresholds) == kCountLanes);
    for (const FsmDescriptor& descriptor : Descriptors()) {
        const Output output = OutputFor(descriptor);
        const bool aggregate = output.source >= Source::kDensity;
        (aggregate ? aggregate_outputs_ : cell_outputs_).push_back(output);
    }
}

const std::vector<FsmDescriptor>& FeatureExtractor::Descriptors() {
    static const std::vector<FsmDescriptor> descriptors = BuildDescriptors();
    return descriptors;
}

FeatureExtractor::Output FeatureExtractor::OutputFor(
    const FsmDescriptor& descriptor) {
    const std::uint32_t param = descriptor.param;
    // The param indexes a per-predicate lane directly, or names a
    // window or threshold that has a counting lane.
    const auto below = [param](std::uint32_t lanes) {
        return param < lanes ? std::optional(param) : std::nullopt;
    };
    const auto find = [param](std::span<const std::uint32_t> params,
                              std::uint32_t first_lane) {
        const auto it = std::find(params.begin(), params.end(), param);
        return it == params.end()
                   ? std::nullopt
                   : std::optional(first_lane + static_cast<std::uint32_t>(
                                                    it - params.begin()));
    };
    Source source = Source::kCount;
    std::optional<std::uint32_t> lane;
    switch (descriptor.kind) {
      case FsmKind::kCountOccurrences: lane = below(4); break;
      case FsmKind::kFirstOccurrence:
        source = Source::kFirst;
        lane = below(3);
        break;
      case FsmKind::kLastOccurrence:
        source = Source::kLast;
        lane = below(3);
        break;
      case FsmKind::kCoverageSpan:
        source = Source::kCoverage;
        lane = below(3);
        break;
      case FsmKind::kMeanGap:
        source = Source::kMeanGap;
        lane = below(2);
        break;
      case FsmKind::kMaxGap:
        source = Source::kMaxGap;
        lane = below(2);
        break;
      case FsmKind::kPropertySum:
        source = Source::kPropertySum;
        lane = below(3);
        break;
      case FsmKind::kPropertyMax:
        source = Source::kPropertyMax;
        lane = below(2);
        break;
      case FsmKind::kBigramAdjacency:
        if (param < 4) lane = kBigramLane + param;
        break;
      case FsmKind::kProximityWindow:
        lane = find(kProximityWindows, kProximityLane);
        break;
      case FsmKind::kEarlySection:
        lane = find(kEarlyThresholds, kEarlyLane);
        break;
      case FsmKind::kDensity:
        source = Source::kDensity;
        lane = below(1);
        break;
      case FsmKind::kStreamSpan:
        source = Source::kStreamSpan;
        lane = below(1);
        break;
      case FsmKind::kTermShare:
        source = Source::kTermShare;
        lane = below(1);
        break;
    }
    if (!lane) {
        FatalMisuse("FeatureExtractor: FSM %s (kind %d, param %u) has no "
                    "accumulator lane", descriptor.name.c_str(),
                    static_cast<int>(descriptor.kind), param);
    }
    return {source, *lane, descriptor.feature_base, ValuesPerCell(descriptor)};
}

void FeatureExtractor::Extract(const CompressedRequest& request,
                               FeatureStore& store) {
    cells_.fill(Cell{});

    // The Stream Processing FSM issues each tuple to all 43 FSMs (MISD);
    // here one pass updates the tuple's cell for all of them. Every lane
    // adds its predicate or takes a conditional max, with no branch.
    HitVectorReader reader(request);
    HitTuple tuple;
    std::uint32_t position = 0;
    std::uint8_t previous_term = 0xFF;
    std::uint8_t previous_stream = 0xFF;
    while (reader.Next(tuple)) {
        position += tuple.delta;
        const int stream = tuple.stream % kMetastreamCount;
        Cell& cell = cells_[static_cast<std::size_t>(stream) * kMaxQueryTerms +
                            tuple.term % kMaxQueryTerms];
        const std::uint32_t delta = tuple.delta;
        const std::uint32_t props = tuple.properties;
        const std::uint32_t has_props = props != 0;
        const std::uint32_t hit[3] = {1, has_props, delta < 4};
        for (std::size_t k = 0; k < 3; ++k) {
            cell.first[k] =
                hit[k] != 0 && cell.count[k] == 0 ? position : cell.first[k];
            cell.last[k] = hit[k] != 0 ? position : cell.last[k];
            cell.count[k] += hit[k];
        }
        cell.count[3] += delta >= 4;
        for (std::size_t k = 0; k < 2; ++k) {
            const std::uint32_t gap = hit[k] != 0 ? delta : 0;
            cell.gap_sum[k] += gap;
            cell.max_gap[k] = std::max(cell.max_gap[k], gap);
        }
        cell.property_sum[0] += props;
        cell.property_sum[1] += props >= 256 ? props : 0;
        cell.property_sum[2] += props < 256 ? props : 0;
        cell.property_max[0] = std::max(cell.property_max[0], props);
        cell.property_max[1] =
            std::max(cell.property_max[1], props >= 16 ? props : 0u);

        const std::uint32_t same_stream = previous_stream == stream;
        const std::uint32_t same_term = previous_term == tuple.term;
        const std::uint32_t next_term = previous_term + 1 == tuple.term;
        const std::uint32_t cross_stream =
            (same_stream ^ 1u) & (previous_stream != 0xFF);
        std::uint32_t* count = cell.count.data();
        count[kBigramLane + 0] += same_stream & next_term;
        count[kBigramLane + 1] += same_stream & same_term;
        count[kBigramLane + 2] += cross_stream & same_term;
        count[kBigramLane + 3] += same_stream & next_term & has_props;
        for (std::size_t w = 0; w < std::size(kProximityWindows); ++w) {
            count[kProximityLane + w] +=
                same_stream & (delta <= kProximityWindows[w]);
        }
        for (std::size_t e = 0; e < std::size(kEarlyThresholds); ++e) {
            count[kEarlyLane + e] += position <= kEarlyThresholds[e];
        }
        previous_term = tuple.term;
        previous_stream = static_cast<std::uint8_t>(stream);
    }

    // Feature Gathering Network: coalesce all non-zero outputs.
    Emit(request, store);

    // Software-computed features ride along with the request (§4.1).
    for (const auto& feature : request.software_features) {
        store.Set(SoftwareFeatureSlot(feature.feature_id), feature.value);
    }
}

void FeatureExtractor::Emit(const CompressedRequest& request,
                            FeatureStore& store) const {
    const float doc_norm =
        1.0f / (1.0f + static_cast<float>(request.document_length));
    // FeatureFsm::Emit's write for one cell; a zero primary writes nothing.
    const auto emit = [&](const Output& output, std::uint32_t index,
                          float primary) {
        if (primary == 0.0f) return;
        const std::uint32_t base =
            output.feature_base + index * output.values_per_cell;
        store.Set(base, primary);
        if (output.values_per_cell >= 2) store.Set(base + 1, primary * doc_norm);
        if (output.values_per_cell >= 3) store.Set(base + 2, std::log1p(primary));
    };

    // Per-(stream, term) FSMs. An FSM that counted nothing in a cell
    // emits nothing there; a cell no tuple reached has every lane zero.
    for (std::uint32_t c = 0; c < cells_.size(); ++c) {
        const Cell& cell = cells_[c];
        if (cell.count[0] == 0) continue;
        for (const Output& output : cell_outputs_) {
            const std::uint32_t lane = output.lane;
            const bool counted = cell.count[lane] != 0;
            float primary = 0.0f;
            switch (output.source) {
              case Source::kCount:
                primary = static_cast<float>(cell.count[lane]);
                break;
              case Source::kFirst:
                if (counted) primary = static_cast<float>(cell.first[lane]);
                break;
              case Source::kLast:
                if (counted) primary = static_cast<float>(cell.last[lane]);
                break;
              case Source::kCoverage:
                if (counted) {
                    primary = static_cast<float>(cell.last[lane] - cell.first[lane]);
                }
                break;
              case Source::kMeanGap:
                if (counted) {
                    primary = static_cast<float>(cell.gap_sum[lane]) /
                              static_cast<float>(cell.count[lane]);
                }
                break;
              case Source::kMaxGap:
                if (counted) primary = static_cast<float>(cell.max_gap[lane]);
                break;
              // Every tuple these count has properties >= 1, so a zero
              // sum or max means the FSM counted nothing.
              case Source::kPropertySum:
                primary = static_cast<float>(cell.property_sum[lane]);
                break;
              case Source::kPropertyMax:
                primary = static_cast<float>(cell.property_max[lane]);
                break;
              default:
                break;
            }
            emit(output, c, primary);
        }
    }

    // Aggregate FSMs read the every-hit lanes summed over terms or streams.
    std::array<std::uint32_t, kMetastreamCount> stream_hits{};
    std::array<std::uint64_t, kMetastreamCount> stream_span{};
    std::array<std::uint32_t, kMaxQueryTerms> term_hits{};
    std::uint32_t total_hits = 0;
    for (std::size_t s = 0; s < kMetastreamCount; ++s) {
        for (std::size_t t = 0; t < kMaxQueryTerms; ++t) {
            const Cell& cell = cells_[s * kMaxQueryTerms + t];
            stream_hits[s] += cell.count[0];
            stream_span[s] += cell.gap_sum[0];
            term_hits[t] += cell.count[0];
            total_hits += cell.count[0];
        }
    }
    for (const Output& output : aggregate_outputs_) {
        switch (output.source) {
          case Source::kDensity:
            for (std::uint32_t s = 0; s < kMetastreamCount; ++s) {
                emit(output, s,
                     static_cast<float>(stream_hits[s]) /
                         (1.0f + static_cast<float>(request.document_length)));
            }
            break;
          case Source::kStreamSpan:
            for (std::uint32_t s = 0; s < kMetastreamCount; ++s) {
                emit(output, s, static_cast<float>(stream_span[s]));
            }
            break;
          case Source::kTermShare:
            if (total_hits == 0) break;
            for (std::uint32_t t = 0; t < kMaxQueryTerms; ++t) {
                emit(output, t,
                     static_cast<float>(term_hits[t]) /
                         static_cast<float>(total_hits));
            }
            break;
          default:
            break;
        }
    }
}

Time FeatureExtractor::ServiceTime(std::uint32_t tuple_count) {
    constexpr Frequency kClock = Frequency::MHz(150.0);  // Table 1.
    // Fixed cycles: header parse, FST swap, gather drain.
    constexpr std::int64_t kBaseCycles = 250;
    // Effective issue cycles per hit-vector tuple. The Stream Processing
    // FSM dispatches tokens to all 43 FSMs in parallel (MISD), so the
    // effective per-tuple rate is sub-cycle.
    constexpr double kCyclesPerTuple = 0.5;
    const auto cycles =
        kBaseCycles +
        static_cast<std::int64_t>(kCyclesPerTuple * tuple_count + 1);
    return kClock.Cycles(cycles);
}

}  // namespace catapult::rank
