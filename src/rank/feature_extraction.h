// Feature Extraction (FE) stage (§4.4).
//
// "We currently implement 43 unique feature extraction state machines,
// with up to 4,484 features calculated ... Each state machine reads the
// stream of tuples one at a time and performs a local calculation ...
// At the end of a stream, the state machine outputs all non-zero
// feature values." The 43 FSMs run in parallel on the same input stream
// (MISD), fed by a Stream Processing FSM and drained by a Feature
// Gathering Network; inputs are double-buffered.
//
// FeatureFsm is the reference: one streaming state machine per
// descriptor, each keeping its own copy of every (stream, term) cell.
// FeatureExtractor computes the same features in one pass. All 43 FSMs
// read the same tuple stream, so state they would each keep alike (the
// previous tuple; hit counts per stream and in total) is kept once, and
// FSMs that keep the same per-cell state share one accumulator lane:
// NumberOfOccurrences, FirstOccurrence, LastOccurrence and CoverageSpan
// all count on the same three predicates, MeanGap and MaxGap on two of
// them, and each proximity window and early-section threshold is one
// more counting lane. The lanes are stored cell-major, so a tuple
// updates one (stream, term) cell of 176 bytes rather than a cell in
// each of 43 FSMs, and every update is branch-free. Emit applies each
// FSM's reference formula to its lanes, so the features are
// bit-identical to the reference's. The same code runs in the simulated
// FPGA role and in the software baseline, which is what makes the two
// paths' scores identical (§4). Timing-wise, the stage cost is the
// stream issue rate (the FSMs themselves keep up at 1-2 cycles per
// token because they run in parallel).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "rank/document.h"
#include "rank/feature_space.h"

namespace catapult::rank {

/** Identifies one of the 43 FSM computation kinds. */
enum class FsmKind : std::uint8_t {
    kCountOccurrences,   ///< Hits per (stream, term).
    kFirstOccurrence,    ///< Position of first hit per (stream, term).
    kLastOccurrence,     ///< Position of last hit per (stream, term).
    kCoverageSpan,       ///< last - first per (stream, term).
    kMeanGap,            ///< Mean delta between hits per (stream, term).
    kMaxGap,             ///< Largest delta per (stream, term).
    kPropertySum,        ///< Sum of tuple properties per (stream, term).
    kPropertyMax,        ///< Max property per (stream, term).
    kBigramAdjacency,    ///< term t directly followed by t+1 (stream, term).
    kProximityWindow,    ///< Hits within a window of the previous hit.
    kEarlySection,       ///< Hits before a position threshold.
    kDensity,            ///< Hits / document length per stream.
    kStreamSpan,         ///< Total advance per stream.
    kTermShare,          ///< Term's share of all hits (per term).
};

/** Static descriptor for one FSM instance. */
struct FsmDescriptor {
    FsmKind kind;
    std::string name;
    /** Variant parameter (window size, position threshold, etc.). */
    std::uint32_t param = 0;
    /** First feature id owned by this FSM. */
    std::uint32_t feature_base = 0;
    /** Number of feature ids owned. */
    std::uint32_t feature_count = 0;
};

/**
 * One streaming feature state machine. Consume() is called once per
 * tuple in stream order; Emit() writes the non-zero results. The
 * reference that FeatureExtractor's shared accumulators are tested
 * against.
 */
class FeatureFsm {
  public:
    explicit FeatureFsm(const FsmDescriptor& descriptor);

    void Reset();
    void Consume(const HitTuple& tuple, std::uint32_t position);
    void Emit(const CompressedRequest& request, FeatureStore& store) const;

  private:
    struct Cell {
        std::uint32_t count = 0;
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        std::uint32_t max_gap = 0;
        std::uint64_t sum = 0;
        std::uint32_t max = 0;
    };

    Cell& CellFor(int stream, int term);

    FsmDescriptor descriptor_;
    std::array<Cell, kMetastreamCount * kMaxQueryTerms> cells_;
    std::array<std::uint32_t, kMetastreamCount> stream_totals_{};
    std::uint32_t total_hits_ = 0;
    std::uint8_t previous_term_ = 0xFF;
    std::uint8_t previous_stream_ = 0xFF;
    std::uint32_t previous_position_ = 0;
};

/**
 * The complete FE stage: stream processor + 43 FSMs + gathering network,
 * run as one pass over shared accumulators (see the file comment).
 */
class FeatureExtractor {
  public:
    /**
     * Maps every descriptor to its accumulator lane; aborts on a
     * (kind, param) that no lane computes.
     */
    FeatureExtractor();

    /** The 43 FSM descriptors (§4.4). */
    static const std::vector<FsmDescriptor>& Descriptors();

    /**
     * Run the full extraction for a request: streams every tuple
     * through all 43 FSMs and writes non-zero features + remapped
     * software features into `store`.
     */
    void Extract(const CompressedRequest& request, FeatureStore& store);

    /**
     * Stage service time for a request of `tuple_count` hit-vector
     * tuples (§4.2 macropipeline budget; FE is the pipeline bottleneck,
     * §5): the time every FE stage of the simulator takes.
     */
    static Time ServiceTime(std::uint32_t tuple_count);

  private:
    /**
     * Counting lanes of a cell: the four occurrence predicates (every
     * hit, properties != 0, delta < 4, delta >= 4), the four bigram
     * tests in BigramAdjacency's param order, the nine proximity windows
     * and the six early-section thresholds.
     */
    static constexpr std::size_t kCountLanes = 4 + 4 + 9 + 6;

    /**
     * One (stream, term) cell's accumulators. A lane adds its predicate
     * (0 or 1) or takes a conditional max; the array index of each
     * per-predicate lane is the param of the FSMs that read it.
     */
    struct Cell {
        std::array<std::uint32_t, kCountLanes> count{};
        /** Positions of the first and last hit: the first 3 predicates. */
        std::array<std::uint32_t, 3> first{};
        std::array<std::uint32_t, 3> last{};
        /** Largest delta: every hit, properties != 0. */
        std::array<std::uint32_t, 2> max_gap{};
        /** Largest properties: properties != 0, properties >= 16. */
        std::array<std::uint32_t, 2> property_max{};
        /** Sum of deltas: every hit, properties != 0. */
        std::array<std::uint64_t, 2> gap_sum{};
        /** Sum of properties: != 0, >= 256, in [1, 256). */
        std::array<std::uint64_t, 3> property_sum{};
    };

    /**
     * Which accumulator an FSM's primary value comes from; the
     * aggregates, per stream or per term, come last.
     */
    enum class Source : std::uint8_t {
        kCount,        ///< count[lane]
        kFirst,        ///< first[lane]
        kLast,         ///< last[lane]
        kCoverage,     ///< last[lane] - first[lane]
        kMeanGap,      ///< gap_sum[lane] / count[lane]
        kMaxGap,       ///< max_gap[lane]
        kPropertySum,  ///< property_sum[lane]
        kPropertyMax,  ///< property_max[lane]
        kDensity,      ///< Per stream: every-hit count / document length.
        kStreamSpan,   ///< Per stream: every-hit sum of deltas.
        kTermShare,    ///< Per term: every-hit count / all hits.
    };

    /** One descriptor's place in the accumulators and the feature space. */
    struct Output {
        Source source;
        std::uint32_t lane;
        std::uint32_t feature_base;
        std::uint32_t values_per_cell;
    };

    static Output OutputFor(const FsmDescriptor& descriptor);
    void Emit(const CompressedRequest& request, FeatureStore& store) const;

    /** The per-(stream, term) FSMs' outputs, then the aggregates'. */
    std::vector<Output> cell_outputs_;
    std::vector<Output> aggregate_outputs_;
    std::array<Cell, kMetastreamCount * kMaxQueryTerms> cells_;
};

}  // namespace catapult::rank
