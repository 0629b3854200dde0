// Compression stage (§4.2).
//
// One FPGA in the ring runs "a compression stage that increases the
// efficiency of the scoring engines": it gathers the sparse dynamic
// features and FFE outputs into the dense operand layout the scoring
// engines consume. Functionally it selects exactly the feature slots
// the loaded model's trees reference (everything else need not cross
// the link); numerically it is the identity on those slots.

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "rank/feature_space.h"
#include "rank/scorer.h"

namespace catapult::rank {

class CompressionStage {
  public:
    struct Timing {
        Frequency clock = Frequency::MHz(180.0);  ///< Table 1 (Comp).
    };

    CompressionStage() = default;

    /**
     * Program the stage for a model: record which feature slots the
     * ensemble references (the compressed operand set).
     */
    void ProgramForModel(const ScoringEnsemble& ensemble);

    /**
     * Apply: copy the referenced slots from `in` to `out` (identity on
     * the operand set; other slots are dropped, matching the bandwidth
     * reduction purpose of the stage).
     */
    void Apply(const FeatureStore& in, FeatureStore& out) const;

    /** Stage service time per document. */
    Time ServiceTime() const;

    std::size_t operand_count() const { return operand_slots_.size(); }

    /**
     * Output payload bytes per document: the operand set packed to
     * 16-bit fixed point (the stage's whole purpose is making the
     * scoring engines' input stream cheap, §4.2).
     */
    Bytes CompressedPayloadBytes() const {
        return static_cast<Bytes>(operand_slots_.size()) * 2;
    }

    Timing& timing() { return timing_; }

  private:
    std::vector<std::uint32_t> operand_slots_;
    Timing timing_;
};

}  // namespace catapult::rank
