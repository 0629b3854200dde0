#include "rank/compression.h"

#include <algorithm>

namespace catapult::rank {

void CompressionStage::ProgramForModel(const ScoringEnsemble& ensemble) {
    operand_slots_.clear();
    std::vector<bool> referenced(kFeatureUniverse, false);
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        for (const auto& node : ensemble.shard(s).nodes()) {
            if (node.feature != TreeNode::kLeaf) referenced[node.feature] = true;
        }
    }
    for (std::uint32_t id = 0; id < kFeatureUniverse; ++id) {
        if (referenced[id]) operand_slots_.push_back(id);
    }
}

void CompressionStage::Apply(const FeatureStore& in, FeatureStore& out) const {
    for (const std::uint32_t slot : operand_slots_) {
        out.Set(slot, in.Get(slot));
    }
}

Time CompressionStage::ServiceTime() const {
    // Cycles per 64 feature slots scanned (wide gather datapath).
    constexpr int kCyclesPer64Slots = 1;
    constexpr std::int64_t kBaseCycles = 100;
    const std::int64_t scan_cycles =
        static_cast<std::int64_t>((kFeatureUniverse + 63) / 64) *
        kCyclesPer64Slots;
    return timing_.clock.Cycles(kBaseCycles + scan_cycles);
}

}  // namespace catapult::rank
