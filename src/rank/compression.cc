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
    const std::int64_t scan_cycles =
        static_cast<std::int64_t>((kFeatureUniverse + 63) / 64) *
        timing_.cycles_per_64_slots;
    return timing_.clock.Cycles(timing_.base_cycles + scan_cycles);
}

}  // namespace catapult::rank
