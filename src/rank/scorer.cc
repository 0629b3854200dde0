#include "rank/scorer.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace catapult::rank {

float DecisionTree::Evaluate(const FeatureStore& store) const {
    if (nodes.empty()) return 0.0f;
    std::int32_t index = 0;
    while (true) {
        const TreeNode& node = nodes[static_cast<std::size_t>(index)];
        if (node.feature == TreeNode::kLeaf) return node.leaf_value;
        const float value = store.Get(node.feature);
        index = value <= node.threshold ? node.left : node.right;
        assert(index >= 0 && index < static_cast<std::int32_t>(nodes.size()));
    }
}

ScorerShard::ScorerShard(std::span<const DecisionTree> trees) {
    for (const DecisionTree& tree : trees) AppendTree(tree);
}

void ScorerShard::AppendTree(const DecisionTree& tree) {
    const int tree_index = tree_count_++;
    if (tree.nodes.empty()) return;
    roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    // Depth-first from node 0, left before right; a split's right index
    // is filled in when its right subtree starts.
    struct Pending {
        std::int32_t node;
        std::size_t split;  ///< Flat split whose right child this is.
    };
    constexpr std::size_t kNoSplit = ~std::size_t{0};
    const std::size_t size = tree.nodes.size();
    std::vector<Pending> stack = {{0, kNoSplit}};
    std::vector<bool> reached(size);
    const std::size_t first = nodes_.size();
    while (!stack.empty()) {
        const Pending next = stack.back();
        stack.pop_back();
        if (next.node < 0 || static_cast<std::size_t>(next.node) >= size) {
            FatalMisuse("ScorerShard: tree %d has child index %d outside "
                        "[0, %zu)", tree_index, next.node, size);
        }
        if (reached[static_cast<std::size_t>(next.node)]) {
            FatalMisuse("ScorerShard: tree %d reaches node %d twice: not a "
                        "tree", tree_index, next.node);
        }
        reached[static_cast<std::size_t>(next.node)] = true;
        const TreeNode& node = tree.nodes[static_cast<std::size_t>(next.node)];
        if (node.feature != TreeNode::kLeaf && node.feature >= kFeatureUniverse) {
            FatalMisuse("ScorerShard: tree %d node %d splits on feature %u "
                        "outside [0, %u)", tree_index, next.node, node.feature,
                        kFeatureUniverse);
        }
        if (next.split != kNoSplit) {
            nodes_[next.split].right = static_cast<std::uint32_t>(nodes_.size());
        }
        FlatNode flat;
        flat.feature = node.feature;
        flat.value = node.feature == TreeNode::kLeaf ? node.leaf_value
                                                     : node.threshold;
        nodes_.push_back(flat);
        if (node.feature != TreeNode::kLeaf) {
            stack.push_back({node.right, nodes_.size() - 1});
            stack.push_back({node.left, kNoSplit});
        }
    }
    if (nodes_.size() - first != size) {
        FatalMisuse("ScorerShard: tree %d reaches %zu of its %zu nodes from "
                    "the root", tree_index, nodes_.size() - first, size);
    }
}

float ScorerShard::PartialScore(const FeatureStore& store) const {
    // Pipeline-order accumulation: leaf values add up in tree order, so
    // the float sum is deterministic and identical to software. Trees
    // walk kGroup at a time, each step moving every tree of the group
    // one level down: the group's loads are independent, so their cache
    // misses overlap, and the step to a child is a mask select. A tree
    // at a leaf stays there (its feature id masks to slot 0), and the
    // group's one data-dependent jump is its exit once all are leaves.
    // In a shard's last group, the lanes past its last tree walk that
    // tree again, and their leaves are not summed.
    constexpr std::size_t kGroup = 16;
    const FlatNode* nodes = nodes_.data();
    const std::size_t tree_count = roots_.size();
    float sum = 0.0f;
    for (std::size_t t = 0; t < tree_count; t += kGroup) {
        const std::size_t n = std::min(kGroup, tree_count - t);
        std::uint32_t index[kGroup];
        std::fill(std::copy_n(roots_.data() + t, n, index), index + kGroup,
                  roots_[tree_count - 1]);
        for (;;) {
            std::uint32_t splits = 0;
            for (std::size_t k = 0; k < kGroup; ++k) {
                const FlatNode& node = nodes[index[k]];
                const std::uint32_t split =
                    0u - static_cast<std::uint32_t>(node.feature != TreeNode::kLeaf);
                const std::uint32_t left =
                    0u - static_cast<std::uint32_t>(
                             store.Get(node.feature & split) <= node.value);
                const std::uint32_t child =
                    ((index[k] + 1) & left) | (node.right & ~left);
                index[k] = (child & split) | (index[k] & ~split);
                splits |= split;
            }
            if (splits == 0) break;
        }
        for (std::size_t k = 0; k < n; ++k) sum += nodes[index[k]].value;
    }
    return sum;
}

Time ScorerShard::ServiceTime() const {
    constexpr Frequency kClock = Frequency::MHz(166.0);  // Table 1 (Scr0-2).
    // Parallel tree-evaluation pipelines per chip.
    constexpr int kTreeUnits = 8;
    // Cycles per tree per unit (pipelined traversal).
    constexpr int kCyclesPerTree = 2;
    // Fixed cycles: partial-sum accumulate, forwarding.
    constexpr std::int64_t kBaseCycles = 120;
    const std::int64_t tree_cycles =
        static_cast<std::int64_t>((tree_count_ + kTreeUnits - 1) /
                                  kTreeUnits) *
        kCyclesPerTree;
    return kClock.Cycles(kBaseCycles + tree_cycles);
}

ScoringEnsemble::ScoringEnsemble(std::span<const DecisionTree> trees) {
    // Contiguous shards preserve ensemble order across the 3 chips, so
    // Score() sums in the same order as a single-machine evaluation.
    const std::size_t per_shard = (trees.size() + kShardCount - 1) / kShardCount;
    for (int s = 0; s < kShardCount; ++s) {
        const std::size_t begin =
            std::min(trees.size(), static_cast<std::size_t>(s) * per_shard);
        shards_[s] = ScorerShard(
            trees.subspan(begin, std::min(per_shard, trees.size() - begin)));
    }
}

float ScoringEnsemble::Score(const FeatureStore& store) const {
    float score = 0.0f;
    for (const auto& shard : shards_) score += shard.PartialScore(store);
    return score;
}

int ScoringEnsemble::total_trees() const {
    int total = 0;
    for (const auto& shard : shards_) total += shard.tree_count();
    return total;
}

namespace {

/** Appends a random subtree in preorder; returns its root's index. */
std::uint32_t BuildSubtree(std::vector<ScorerShard::FlatNode>& nodes, Rng& rng,
                           int depth, int max_depth,
                           const std::vector<std::uint32_t>& operands) {
    const auto index = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace_back();
    if (depth >= max_depth || rng.Chance(0.25)) {
        nodes[index].feature = TreeNode::kLeaf;
        nodes[index].value = static_cast<float>(rng.Uniform(-0.5, 0.5));
        return index;
    }
    nodes[index].feature = operands[rng.NextBounded(operands.size())];
    nodes[index].value = static_cast<float>(rng.Uniform(0.0, 16.0));
    BuildSubtree(nodes, rng, depth + 1, max_depth, operands);  // left: index + 1
    const std::uint32_t right =
        BuildSubtree(nodes, rng, depth + 1, max_depth, operands);
    nodes[index].right = right;
    return index;
}

}  // namespace

ScoringEnsemble GenerateEnsemble(std::uint64_t seed, int tree_count,
                                 int max_depth, int operand_budget) {
    Rng rng(seed ^ 0x5C03E5C03E5C03E5ull);
    // Per-model feature selection: draw the operand window first, with
    // the paper's emphasis on dynamic features and FFE outputs.
    std::vector<std::uint32_t> operands;
    operands.reserve(static_cast<std::size_t>(operand_budget));
    for (int i = 0; i < operand_budget; ++i) {
        const double kind = rng.NextDouble();
        if (kind < 0.55) {
            operands.push_back(static_cast<std::uint32_t>(
                rng.NextBounded(kDynamicFeatureCount)));
        } else if (kind < 0.90) {
            operands.push_back(
                kFfeOutputBase +
                static_cast<std::uint32_t>(rng.NextBounded(kFfeOutputSlots)));
        } else {
            operands.push_back(kSoftwareFeatureBase +
                               static_cast<std::uint32_t>(
                                   rng.NextBounded(kSoftwareFeatureSlots)));
        }
    }
    // Contiguous sharding, as ScoringEnsemble(trees) does it.
    ScoringEnsemble ensemble;
    const int per_shard =
        (tree_count + ScoringEnsemble::kShardCount - 1) / ScoringEnsemble::kShardCount;
    for (int t = 0; t < tree_count; ++t) {
        ScorerShard& shard = ensemble.shard(t / per_shard);
        shard.roots_.push_back(
            BuildSubtree(shard.nodes_, rng, 0, max_depth, operands));
        ++shard.tree_count_;
    }
    return ensemble;
}

}  // namespace catapult::rank
