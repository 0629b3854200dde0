#include "rank/scorer.h"

#include <algorithm>
#include <cassert>

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
    ++tree_count_;
    if (tree.nodes.empty()) return;
    roots_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    // Depth-first from node 0, left before right; a split's right index
    // is filled in when its right subtree starts.
    struct Pending {
        std::int32_t node;
        std::size_t split;  ///< Flat split whose right child this is.
    };
    constexpr std::size_t kNoSplit = ~std::size_t{0};
    std::vector<Pending> stack = {{0, kNoSplit}};
    [[maybe_unused]] const std::size_t first = nodes_.size();
    while (!stack.empty()) {
        const Pending next = stack.back();
        stack.pop_back();
        assert(next.node >= 0 &&
               next.node < static_cast<std::int32_t>(tree.nodes.size()));
        assert(nodes_.size() - first < tree.nodes.size() &&
               "a node is reachable twice: not a tree");
        const TreeNode& node = tree.nodes[static_cast<std::size_t>(next.node)];
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
    assert(nodes_.size() - first == tree.nodes.size() &&
           "a node is unreachable from the root");
}

float ScorerShard::PartialScore(const FeatureStore& store) const {
    // Pipeline-order accumulation: trees evaluate in array order so the
    // float sum is deterministic and identical to software. The step to
    // a child is a mask select, so only a tree's exit is a jump that
    // depends on the data.
    const FlatNode* nodes = nodes_.data();
    float sum = 0.0f;
    for (const std::uint32_t root : roots_) {
        std::uint32_t index = root;
        while (nodes[index].feature != TreeNode::kLeaf) {
            const FlatNode& node = nodes[index];
            const std::uint32_t left =
                0u - static_cast<std::uint32_t>(store.Get(node.feature) <=
                                                node.value);
            index = ((index + 1) & left) | (node.right & ~left);
        }
        sum += nodes[index].value;
    }
    return sum;
}

Time ScorerShard::ServiceTime() const {
    const std::int64_t tree_cycles =
        static_cast<std::int64_t>(
            (tree_count_ + timing_.tree_units - 1) / timing_.tree_units) *
        timing_.cycles_per_tree;
    return timing_.clock.Cycles(timing_.base_cycles + tree_cycles);
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
