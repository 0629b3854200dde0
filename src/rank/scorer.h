// Document scoring (§4.6): the machine-learned model evaluator.
//
// "The last stage of the pipeline is a machine learned model evaluator
// which takes the features and free form expressions as inputs and
// produces a single floating-point score." Bing-era rankers were
// boosted-tree ensembles; the evaluator here is an additive ensemble of
// depth-limited binary decision trees over the feature store, split
// across the three scoring FPGAs (Table 1: Scr0-2) which each evaluate
// a shard of the trees and accumulate partial sums down the pipeline.
//
// A shard stores its trees as one preorder node array, so a split's left
// child is the next node and a traversal walks forward through memory
// (Lucchese et al., QuickScorer, SIGIR 2015, on why pointer-chasing
// separately allocated trees is slow). PartialScore walks the trees 16
// at a time, one level per step for the whole group, so a document runs
// 16 independent load chains at once instead of one; a tree that
// reaches its leaf early stays there until the group's last one does
// (Asadi, Lin & de Vries, "Runtime Optimizations for Tree-Based Machine
// Learning Models", IEEE TKDE 2014 — VPred's interleaved evaluation).
// DecisionTree remains the reference form that tests compare the shard
// against.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "rank/feature_space.h"

namespace catapult::rank {

/** One node of a decision tree (leaf when feature == kLeaf). */
struct TreeNode {
    static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
    std::uint32_t feature = kLeaf;
    float threshold = 0.0f;  ///< go left when value <= threshold
    float leaf_value = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
};

/** A single regression tree stored as a node array (the reference form). */
struct DecisionTree {
    std::vector<TreeNode> nodes;

    float Evaluate(const FeatureStore& store) const;
    int NodeCount() const { return static_cast<int>(nodes.size()); }
};

class ScoringEnsemble;

ScoringEnsemble GenerateEnsemble(std::uint64_t seed, int tree_count,
                                 int max_depth, int operand_budget);

/** One scoring stage's shard of the ensemble. */
class ScorerShard {
  public:
    /** A node of the preorder array; a split's left child is the next node. */
    struct FlatNode {
        std::uint32_t feature = TreeNode::kLeaf;
        float value = 0.0f;       ///< Split threshold, or the leaf's output.
        std::uint32_t right = 0;  ///< Index of a split's right child.
    };

    ScorerShard() = default;
    /**
     * Flattens `trees`, whatever their node order, into preorder. Aborts
     * on a tree whose child index is out of range, that reaches a node
     * twice or leaves one unreachable, or that splits on a feature
     * outside the feature universe.
     */
    explicit ScorerShard(std::span<const DecisionTree> trees);

    /** Partial score: sum of this shard's tree outputs, in tree order. */
    float PartialScore(const FeatureStore& store) const;

    /** Stage service time for one document. */
    Time ServiceTime() const;

    /**
     * Model memory footprint (drives Model Reload cost, §4.3): 8 bytes
     * per node (feature id, threshold/leaf, child offsets packed).
     */
    Bytes ModelBytes() const { return total_nodes() * 8; }

    int tree_count() const { return tree_count_; }
    std::int64_t total_nodes() const {
        return static_cast<std::int64_t>(nodes_.size());
    }
    /** Every tree's nodes, tree after tree. */
    const std::vector<FlatNode>& nodes() const { return nodes_; }

  private:
    friend ScoringEnsemble GenerateEnsemble(std::uint64_t, int, int, int);

    void AppendTree(const DecisionTree& tree);

    std::vector<FlatNode> nodes_;
    /**
     * First node of each tree with nodes. An empty tree scores +0.0f,
     * and adding +0.0f leaves a sum that starts at +0.0f bit-identical,
     * so empty trees only count towards tree_count().
     */
    std::vector<std::uint32_t> roots_;
    int tree_count_ = 0;
};

/**
 * The full ensemble: shards for the three scoring FPGAs. The final
 * score is the sum of all shard partials (bit-identical regardless of
 * shard boundaries because partial sums accumulate in pipeline order).
 */
class ScoringEnsemble {
  public:
    static constexpr int kShardCount = 3;

    ScoringEnsemble() = default;
    explicit ScoringEnsemble(std::span<const DecisionTree> trees);

    /** Full score: evaluate all shards in pipeline order. */
    float Score(const FeatureStore& store) const;

    const ScorerShard& shard(int i) const { return shards_[i]; }
    ScorerShard& shard(int i) { return shards_[i]; }
    int total_trees() const;

  private:
    ScorerShard shards_[kShardCount];
};

/**
 * Synthesize a random ensemble for a model seed. Trees draw their split
 * features from a per-model operand window of `operand_budget` distinct
 * feature slots (models use feature subsets; this is what keeps the
 * compression stage's output — the operand set — small enough to stream
 * between the scoring chips within the macropipeline budget). Trees are
 * generated straight into their shards' preorder arrays.
 */
ScoringEnsemble GenerateEnsemble(std::uint64_t seed, int tree_count,
                                 int max_depth = 6,
                                 int operand_budget = 4'000);

}  // namespace catapult::rank
