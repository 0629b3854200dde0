// Unit tests for the document-scoring ensemble (§4.6).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rank/scorer.h"

namespace catapult::rank {
namespace {

FeatureStore MakeStore(float scale = 1.0f) {
    FeatureStore store;
    for (std::uint32_t i = 0; i < kFeatureUniverse; i += 5) {
        store.Set(i, scale * static_cast<float>(i % 23));
    }
    return store;
}

TEST(DecisionTree, LeafOnlyTree) {
    DecisionTree tree;
    TreeNode leaf;
    leaf.feature = TreeNode::kLeaf;
    leaf.leaf_value = 0.25f;
    tree.nodes.push_back(leaf);
    FeatureStore store;
    EXPECT_EQ(tree.Evaluate(store), 0.25f);
}

TEST(DecisionTree, BranchesOnThreshold) {
    DecisionTree tree;
    TreeNode root;
    root.feature = 10;
    root.threshold = 5.0f;
    root.left = 1;
    root.right = 2;
    tree.nodes.push_back(root);
    TreeNode left;
    left.feature = TreeNode::kLeaf;
    left.leaf_value = -1.0f;
    tree.nodes.push_back(left);
    TreeNode right;
    right.feature = TreeNode::kLeaf;
    right.leaf_value = 1.0f;
    tree.nodes.push_back(right);

    FeatureStore store;
    store.Set(10, 3.0f);
    EXPECT_EQ(tree.Evaluate(store), -1.0f);
    store.Set(10, 7.0f);
    EXPECT_EQ(tree.Evaluate(store), 1.0f);
    store.Set(10, 5.0f);  // boundary goes left
    EXPECT_EQ(tree.Evaluate(store), -1.0f);
}

TEST(ScoringEnsemble, ShardsPreserveTotalScore) {
    // The 3-chip split must not change the score: shard partials sum in
    // pipeline order, identical to a single evaluator (§4.6).
    const ScoringEnsemble ensemble = GenerateEnsemble(99, 300);
    const FeatureStore store = MakeStore();
    float sharded = 0.0f;
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        sharded += ensemble.shard(s).PartialScore(store);
    }
    EXPECT_EQ(sharded, ensemble.Score(store));
}

TEST(ScoringEnsemble, DeterministicForSeed) {
    const ScoringEnsemble a = GenerateEnsemble(7, 100);
    const ScoringEnsemble b = GenerateEnsemble(7, 100);
    const FeatureStore store = MakeStore();
    EXPECT_EQ(a.Score(store), b.Score(store));
    const ScoringEnsemble c = GenerateEnsemble(8, 100);
    EXPECT_NE(a.Score(store), c.Score(store));
}

TEST(ScoringEnsemble, ScoreDependsOnFeatures) {
    const ScoringEnsemble ensemble = GenerateEnsemble(11, 200);
    const FeatureStore a = MakeStore(1.0f);
    const FeatureStore b = MakeStore(2.0f);
    EXPECT_NE(ensemble.Score(a), ensemble.Score(b));
}

TEST(ScoringEnsemble, TreeCountSharding) {
    const ScoringEnsemble ensemble = GenerateEnsemble(13, 100);
    EXPECT_EQ(ensemble.total_trees(), 100);
    // Contiguous sharding: 34 + 34 + 32.
    EXPECT_EQ(ensemble.shard(0).tree_count(), 34);
    EXPECT_EQ(ensemble.shard(1).tree_count(), 34);
    EXPECT_EQ(ensemble.shard(2).tree_count(), 32);
}

TEST(ScorerShard, ServiceTimeScalesWithTrees) {
    const ScoringEnsemble small = GenerateEnsemble(17, 300);
    const ScoringEnsemble large = GenerateEnsemble(17, 6'000);
    EXPECT_LT(small.shard(0).ServiceTime(), large.shard(0).ServiceTime());
    // A production shard (2,000 trees) fits the 8 us macropipeline budget.
    EXPECT_LT(large.shard(0).ServiceTime(), Microseconds(8));
}

TEST(ScorerShard, ModelBytesProportionalToNodes) {
    const ScoringEnsemble ensemble = GenerateEnsemble(19, 500);
    const auto& shard = ensemble.shard(0);
    EXPECT_EQ(shard.ModelBytes(), shard.total_nodes() * 8);
    EXPECT_GT(shard.total_nodes(), shard.tree_count());
}

/** Feature slots the random oracle trees split on. */
constexpr std::uint32_t kOracleFeatures = 40;

/**
 * A random tree with `splits` split nodes. Splitting a random leaf and
 * appending its two children leaves the nodes out of preorder;
 * `shuffle` then permutes every node but the root as well.
 */
DecisionTree RandomTree(Rng& rng, int splits, bool shuffle) {
    const auto leaf_value = [&rng] {
        return rng.Chance(0.05) ? -0.0f : static_cast<float>(rng.Uniform(-0.5, 0.5));
    };
    DecisionTree tree;
    tree.nodes.push_back(TreeNode{.leaf_value = leaf_value()});
    std::vector<std::int32_t> leaves = {0};
    for (int s = 0; s < splits; ++s) {
        const std::size_t pick = rng.NextBounded(leaves.size());
        const std::int32_t index = leaves[pick];
        const auto left = static_cast<std::int32_t>(tree.nodes.size());
        tree.nodes.push_back(TreeNode{.leaf_value = leaf_value()});
        tree.nodes.push_back(TreeNode{.leaf_value = leaf_value()});
        TreeNode& split = tree.nodes[static_cast<std::size_t>(index)];
        split.feature = static_cast<std::uint32_t>(rng.NextBounded(kOracleFeatures));
        split.threshold = rng.Chance(0.2) ? 1.0f : static_cast<float>(rng.Uniform(-2.0, 2.0));
        split.left = left;
        split.right = left + 1;
        leaves[pick] = left;
        leaves.push_back(left + 1);
    }
    if (shuffle) {
        std::vector<std::int32_t> to(tree.nodes.size());
        std::iota(to.begin(), to.end(), 0);
        for (std::size_t i = to.size() - 1; i > 1; --i) {
            std::swap(to[i], to[1 + rng.NextBounded(i)]);
        }
        std::vector<TreeNode> moved(tree.nodes.size());
        for (std::size_t i = 0; i < to.size(); ++i) {
            TreeNode node = tree.nodes[i];
            if (node.feature != TreeNode::kLeaf) {
                node.left = to[static_cast<std::size_t>(node.left)];
                node.right = to[static_cast<std::size_t>(node.right)];
            }
            moved[static_cast<std::size_t>(to[i])] = node;
        }
        tree.nodes = std::move(moved);
    }
    return tree;
}

/** Split features drawn from finite values, ones, signed zeros, infinities and NaN. */
FeatureStore RandomOracleStore(Rng& rng) {
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              0.0f, -0.0f, 1.0f};
    FeatureStore store;
    for (std::uint32_t f = 0; f < kOracleFeatures; ++f) {
        store.Set(f, rng.Chance(0.3) ? specials[rng.NextBounded(std::size(specials))]
                                     : static_cast<float>(rng.Uniform(-2.0, 2.0)));
    }
    return store;
}

/** `count` trees: empty, single-leaf, and up to 40 splits in any node order. */
std::vector<DecisionTree> RandomTrees(Rng& rng, int count) {
    std::vector<DecisionTree> trees;
    for (int t = 0; t < count; ++t) {
        const double kind = rng.NextDouble();
        DecisionTree tree;
        if (kind >= 0.1) {
            const int splits =
                kind < 0.2 ? 0 : 1 + static_cast<int>(rng.NextBounded(40));
            tree = RandomTree(rng, splits, kind < 0.6);
        }
        trees.push_back(std::move(tree));
    }
    return trees;
}

/** The shard and the ensemble score `trees` exactly as the reference trees do. */
void ExpectMatchesOracle(Rng& rng, const std::vector<DecisionTree>& trees,
                         const std::string& label) {
    std::int64_t node_count = 0;
    for (const DecisionTree& tree : trees) node_count += tree.NodeCount();
    const ScorerShard shard(trees);
    EXPECT_EQ(shard.tree_count(), static_cast<int>(trees.size())) << label;
    EXPECT_EQ(shard.total_nodes(), node_count) << label;
    EXPECT_EQ(shard.ModelBytes(), node_count * 8) << label;
    const ScoringEnsemble ensemble(trees);
    const std::size_t per_shard =
        (trees.size() + ScoringEnsemble::kShardCount - 1) /
        ScoringEnsemble::kShardCount;

    for (int probe = 0; probe < 20; ++probe) {
        const FeatureStore store = RandomOracleStore(rng);
        float expected = 0.0f;
        float pipelined = 0.0f;
        for (std::size_t begin = 0; begin < trees.size(); begin += per_shard) {
            float partial = 0.0f;
            for (std::size_t t = begin; t < std::min(trees.size(), begin + per_shard); ++t) {
                const float value = trees[t].Evaluate(store);
                expected += value;
                partial += value;
            }
            pipelined += partial;
        }
        const float actual = shard.PartialScore(store);
        EXPECT_EQ(std::memcmp(&expected, &actual, sizeof actual), 0)
            << label << " probe " << probe;
        const float score = ensemble.Score(store);
        EXPECT_EQ(std::memcmp(&pipelined, &score, sizeof score), 0)
            << label << " probe " << probe;
    }
}

TEST(ScorerShard, MatchesDecisionTreeOracle) {
    // The preorder array must score exactly what the reference trees
    // score, summed in tree order, whatever the trees' node layout —
    // including single-leaf and empty trees and NaN features.
    Rng rng(2024);
    for (int round = 0; round < 60; ++round) {
        const int tree_count = 1 + static_cast<int>(rng.NextBounded(48));
        ExpectMatchesOracle(rng, RandomTrees(rng, tree_count),
                            "round " + std::to_string(round));
    }
    // Either side of one and two 16-tree groups.
    for (const int tree_count : {15, 16, 17, 31, 32, 33}) {
        for (int round = 0; round < 4; ++round) {
            ExpectMatchesOracle(rng, RandomTrees(rng, tree_count),
                                std::to_string(tree_count) + " trees, round " +
                                    std::to_string(round));
        }
    }
    // One group whose deep tree walks on long after its 15 single-leaf
    // neighbours have stopped; the empty trees are not in the group.
    std::vector<DecisionTree> mixed;
    for (int t = 0; t < 20; ++t) {
        if (t % 5 == 0) {
            mixed.emplace_back();
        } else {
            mixed.push_back(RandomTree(rng, t == 2 ? 40 : 0, /*shuffle=*/true));
        }
    }
    ExpectMatchesOracle(rng, mixed, "mixed group");
}

TEST(ScoringEnsemble, GoldenGeneratedScore) {
    // Pins the generated production-sized ensemble, so a change to how
    // trees are generated or laid out cannot silently move every score.
    const ScoringEnsemble ensemble = GenerateEnsemble(99, 6'000);
    std::int64_t nodes = 0;
    for (int s = 0; s < ScoringEnsemble::kShardCount; ++s) {
        nodes += ensemble.shard(s).total_nodes();
    }
    EXPECT_EQ(nodes, 193'096);
    const float score = ensemble.Score(MakeStore());
    std::uint32_t bits = 0;
    std::memcpy(&bits, &score, sizeof bits);
    EXPECT_EQ(bits, 0xbf85f3f0u);
}

// A malformed tree aborts in every build: in release a cycle would
// flatten forever, and a split past the feature store would read past it
// on every walk.
TEST(ScorerShardDeathTest, RejectsMalformedTrees) {
    const auto split = [](std::uint32_t feature, std::int32_t left,
                          std::int32_t right) {
        return TreeNode{.feature = feature, .threshold = 0.5f,
                        .left = left, .right = right};
    };
    const TreeNode leaf{.leaf_value = 1.0f};
    const auto flatten = [](std::vector<TreeNode> nodes) {
        const DecisionTree tree{std::move(nodes)};
        return ScorerShard(std::span<const DecisionTree>(&tree, 1));
    };
    EXPECT_DEATH(flatten({split(0, 1, 3), leaf, leaf}),
                 "ScorerShard: tree 0 has child index 3 outside \\[0, 3\\)");
    EXPECT_DEATH(flatten({split(0, 0, 1), leaf}),
                 "ScorerShard: tree 0 reaches node 0 twice: not a tree");
    EXPECT_DEATH(flatten({split(0, 1, 2), leaf, leaf, leaf}),
                 "ScorerShard: tree 0 reaches 3 of its 4 nodes from the root");
    EXPECT_DEATH(flatten({split(kFeatureUniverse, 1, 2), leaf, leaf}),
                 "ScorerShard: tree 0 node 0 splits on feature 13700 outside "
                 "\\[0, 13700\\)");
}

TEST(ScorerShard, EmptyShardScoresZero) {
    ScorerShard shard;
    FeatureStore store;
    EXPECT_EQ(shard.PartialScore(store), 0.0f);
    EXPECT_EQ(shard.ModelBytes(), 0);
}

}  // namespace
}  // namespace catapult::rank
