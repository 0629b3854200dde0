// Free Form Expressions (§4.5): mathematical combinations of extracted
// features.
//
// "There are typically thousands of FFEs, ranging from very simple
// (such as adding two features) to large and complex (thousands of
// operations including conditional execution and complex floating
// point operators such as ln, pow, and divide)."
//
// Expressions are ASTs over feature references and constants. The same
// AST is evaluated directly by the software baseline and compiled to
// the FFE processor ISA for the FPGA path; the compiler preserves
// evaluation order so both paths produce bit-identical floats.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "rank/feature_space.h"

namespace catapult::rank::ffe {

enum class OpCode : std::uint8_t {
    // Simple fully-pipelined ops.
    kAdd,
    kSub,
    kMul,
    kMax,
    kMin,
    kCmpGt,    ///< 1.0f if a > b else 0.0f.
    kSelect,   ///< cond != 0 ? a : b  (conditional execution).
    // Complex-block ops (shared per 6-core cluster, §4.5).
    kDiv,
    kLn,
    kExp,
    kFloatToInt,  ///< truncation to integer value, still carried as float.
    // Leaf loads.
    kLoadFeature,
    kLoadConst,
};

const char* ToString(OpCode op);

/** True for ops executed by the cluster-shared complex block. */
bool IsComplexOp(OpCode op);

// The FFE's arithmetic, shared by direct AST evaluation and the FFE
// processor so both produce the same bits, NaN payloads included. A
// compiler may swap the operands of a commutative float op, and that
// changes which NaN comes out when both operands are NaN; so add, sub,
// mul and div return the IEEE result unless it is NaN, and then their
// first NaN operand, quieted, or else (an invalid operation such as
// inf - inf) the hardware's default NaN that the operation produced.

/** `result`, with a NaN replaced as the comment above describes. */
inline float SettleNaN(float result, float a, float b) {
    if (!std::isnan(result)) [[likely]] return result;
    constexpr std::uint32_t kQuietBit = 0x0040'0000u;
    if (std::isnan(a)) return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) | kQuietBit);
    if (std::isnan(b)) return std::bit_cast<float>(std::bit_cast<std::uint32_t>(b) | kQuietBit);
    return result;
}

inline float Add(float a, float b) { return SettleNaN(a + b, a, b); }
inline float Sub(float a, float b) { return SettleNaN(a - b, a, b); }
inline float Mul(float a, float b) { return SettleNaN(a * b, a, b); }
/** The hardware divider saturates: division by zero yields 0. */
inline float Div(float a, float b) {
    return b == 0.0f ? 0.0f : SettleNaN(a / b, a, b);
}
/** ln is defined for positives; the hardware clamps at a small eps. */
inline float Ln(float a) { return std::log(a > 1e-30f ? a : 1e-30f); }
/** exp's input is clamped to keep the pipeline's fixed range. */
inline float Exp(float a) {
    return std::exp(a > 60.0f ? 60.0f : (a < -60.0f ? -60.0f : a));
}
/** Truncation to an integer value, still carried as a float. */
inline float FloatToInt(float a) { return std::trunc(a); }

/**
 * Operands `op` takes: none for a load, one for ln, exp and f2i, three
 * for select and two for every other op.
 */
int Arity(OpCode op);

/**
 * An expression AST stored as one array of nodes in post-order: every
 * node follows its operands' subtrees, so the root is last, a node's
 * last operand sits just before it and each other operand just before
 * the next operand's subtree. Compiling, splitting and evaluating are
 * loops over the array.
 */
class Expr {
  public:
    struct Node {
        OpCode op = OpCode::kLoadConst;
        std::uint32_t size = 1;     ///< Nodes in this node's subtree.
        float constant = 0.0f;      ///< kLoadConst.
        std::uint32_t feature = 0;  ///< kLoadFeature.
    };

    /**
     * Takes the nodes of one tree in post-order and sets every node's
     * `size`; aborts unless each op finds its operands and the last
     * node's subtree is the whole array.
     */
    explicit Expr(std::vector<Node> post_order);

    const std::vector<Node>& nodes() const { return nodes_; }

    /**
     * Indices of node `i`'s operands, first to last, in `operands`;
     * returns how many there are.
     */
    int Operands(std::uint32_t i, std::uint32_t (&operands)[3]) const;

    /** Total operation count (nodes). */
    int OpCount() const { return static_cast<int>(nodes_.size()); }
    /** Count of complex-block operations. */
    int ComplexOpCount() const;
    /** Depth of the tree. */
    int Depth() const;

    /** Direct evaluation against a feature store, operands first. */
    float Evaluate(const FeatureStore& store) const;

    std::unique_ptr<Expr> Clone() const { return std::make_unique<Expr>(*this); }

    /**
     * Replaces the subtree rooted at node `root` by one load of
     * `feature` and returns that subtree.
     */
    std::unique_ptr<Expr> Detach(std::uint32_t root, std::uint32_t feature);

  private:
    std::vector<Node> nodes_;
};

static_assert(sizeof(Expr::Node) == 16);

using ExprPtr = std::unique_ptr<Expr>;

ExprPtr MakeConst(float value);
ExprPtr MakeFeature(std::uint32_t feature);
ExprPtr MakeUnary(OpCode op, ExprPtr a);
ExprPtr MakeBinary(OpCode op, ExprPtr a, ExprPtr b);
ExprPtr MakeSelect(ExprPtr cond, ExprPtr if_true, ExprPtr if_false);

/**
 * Random expression generator for synthetic models. Sizes follow the
 * paper's description: most expressions are small, a heavy tail runs
 * to thousands of operations. `pow`, integer divide and mod are
 * compiler-expanded (§4.5), so the generator emits only primitive ops.
 */
class ExpressionGenerator {
  public:
    struct Config {
        /** P(small expression); small ~ 3-40 ops, else heavy tail. */
        double small_probability = 0.90;
    };

    ExpressionGenerator(std::uint64_t seed, Config config);
    explicit ExpressionGenerator(std::uint64_t seed)
        : ExpressionGenerator(seed, Config()) {}

    /** Generate one expression with a sampled size. */
    ExprPtr Generate();

    /** Generate one expression with approximately `target_ops` nodes. */
    ExprPtr GenerateWithSize(int target_ops);

  private:
    /**
     * Draws one node for a subtree of about `budget` ops and pushes its
     * operands' budgets onto `pending_`, first to last.
     */
    Expr::Node Draw(int budget);

    Config config_;
    Rng rng_;
    /** Budgets of the subtrees still to draw; the top one is next. */
    std::vector<int> pending_;
    /** The nodes drawn so far, in the order they were drawn. */
    std::vector<Expr::Node> drawn_;
};

}  // namespace catapult::rank::ffe
