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

/** Expression AST node. */
struct Expr {
    OpCode op = OpCode::kLoadConst;
    float constant = 0.0f;          ///< kLoadConst.
    std::uint32_t feature = 0;      ///< kLoadFeature.
    std::vector<std::unique_ptr<Expr>> children;

    /** Total operation count (nodes). */
    int OpCount() const;
    /** Count of complex-block operations. */
    int ComplexOpCount() const;
    /** Depth of the tree. */
    int Depth() const;

    /** Direct recursive evaluation against a feature store. */
    float Evaluate(const FeatureStore& store) const;

    std::unique_ptr<Expr> Clone() const;
};

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
    ExprPtr Build(int budget);

    Config config_;
    Rng rng_;
};

}  // namespace catapult::rank::ffe
