#include "rank/ffe/expression.h"

#include <cassert>
#include <cmath>

namespace catapult::rank::ffe {

const char* ToString(OpCode op) {
    switch (op) {
      case OpCode::kAdd: return "add";
      case OpCode::kSub: return "sub";
      case OpCode::kMul: return "mul";
      case OpCode::kMax: return "max";
      case OpCode::kMin: return "min";
      case OpCode::kCmpGt: return "cmpgt";
      case OpCode::kSelect: return "select";
      case OpCode::kDiv: return "div";
      case OpCode::kLn: return "ln";
      case OpCode::kExp: return "exp";
      case OpCode::kFloatToInt: return "f2i";
      case OpCode::kLoadFeature: return "ldf";
      case OpCode::kLoadConst: return "ldc";
    }
    return "?";
}

bool IsComplexOp(OpCode op) {
    // §4.5: "The complex block consists of units for ln, fpdiv, exp,
    // and float-to-int."
    return op == OpCode::kDiv || op == OpCode::kLn || op == OpCode::kExp ||
           op == OpCode::kFloatToInt;
}

int Expr::OpCount() const {
    int count = 1;
    for (const auto& child : children) count += child->OpCount();
    return count;
}

int Expr::ComplexOpCount() const {
    int count = IsComplexOp(op) ? 1 : 0;
    for (const auto& child : children) count += child->ComplexOpCount();
    return count;
}

int Expr::Depth() const {
    int depth = 0;
    for (const auto& child : children) depth = std::max(depth, child->Depth());
    return depth + 1;
}

float Expr::Evaluate(const FeatureStore& store) const {
    switch (op) {
      case OpCode::kLoadConst:
        return constant;
      case OpCode::kLoadFeature:
        return store.Get(feature);
      case OpCode::kAdd:
        return Add(children[0]->Evaluate(store), children[1]->Evaluate(store));
      case OpCode::kSub:
        return Sub(children[0]->Evaluate(store), children[1]->Evaluate(store));
      case OpCode::kMul:
        return Mul(children[0]->Evaluate(store), children[1]->Evaluate(store));
      case OpCode::kMax: {
        const float a = children[0]->Evaluate(store);
        const float b = children[1]->Evaluate(store);
        return a > b ? a : b;
      }
      case OpCode::kMin: {
        const float a = children[0]->Evaluate(store);
        const float b = children[1]->Evaluate(store);
        return a < b ? a : b;
      }
      case OpCode::kCmpGt:
        return children[0]->Evaluate(store) > children[1]->Evaluate(store)
                   ? 1.0f
                   : 0.0f;
      case OpCode::kSelect:
        // Hardware evaluates all three inputs (no branches) and muxes.
        {
            const float cond = children[0]->Evaluate(store);
            const float if_true = children[1]->Evaluate(store);
            const float if_false = children[2]->Evaluate(store);
            return cond != 0.0f ? if_true : if_false;
        }
      case OpCode::kDiv:
        return Div(children[0]->Evaluate(store), children[1]->Evaluate(store));
      case OpCode::kLn:
        return Ln(children[0]->Evaluate(store));
      case OpCode::kExp:
        return Exp(children[0]->Evaluate(store));
      case OpCode::kFloatToInt:
        return FloatToInt(children[0]->Evaluate(store));
    }
    return 0.0f;
}

ExprPtr Expr::Clone() const {
    auto copy = std::make_unique<Expr>();
    copy->op = op;
    copy->constant = constant;
    copy->feature = feature;
    copy->children.reserve(children.size());
    for (const auto& child : children) copy->children.push_back(child->Clone());
    return copy;
}

ExprPtr MakeConst(float value) {
    auto e = std::make_unique<Expr>();
    e->op = OpCode::kLoadConst;
    e->constant = value;
    return e;
}

ExprPtr MakeFeature(std::uint32_t feature) {
    auto e = std::make_unique<Expr>();
    e->op = OpCode::kLoadFeature;
    e->feature = feature;
    return e;
}

ExprPtr MakeUnary(OpCode op, ExprPtr a) {
    auto e = std::make_unique<Expr>();
    e->op = op;
    e->children.push_back(std::move(a));
    return e;
}

ExprPtr MakeBinary(OpCode op, ExprPtr a, ExprPtr b) {
    auto e = std::make_unique<Expr>();
    e->op = op;
    e->children.push_back(std::move(a));
    e->children.push_back(std::move(b));
    return e;
}

ExprPtr MakeSelect(ExprPtr cond, ExprPtr if_true, ExprPtr if_false) {
    auto e = std::make_unique<Expr>();
    e->op = OpCode::kSelect;
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(if_true));
    e->children.push_back(std::move(if_false));
    return e;
}

namespace {

/** Small expressions: 3-40 ops. */
constexpr int kSmallMinOps = 3;
constexpr int kSmallMaxOps = 40;
/** Heavy tail: lognormal, capped. */
constexpr double kTailMeanOps = 250.0;
constexpr double kTailSigma = 0.9;
constexpr int kMaxOps = 4'000;
/** Probability an internal node is a complex op. */
constexpr double kComplexProbability = 0.12;
/** Probability of conditional (select) nodes. */
constexpr double kSelectProbability = 0.06;

}  // namespace

ExpressionGenerator::ExpressionGenerator(std::uint64_t seed, Config config)
    : config_(config), rng_(seed) {}

ExprPtr ExpressionGenerator::Generate() {
    int target;
    if (rng_.Chance(config_.small_probability)) {
        target = static_cast<int>(rng_.UniformInt(kSmallMinOps, kSmallMaxOps));
    } else {
        const double sigma = kTailSigma;
        const double mu = std::log(kTailMeanOps) - sigma * sigma / 2;
        target = static_cast<int>(rng_.LogNormal(mu, sigma));
        if (target < kSmallMaxOps) target = kSmallMaxOps;
        if (target > kMaxOps) target = kMaxOps;
    }
    return GenerateWithSize(target);
}

ExprPtr ExpressionGenerator::GenerateWithSize(int target_ops) {
    return Build(target_ops);
}

ExprPtr ExpressionGenerator::Build(int budget) {
    if (budget <= 1) {
        if (rng_.Chance(0.75)) {
            return MakeFeature(static_cast<std::uint32_t>(
                rng_.NextBounded(kDynamicFeatureCount + kSoftwareFeatureSlots)));
        }
        return MakeConst(static_cast<float>(rng_.Uniform(-4.0, 4.0)));
    }
    if (budget >= 4 && rng_.Chance(kSelectProbability)) {
        const int b0 = 1 + static_cast<int>(
                               rng_.NextBounded(static_cast<std::uint64_t>(
                                   (budget - 1) / 3 + 1)));
        const int b1 = 1 + static_cast<int>(
                               rng_.NextBounded(static_cast<std::uint64_t>(
                                   (budget - 1 - b0) / 2 + 1)));
        const int b2 = budget - 1 - b0 - b1;
        return MakeSelect(Build(b0), Build(b1), Build(b2 > 0 ? b2 : 1));
    }
    if (rng_.Chance(kComplexProbability)) {
        const OpCode op = static_cast<OpCode>(
            static_cast<int>(OpCode::kDiv) + rng_.NextBounded(4));
        if (op == OpCode::kDiv) {
            const int left = (budget - 1) / 2;
            return MakeBinary(op, Build(left > 0 ? left : 1),
                              Build(budget - 1 - left > 0 ? budget - 1 - left : 1));
        }
        return MakeUnary(op, Build(budget - 1));
    }
    static constexpr OpCode kSimple[] = {OpCode::kAdd, OpCode::kSub,
                                         OpCode::kMul, OpCode::kMax,
                                         OpCode::kMin, OpCode::kCmpGt};
    const OpCode op = kSimple[rng_.NextBounded(6)];
    // Skewed split keeps trees chain-like, matching hand-written FFEs.
    const double frac = 0.2 + 0.6 * rng_.NextDouble();
    int left = static_cast<int>((budget - 1) * frac);
    if (left < 1) left = 1;
    int right = budget - 1 - left;
    if (right < 1) right = 1;
    return MakeBinary(op, Build(left), Build(right));
}

}  // namespace catapult::rank::ffe
