#include "rank/ffe/expression.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "common/log.h"

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

int Arity(OpCode op) {
    switch (op) {
      case OpCode::kLoadFeature:
      case OpCode::kLoadConst:
        return 0;
      case OpCode::kLn:
      case OpCode::kExp:
      case OpCode::kFloatToInt:
        return 1;
      case OpCode::kSelect:
        return 3;
      default:
        return 2;
    }
}

Expr::Expr(std::vector<Node> post_order) : nodes_(std::move(post_order)) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        std::uint32_t first = i;  // the first node of i's subtree
        for (int k = Arity(nodes_[i].op); k > 0; --k) {
            if (first == 0) {
                FatalMisuse("Expr: node %u (%s) lacks an operand", i,
                            ToString(nodes_[i].op));
            }
            first -= nodes_[first - 1].size;
        }
        nodes_[i].size = i + 1 - first;
    }
    if (nodes_.empty() || nodes_.back().size != nodes_.size()) {
        FatalMisuse("Expr: %zu nodes are not one tree in post-order",
                    nodes_.size());
    }
}

int Expr::Operands(std::uint32_t i, std::uint32_t (&operands)[3]) const {
    const int arity = Arity(nodes_[i].op);
    std::uint32_t next = i;  // one past the operand's subtree
    for (int k = arity - 1; k >= 0; --k) {
        operands[k] = next - 1;
        next -= nodes_[next - 1].size;
    }
    return arity;
}

int Expr::ComplexOpCount() const {
    return static_cast<int>(std::count_if(
        nodes_.begin(), nodes_.end(),
        [](const Node& node) { return IsComplexOp(node.op); }));
}

int Expr::Depth() const {
    // A node is one deeper than its deepest operand.
    std::vector<int> depth(nodes_.size());
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        std::uint32_t operands[3];
        const int arity = Operands(i, operands);
        for (int k = 0; k < arity; ++k) {
            depth[i] = std::max(depth[i], depth[operands[k]]);
        }
        ++depth[i];
    }
    return depth.back();
}

float Expr::Evaluate(const FeatureStore& store) const {
    // Each node pops its operands off the stack, first one deepest, and
    // pushes its value; the root leaves the expression's value.
    std::vector<float> stack(nodes_.size());
    std::size_t top = 0;
    for (const Node& node : nodes_) {
        top -= static_cast<std::size_t>(Arity(node.op));
        const float* in = &stack[top];
        float value = 0.0f;
        switch (node.op) {
          case OpCode::kLoadConst: value = node.constant; break;
          case OpCode::kLoadFeature: value = store.Get(node.feature); break;
          case OpCode::kAdd: value = Add(in[0], in[1]); break;
          case OpCode::kSub: value = Sub(in[0], in[1]); break;
          case OpCode::kMul: value = Mul(in[0], in[1]); break;
          case OpCode::kMax: value = in[0] > in[1] ? in[0] : in[1]; break;
          case OpCode::kMin: value = in[0] < in[1] ? in[0] : in[1]; break;
          case OpCode::kCmpGt: value = in[0] > in[1] ? 1.0f : 0.0f; break;
          // Hardware evaluates all three inputs (no branches) and muxes.
          case OpCode::kSelect: value = in[0] != 0.0f ? in[1] : in[2]; break;
          case OpCode::kDiv: value = Div(in[0], in[1]); break;
          case OpCode::kLn: value = Ln(in[0]); break;
          case OpCode::kExp: value = Exp(in[0]); break;
          case OpCode::kFloatToInt: value = FloatToInt(in[0]); break;
        }
        stack[top++] = value;
    }
    return stack[0];
}

ExprPtr Expr::Detach(std::uint32_t root, std::uint32_t feature) {
    const std::uint32_t size = nodes_[root].size;
    const std::uint32_t first = root + 1 - size;
    auto subtree = std::make_unique<Expr>(std::vector<Node>(
        nodes_.begin() + first, nodes_.begin() + root + 1));
    // The ancestors of `root` are the later nodes whose subtrees start
    // at or before it; each loses all but one of the subtree's nodes.
    for (std::uint32_t k = root + 1; k < nodes_.size(); ++k) {
        if (k + 1 - nodes_[k].size <= root) nodes_[k].size -= size - 1;
    }
    nodes_[first] = Node{OpCode::kLoadFeature, 1, 0.0f, feature};
    nodes_.erase(nodes_.begin() + first + 1, nodes_.begin() + root + 1);
    return subtree;
}

namespace {

/** `operands`' nodes in order, then `op`: post-order of op(operands...). */
ExprPtr Combine(OpCode op, std::initializer_list<const Expr*> operands) {
    std::vector<Expr::Node> nodes;
    for (const Expr* operand : operands) {
        nodes.insert(nodes.end(), operand->nodes().begin(), operand->nodes().end());
    }
    nodes.push_back(Expr::Node{op});
    return std::make_unique<Expr>(std::move(nodes));
}

}  // namespace

ExprPtr MakeConst(float value) {
    return std::make_unique<Expr>(
        std::vector<Expr::Node>{{OpCode::kLoadConst, 1, value, 0}});
}

ExprPtr MakeFeature(std::uint32_t feature) {
    return std::make_unique<Expr>(
        std::vector<Expr::Node>{{OpCode::kLoadFeature, 1, 0.0f, feature}});
}

ExprPtr MakeUnary(OpCode op, ExprPtr a) { return Combine(op, {a.get()}); }

ExprPtr MakeBinary(OpCode op, ExprPtr a, ExprPtr b) {
    return Combine(op, {a.get(), b.get()});
}

ExprPtr MakeSelect(ExprPtr cond, ExprPtr if_true, ExprPtr if_false) {
    return Combine(OpCode::kSelect, {cond.get(), if_true.get(), if_false.get()});
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
    // Every node is drawn before its operands, and the operands' subtrees
    // are drawn last to first. This order defines every generated model,
    // so it is fixed here, not left to the order in which a compiler
    // evaluates function arguments. Drawn this way, the nodes are the
    // post-order reversed.
    drawn_.clear();
    pending_.assign(1, target_ops);
    while (!pending_.empty()) {
        const int budget = pending_.back();
        pending_.pop_back();
        drawn_.push_back(Draw(budget));
    }
    return std::make_unique<Expr>(
        std::vector<Expr::Node>(drawn_.rbegin(), drawn_.rend()));
}

Expr::Node ExpressionGenerator::Draw(int budget) {
    Expr::Node node;
    if (budget <= 1) {
        if (rng_.Chance(0.75)) {
            node.op = OpCode::kLoadFeature;
            node.feature = static_cast<std::uint32_t>(
                rng_.NextBounded(kDynamicFeatureCount + kSoftwareFeatureSlots));
        } else {
            node.constant = static_cast<float>(rng_.Uniform(-4.0, 4.0));
        }
        return node;
    }
    if (budget >= 4 && rng_.Chance(kSelectProbability)) {
        const int b0 = 1 + static_cast<int>(
                               rng_.NextBounded(static_cast<std::uint64_t>(
                                   (budget - 1) / 3 + 1)));
        const int b1 = 1 + static_cast<int>(
                               rng_.NextBounded(static_cast<std::uint64_t>(
                                   (budget - 1 - b0) / 2 + 1)));
        const int b2 = budget - 1 - b0 - b1;
        node.op = OpCode::kSelect;
        pending_.insert(pending_.end(), {b0, b1, b2 > 0 ? b2 : 1});
        return node;
    }
    if (rng_.Chance(kComplexProbability)) {
        node.op = static_cast<OpCode>(static_cast<int>(OpCode::kDiv) +
                                      rng_.NextBounded(4));
        if (node.op == OpCode::kDiv) {
            const int left = (budget - 1) / 2;
            pending_.insert(pending_.end(),
                            {left > 0 ? left : 1,
                             budget - 1 - left > 0 ? budget - 1 - left : 1});
        } else {
            pending_.push_back(budget - 1);
        }
        return node;
    }
    static constexpr OpCode kSimple[] = {OpCode::kAdd, OpCode::kSub,
                                         OpCode::kMul, OpCode::kMax,
                                         OpCode::kMin, OpCode::kCmpGt};
    node.op = kSimple[rng_.NextBounded(6)];
    // Skewed split keeps trees chain-like, matching hand-written FFEs.
    const double frac = 0.2 + 0.6 * rng_.NextDouble();
    int left = static_cast<int>((budget - 1) * frac);
    if (left < 1) left = 1;
    int right = budget - 1 - left;
    if (right < 1) right = 1;
    pending_.insert(pending_.end(), {left, right});
    return node;
}

}  // namespace catapult::rank::ffe
