#include "rank/ffe/compiler.h"

#include <algorithm>
#include <numeric>

namespace catapult::rank::ffe {

int OpLatencies::For(OpCode op) {
    switch (op) {
      case OpCode::kDiv: return kFpdiv;
      case OpCode::kLn: return kLn;
      case OpCode::kExp: return kExp;
      case OpCode::kFloatToInt: return kFloatToInt;
      case OpCode::kLoadFeature:
      case OpCode::kLoadConst:
        return kLoad;
      default:
        return kSimple;
    }
}

Program FfeCompiler::Compile(const Expr& expr,
                             std::uint32_t output_slot) const {
    // Instruction i is node i: the nodes are in post-order, so every
    // operand is computed before its user, and register i (SSA, one
    // virtual register per node) holds node i's value.
    const std::vector<Expr::Node>& nodes = expr.nodes();
    const auto count = static_cast<std::uint32_t>(nodes.size());
    Program program;
    program.output_slot = output_slot;
    program.register_count = count;
    program.instructions.resize(count);
    // The dependency critical path ending at each node.
    std::vector<std::int64_t> path(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const Expr::Node& node = nodes[i];
        std::uint32_t src[3] = {0, 0, 0};
        const int arity = expr.Operands(i, src);
        std::int64_t longest = 0;
        for (int k = 0; k < arity; ++k) longest = std::max(longest, path[src[k]]);
        path[i] = longest + OpLatencies::For(node.op);
        program.instructions[i] = Instruction{node.op, i, src[0], src[1], src[2],
                                              node.constant, node.feature};
        if (IsComplexOp(node.op)) ++program.complex_ops;
    }
    program.serial_latency = path.back();
    return program;
}

std::vector<FfeCompiler::MetafeaturePart> FfeCompiler::SplitForMetafeatures(
    Expr& expr, std::uint32_t& next_meta_slot) const {
    // Detach the largest subtree of at most `chunk` ops that is not a
    // single load, assign it a metafeature slot and replace it with a
    // load of that slot. Repeat until the remainder fits the threshold.
    std::vector<MetafeaturePart> upstream;
    const int chunk = config_.split_chunk_ops;
    while (expr.OpCount() > config_.split_threshold_ops) {
        // Visit the root's operands last to first, each one's subtree in
        // pre-order with its last operand first: that is the node array
        // backwards from the root. A candidate's subtree is skipped
        // (everything in it is smaller), and the first largest wins.
        const std::vector<Expr::Node>& nodes = expr.nodes();
        std::uint32_t best = 0;
        int best_size = 0;
        for (std::int64_t k = static_cast<std::int64_t>(nodes.size()) - 2; k >= 0;) {
            const Expr::Node& node = nodes[static_cast<std::size_t>(k)];
            const auto size = static_cast<int>(node.size);
            if (size > chunk) {
                --k;
                continue;
            }
            if (size > best_size && Arity(node.op) > 0) {
                best_size = size;
                best = static_cast<std::uint32_t>(k);
            }
            k -= size;
        }
        if (best_size == 0) break;  // degenerate

        const std::uint32_t slot =
            kMetaFeatureBase + (next_meta_slot++ % kMetaFeatureSlots);
        upstream.push_back(MetafeaturePart{slot, expr.Detach(best, slot)});
    }
    return upstream;
}

ThreadAssignment AssignThreads(const std::vector<Program>& programs,
                               int core_count, int threads_per_core) {
    ThreadAssignment assignment;
    assignment.thread_queues.resize(static_cast<std::size_t>(core_count));
    for (auto& core : assignment.thread_queues) {
        core.resize(static_cast<std::size_t>(threads_per_core));
    }
    if (programs.empty() || core_count == 0) return assignment;

    // Longest expected latency first (§4.5).
    std::vector<int> order(programs.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return programs[static_cast<std::size_t>(a)].serial_latency >
               programs[static_cast<std::size_t>(b)].serial_latency;
    });

    // Fill Slot 0 on all cores, then Slot 1 on all cores, etc., then
    // append the remainder round-robin starting again at Slot 0.
    const std::size_t slots =
        static_cast<std::size_t>(core_count) *
        static_cast<std::size_t>(threads_per_core);
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t flat = k % slots;
        const std::size_t slot = flat / static_cast<std::size_t>(core_count);
        const std::size_t core = flat % static_cast<std::size_t>(core_count);
        assignment.thread_queues[core][slot].push_back(order[k]);
    }
    return assignment;
}

}  // namespace catapult::rank::ffe
