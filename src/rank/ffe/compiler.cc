#include "rank/ffe/compiler.h"

#include <algorithm>
#include <cassert>
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

std::uint32_t FfeCompiler::Lower(const Expr& expr, Program& program) const {
    // Post-order lowering: children first, then this node. Register
    // numbering is SSA-like (one virtual register per node).
    std::uint32_t srcs[3] = {0, 0, 0};
    assert(expr.children.size() <= 3);
    for (std::size_t i = 0; i < expr.children.size(); ++i) {
        srcs[i] = Lower(*expr.children[i], program);
    }
    Instruction instr;
    instr.op = expr.op;
    instr.dst = program.register_count++;
    instr.src_a = srcs[0];
    instr.src_b = srcs[1];
    instr.src_c = srcs[2];
    instr.constant = expr.constant;
    instr.feature = expr.feature;
    program.instructions.push_back(instr);
    if (IsComplexOp(expr.op)) ++program.complex_ops;
    return instr.dst;
}

std::int64_t FfeCompiler::CriticalPath(const Expr& expr) {
    std::int64_t child_path = 0;
    for (const auto& child : expr.children) {
        child_path = std::max(child_path, CriticalPath(*child));
    }
    return child_path + OpLatencies::For(expr.op);
}

Program FfeCompiler::Compile(const Expr& expr,
                             std::uint32_t output_slot) const {
    Program program;
    program.output_slot = output_slot;
    Lower(expr, program);
    program.serial_latency = CriticalPath(expr);
    return program;
}

std::vector<FfeCompiler::MetafeaturePart> FfeCompiler::SplitForMetafeatures(
    Expr& expr, std::uint32_t& next_meta_slot) const {
    std::vector<MetafeaturePart> upstream;
    if (expr.OpCount() <= config_.split_threshold_ops) return upstream;

    // Walk the tree; when a subtree of <= chunk ops (but substantial
    // size) hangs under an oversized node, detach it, assign it a
    // metafeature slot, and replace it with a feature load. Repeat
    // until the remainder fits the threshold.
    const int chunk = config_.split_chunk_ops;
    while (expr.OpCount() > config_.split_threshold_ops) {
        // Find the largest subtree with OpCount <= chunk.
        Expr* best = nullptr;
        ExprPtr* best_edge = nullptr;
        int best_size = 0;

        // Iterative DFS over child edges.
        std::vector<ExprPtr*> stack;
        for (auto& child : expr.children) stack.push_back(&child);
        while (!stack.empty()) {
            ExprPtr* edge = stack.back();
            stack.pop_back();
            Expr* node = edge->get();
            const int size = node->OpCount();
            if (size <= chunk) {
                // Candidate; don't descend further (children are smaller).
                if (size > best_size && node->op != OpCode::kLoadFeature &&
                    node->op != OpCode::kLoadConst) {
                    best_size = size;
                    best = node;
                    best_edge = edge;
                }
                continue;
            }
            for (auto& child : node->children) stack.push_back(&child);
        }
        if (best == nullptr || best_edge == nullptr) break;  // degenerate

        const std::uint32_t slot =
            kMetaFeatureBase + (next_meta_slot++ % kMetaFeatureSlots);
        ExprPtr detached = std::move(*best_edge);
        *best_edge = MakeFeature(slot);
        upstream.push_back(MetafeaturePart{slot, std::move(detached)});
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
