// FFE compiler: expression ASTs -> FFE processor programs (§4.5).
//
// The compiler performs three jobs the paper describes:
//  1. lowering ASTs to the register-based FFE ISA in strict post-order,
//     one instruction per node (preserving evaluation order, so
//     interpreter results match direct AST evaluation bit-for-bit);
//  2. splitting the longest expressions across FPGAs: "An upstream FFE
//     unit can perform part of the computation and produce an
//     intermediate result called a metafeature";
//  3. static thread assignment: "The assembler maps the expressions
//     with the longest expected latency to Thread Slot 0 on all cores,
//     then fills in Slot 1 on all cores, and so forth", appending the
//     remaining expressions after every slot holds one.

#pragma once

#include <cstdint>
#include <vector>

#include "rank/ffe/expression.h"

namespace catapult::rank::ffe {

/** One FFE ISA instruction (3-address register form). */
struct Instruction {
    OpCode op = OpCode::kLoadConst;
    std::uint32_t dst = 0;
    std::uint32_t src_a = 0;
    std::uint32_t src_b = 0;
    std::uint32_t src_c = 0;      ///< kSelect only.
    float constant = 0.0f;        ///< kLoadConst.
    std::uint32_t feature = 0;    ///< kLoadFeature.
};

/** A compiled expression: instructions + destination FST slot. */
struct Program {
    std::vector<Instruction> instructions;
    /** FST slot the final value is written to. */
    std::uint32_t output_slot = 0;
    /** Registers used (virtual register file; hardware has a window). */
    std::uint32_t register_count = 0;
    /** Complex-block operations (for cluster arbitration accounting). */
    int complex_ops = 0;
    /**
     * Dependency critical path in cycles: the minimum time one thread
     * needs for this expression with fully-pipelined units (independent
     * subtrees overlap; dependent ops serialize).
     */
    std::int64_t serial_latency = 0;

    int InstructionCount() const {
        return static_cast<int>(instructions.size());
    }
};

/** Per-op issue-to-result latencies in FFE core cycles. */
struct OpLatencies {
    static constexpr int kSimple = 4;      ///< add/sub/mul/max/min/cmp/select.
    static constexpr int kLoad = 2;        ///< feature/const load from FST.
    static constexpr int kFpdiv = 20;
    static constexpr int kLn = 24;
    static constexpr int kExp = 22;
    static constexpr int kFloatToInt = 6;

    static int For(OpCode op);
};

class FfeCompiler {
  public:
    struct Config {
        /**
         * Expressions with more ops than this are split across FPGAs
         * via metafeatures (§4.5) — bounding any one thread's
         * dependency chain within the macropipeline budget.
         */
        int split_threshold_ops = 128;
        /** Target op count per split-off metafeature subtree. */
        int split_chunk_ops = 64;
    };

    FfeCompiler() : FfeCompiler(Config()) {}
    explicit FfeCompiler(Config config) : config_(config) {}

    /** Compile one expression to a program writing `output_slot`. */
    Program Compile(const Expr& expr, std::uint32_t output_slot) const;

    /** A subtree detached to run upstream, writing `slot`. */
    struct MetafeaturePart {
        std::uint32_t slot = 0;
        ExprPtr expr;
    };

    /**
     * Split an oversized expression: returns the subtree expressions to
     * run upstream (each writing a metafeature slot) and rewrites
     * `expr` in place to reference those metafeatures. `next_meta_slot`
     * advances as slots are consumed.
     */
    std::vector<MetafeaturePart> SplitForMetafeatures(
        Expr& expr, std::uint32_t& next_meta_slot) const;

    const Config& config() const { return config_; }

  private:
    Config config_;
};

/**
 * Static thread assignment (§4.5): distribute programs over
 * `core_count * threads_per_core` thread slots, longest first, exactly
 * as the paper's assembler does. Returns, per (core, slot), the list of
 * program indices assigned there.
 */
struct ThreadAssignment {
    /** thread_queues[core][slot] = indices into the program list. */
    std::vector<std::vector<std::vector<int>>> thread_queues;
};

ThreadAssignment AssignThreads(const std::vector<Program>& programs,
                               int core_count, int threads_per_core);

}  // namespace catapult::rank::ffe
