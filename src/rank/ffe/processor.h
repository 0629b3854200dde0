// The FFE multicore soft processor (§4.5).
//
// "We developed a custom multicore processor with massive multithreading
// and long-latency operations in mind ... highly area-efficient,
// allowing us to instantiate 60 cores on a single D5 FPGA."
// Key microarchitectural properties modelled:
//   * each core runs 4 simultaneous threads arbitrating for functional
//     units cycle-by-cycle; all units are fully pipelined;
//   * threads are statically prioritized (the assembler's longest-first
//     slot assignment, implemented in AssignThreads);
//   * cores are clustered in groups of 6 sharing one complex block
//     (ln, fpdiv, exp, float-to-int) with fair round-robin arbitration;
//   * the complex block also houses the double-buffered Feature Storage
//     Tile (FST).
//
// The functional path runs a decoded partition level by level (§4.5's
// thread slots overlap thousands of independent expressions; the
// simulator gets the same parallelism from loops): an op's level is one
// more than its deepest operand's, and all ops of one opcode at one
// level run as one tight loop over a single value array, whose
// iterations are independent. A partition is decoded once: loads fold
// into operand references, and a load of a slot an earlier program in
// the partition wrote is bound, at decode time, to that program's
// result. Every op is the same IEEE operation on the same operands as
// direct AST evaluation, so both produce the same bits. The timing
// model computes the per-document stage makespan from three binding
// constraints: per-core issue bandwidth (1 instr/cycle shared by its 4
// thread slots), per-thread serial dependency latency, and per-cluster
// complex-block throughput.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "rank/feature_space.h"
#include "rank/ffe/compiler.h"

namespace catapult::rank::ffe {

class FfeProcessor {
  public:
    struct Config {
        int core_count = 60;          ///< §4.5.
        int threads_per_core = 4;     ///< §4.5.
        int cores_per_cluster = 6;    ///< §4.5.
    };

    /** Fixed overhead: FST swap, pipeline fill/drain. */
    static constexpr std::int64_t kOverheadCycles = 120;

    /**
     * A partition decoded for level-by-level execution. The op at
     * position i of the schedule writes value i; the value array holds
     * those results, then the partition's constants, then the FST slots
     * it reads, gathered once per document. Immutable once built, so
     * one decode serves every caller that runs the partition.
     */
    class Partition {
      public:
        /** An empty partition: runs nothing and writes no slot. */
        Partition() = default;

        /**
         * Decode `programs`, which run in this order. Aborts, in every
         * build, on a program that reads a register it has not written,
         * names a feature or output slot outside the FST, or makes the
         * partition too large for a value index.
         */
        explicit Partition(std::span<const Program> programs);

        /** Floats one execution's value array holds. */
        std::size_t value_count() const {
            return feature_base_ + features_.size();
        }
        /** Dependency levels, and (level, opcode) loops, in the schedule. */
        int level_count() const { return levels_; }
        std::size_t group_count() const { return groups_.size(); }
        /** Loads bound at decode to an earlier program's result. */
        std::size_t forwarded_loads() const { return forwarded_loads_; }

      private:
        friend class FfeProcessor;

        /** Ops [begin, end) of the schedule share one opcode and level. */
        struct Group {
            OpCode op = OpCode::kAdd;
            std::uint32_t begin = 0;
            std::uint32_t end = 0;
        };
        /** A program's result, value `value`, goes to FST slot `slot`. */
        struct Write {
            std::uint32_t slot = 0;
            std::uint32_t value = 0;
        };

        std::vector<Group> groups_;
        /** Operand value indices per schedule position (c: selects). */
        std::vector<std::uint32_t> a_;
        std::vector<std::uint32_t> b_;
        std::vector<std::uint32_t> c_;
        std::vector<float> constants_;
        /** FST slot of each gathered value. */
        std::vector<std::uint32_t> features_;
        /** In program order, so the last writer of a slot wins. */
        std::vector<Write> writes_;
        std::uint32_t constant_base_ = 0;
        std::uint32_t feature_base_ = 0;
        int levels_ = 0;
        std::size_t forwarded_loads_ = 0;
    };

    FfeProcessor() : FfeProcessor(Config()) {}
    explicit FfeProcessor(Config config);

    /**
     * Load a compiled model partition: decode the programs for
     * ExecuteAll and compute the static assignment's timing. Mirrors a
     * Model Reload (§4.3): instruction memories rewritten. The programs
     * are not retained.
     */
    void LoadPrograms(const std::vector<Program>& programs);

    /**
     * Functional execution: run every loaded program, in load order,
     * against `store`, writing each result to its output FST slot (no
     * program is loaded at construction). Uses this processor's value
     * scratch, so one processor serves one thread at a time.
     */
    void ExecuteAll(FeatureStore& store);

    /** Execute one program through the same executor (used by tests). */
    static float Execute(const Program& program, const FeatureStore& store);

    /**
     * The executor: run `partition` against `store`, using `values` as
     * the value array (grown as needed; it holds nothing between runs).
     */
    static void Run(const Partition& partition, FeatureStore& store,
                    std::vector<float>& values);

    /**
     * Timing: stage cycles to process one document with the loaded
     * programs (max of issue, dependency and complex-block bounds over
     * all cores/clusters, plus fixed overhead).
     */
    std::int64_t DocumentCycles() const;

    /** DocumentCycles converted through the core clock. */
    Time DocumentServiceTime() const;

    /**
     * DocumentServiceTime of `programs`, computed without loading them
     * (nothing is decoded): what LoadPrograms(programs) would give.
     */
    Time DocumentServiceTime(const std::vector<Program>& programs) const;

    /** Breakdown of the three binding constraints (for ablation). */
    struct TimingBreakdown {
        std::int64_t max_core_issue_cycles = 0;
        std::int64_t max_thread_serial_cycles = 0;
        std::int64_t max_cluster_complex_cycles = 0;
    };
    TimingBreakdown Breakdown() const { return breakdown_; }

    /** Total instructions across loaded programs. */
    std::int64_t TotalInstructions() const { return total_instructions_; }

    const Config& config() const { return config_; }

  private:
    /** The three bounds of `programs`; Cycles() adds the overhead. */
    TimingBreakdown Timing(const std::vector<Program>& programs) const;
    static std::int64_t Cycles(const TimingBreakdown& breakdown);

    Config config_;
    Partition partition_;
    std::vector<float> values_;
    std::int64_t total_instructions_ = 0;
    TimingBreakdown breakdown_;
    std::int64_t document_cycles_ = 0;
};

}  // namespace catapult::rank::ffe
