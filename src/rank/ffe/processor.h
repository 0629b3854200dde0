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
// The functional evaluator executes compiled programs exactly (same
// float operations, same order, as direct AST evaluation). Loading a
// partition decodes it once into one flat operation stream: feature and
// constant loads fold into the operands of the ops that read them, the
// seven simple ops share one branch-free path (their dispatch is what a
// switch interpreter mispredicts), and every program reuses one
// register scratch. The timing model computes the per-document stage
// makespan from three binding constraints: per-core issue bandwidth
// (1 instr/cycle shared by its 4 thread slots), per-thread serial
// dependency latency, and per-cluster complex-block throughput.

#pragma once

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
        Frequency clock = Frequency::MHz(125.0);  ///< Table 1 (FFE0/1).
        OpLatencies latencies;
        /** Complex block initiation interval (ops/cycle = 1/II). */
        int complex_initiation_interval = 1;
        /** Fixed overhead: FST swap, pipeline fill/drain. */
        std::int64_t overhead_cycles = 120;
    };

    FfeProcessor() : FfeProcessor(Config()) {}
    explicit FfeProcessor(Config config);

    /**
     * Load a compiled model partition: decode the programs and compute
     * the static assignment's timing. Mirrors a Model Reload (§4.3):
     * instruction memories rewritten. The programs are not retained.
     */
    void LoadPrograms(const std::vector<Program>& programs);

    /**
     * Functional execution: run every loaded program, in load order,
     * against `store`, writing each result to its output FST slot.
     * Uses this processor's register scratch, so one processor serves
     * one thread at a time.
     */
    void ExecuteAll(FeatureStore& store);

    /** Execute one program through the same evaluator (used by tests). */
    static float Execute(const Program& program, const FeatureStore& store);

    /**
     * Timing: stage cycles to process one document with the loaded
     * programs (max of issue, dependency and complex-block bounds over
     * all cores/clusters, plus fixed overhead).
     */
    std::int64_t DocumentCycles() const;

    /** DocumentCycles converted through the core clock. */
    Time DocumentServiceTime() const;

    /** Breakdown of the three binding constraints (for ablation). */
    struct TimingBreakdown {
        std::int64_t max_core_issue_cycles = 0;
        std::int64_t max_thread_serial_cycles = 0;
        std::int64_t max_cluster_complex_cycles = 0;
    };
    TimingBreakdown Breakdown() const { return breakdown_; }

    /** Total instructions across loaded programs. */
    std::int64_t TotalInstructions() const { return total_instructions_; }

    /** Instruction memory footprint (drives Model Reload cost, §4.3). */
    Bytes InstructionMemoryBytes() const;

    const Config& config() const { return config_; }

  private:
    /**
     * One decoded operation: an ISA op, or the write of a program's
     * result to its FST slot. Operands are references into three banks
     * (registers, the feature store, constants), so loads need no op.
     */
    struct DecodedOp {
        std::uint32_t code : 8 = 0;
        /** Destination register; the FST slot for an output write. */
        std::uint32_t dst : 24 = 0;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::uint32_t c = 0;
    };

    /** A decoded stream plus the constant bank its operands read. */
    struct Decoded {
        /** Constant 0 is the result of an empty program. */
        std::vector<float> constants = {0.0f};
        std::vector<DecodedOp> ops;
        std::uint32_t max_registers = 1;

        /** Appends `program`'s ops, ending with the write of its result. */
        void Append(const Program& program);
    };

    /** Runs `ops` with `store` as both the feature bank and the FST. */
    static void Run(std::span<const DecodedOp> ops, float* registers,
                    const float* constants, FeatureStore& store);

    void RecomputeTiming(const std::vector<Program>& programs);

    Config config_;
    Decoded decoded_;
    /** Register scratch, reused by every program (sized at load). */
    std::vector<float> registers_;
    std::int64_t total_instructions_ = 0;
    TimingBreakdown breakdown_;
    std::int64_t document_cycles_ = 0;
};

}  // namespace catapult::rank::ffe
