#include "rank/ffe/processor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/log.h"

namespace catapult::rank::ffe {

namespace {

// An operand reference: bank in the top two bits, index below.
constexpr std::uint32_t kBankShift = 30;
constexpr std::uint32_t kIndexMask = (1u << kBankShift) - 1;
constexpr std::uint32_t kRegisterBank = 0;
constexpr std::uint32_t kFeatureBank = 1;
constexpr std::uint32_t kConstantBank = 2;

constexpr std::uint32_t Ref(std::uint32_t bank, std::uint32_t index) {
    return bank << kBankShift | index;
}

// Decoded op codes: the ISA's compute ops keep their OpCode values
// (simple ops first, so one compare separates them), loads never
// appear, and one code past the ISA's writes a program's result to the
// FST.
constexpr std::uint32_t kLastSimple = static_cast<std::uint32_t>(OpCode::kSelect);
constexpr std::uint32_t kWriteOutput = static_cast<std::uint32_t>(OpCode::kLoadConst) + 1;
static_assert(static_cast<std::uint32_t>(OpCode::kAdd) == 0 &&
              static_cast<std::uint32_t>(OpCode::kDiv) == kLastSimple + 1);

/** All ones when `p` holds, else zero: a select without a jump. */
constexpr std::uint32_t Mask(bool p) { return 0u - static_cast<std::uint32_t>(p); }

constexpr float Blend(std::uint32_t mask, float if_set, float if_clear) {
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(if_set) & mask) |
                                (std::bit_cast<std::uint32_t>(if_clear) & ~mask));
}

}  // namespace

FfeProcessor::FfeProcessor(Config config) : config_(config) {
    if (config_.core_count <= 0 || config_.threads_per_core <= 0 ||
        config_.cores_per_cluster <= 0) {
        FatalMisuse("FfeProcessor: core_count %d, threads_per_core %d and "
                    "cores_per_cluster %d must all be positive",
                    config_.core_count, config_.threads_per_core,
                    config_.cores_per_cluster);
    }
}

void FfeProcessor::Decoded::Append(const Program& program) {
    // The program is SSA in post-order: instruction k writes register
    // k's value. Loads become operand references; every other op gets
    // a fresh register from this program's window, which starts at 0
    // because a program's registers are dead once its result is out.
    std::vector<std::uint32_t> refs(program.register_count, 0);
    std::uint32_t result = Ref(kConstantBank, 0);  // an empty program yields 0
    std::uint32_t registers = 0;
    for (const Instruction& instr : program.instructions) {
        assert(instr.dst < refs.size());
        std::uint32_t ref;
        if (instr.op == OpCode::kLoadConst) {
            ref = Ref(kConstantBank, static_cast<std::uint32_t>(constants.size()));
            constants.push_back(instr.constant);
        } else if (instr.op == OpCode::kLoadFeature) {
            assert(instr.feature <= kIndexMask);
            ref = Ref(kFeatureBank, instr.feature);
        } else {
            DecodedOp op;
            op.code = static_cast<std::uint32_t>(instr.op);
            op.dst = registers;
            op.a = refs[instr.src_a];
            // Unused operands repeat a used one, so every read is valid.
            op.b = instr.op == OpCode::kLn || instr.op == OpCode::kExp ||
                           instr.op == OpCode::kFloatToInt
                       ? op.a
                       : refs[instr.src_b];
            op.c = instr.op == OpCode::kSelect ? refs[instr.src_c] : op.b;
            ops.push_back(op);
            ref = Ref(kRegisterBank, registers++);
        }
        refs[instr.dst] = ref;
        result = ref;
    }
    assert(constants.size() <= kIndexMask && registers < (1u << 24));
    max_registers = std::max(max_registers, registers);
    DecodedOp write;
    write.code = kWriteOutput;
    write.dst = program.output_slot;
    write.a = write.b = write.c = result;
    ops.push_back(write);
}

void FfeProcessor::LoadPrograms(const std::vector<Program>& programs) {
    decoded_ = Decoded{};
    total_instructions_ = 0;
    for (const Program& program : programs) {
        decoded_.Append(program);
        total_instructions_ += program.InstructionCount();
    }
    registers_.assign(decoded_.max_registers, 0.0f);
    RecomputeTiming(programs);
}

void FfeProcessor::Run(std::span<const DecodedOp> ops, float* registers,
                       const float* constants, FeatureStore& store) {
    const float* const banks[] = {registers, store.raw().data(), constants};
    const auto read = [&banks](std::uint32_t ref) {
        return banks[ref >> kBankShift][ref & kIndexMask];
    };
    for (const DecodedOp& op : ops) {
        const float a = read(op.a);
        const float b = read(op.b);
        if (op.code <= kLastSimple) {
            // Every simple op is computed and the opcode picks one, so
            // no jump depends on the data. The selects are bit masks
            // over the same comparisons the AST evaluator makes, which
            // keeps NaN and signed-zero results identical to its `?:`.
            const float c = read(op.c);
            const std::uint32_t gt = Mask(a > b);
            const float simple[] = {
                a + b,                         // kAdd
                a - b,                         // kSub
                a * b,                         // kMul
                Blend(gt, a, b),               // kMax
                Blend(Mask(a < b), a, b),      // kMin
                Blend(gt, 1.0f, 0.0f),         // kCmpGt
                Blend(Mask(a != 0.0f), b, c),  // kSelect
            };
            registers[op.dst] = simple[op.code];
            continue;
        }
        float value = 0.0f;
        switch (static_cast<OpCode>(op.code)) {
          case OpCode::kDiv:
            value = b == 0.0f ? 0.0f : a / b;
            break;
          case OpCode::kLn:
            value = std::log(a > 1e-30f ? a : 1e-30f);
            break;
          case OpCode::kExp:
            value = std::exp(a > 60.0f ? 60.0f : (a < -60.0f ? -60.0f : a));
            break;
          case OpCode::kFloatToInt:
            value = std::trunc(a);
            break;
          default:  // kWriteOutput
            store.Set(op.dst, a);
            continue;
        }
        registers[op.dst] = value;
    }
}

float FfeProcessor::Execute(const Program& program, const FeatureStore& store) {
    Decoded decoded;
    decoded.Append(program);
    std::vector<float> registers(decoded.max_registers, 0.0f);
    FeatureStore out = store;
    Run(decoded.ops, registers.data(), decoded.constants.data(), out);
    return out.Get(program.output_slot);
}

void FfeProcessor::ExecuteAll(FeatureStore& store) {
    Run(decoded_.ops, registers_.data(), decoded_.constants.data(), store);
}

void FfeProcessor::RecomputeTiming(const std::vector<Program>& programs) {
    const ThreadAssignment assignment = AssignThreads(
        programs, config_.core_count, config_.threads_per_core);
    breakdown_ = TimingBreakdown{};
    const int cores = config_.core_count;
    const int clusters =
        (cores + config_.cores_per_cluster - 1) / config_.cores_per_cluster;
    std::vector<std::int64_t> cluster_complex(
        static_cast<std::size_t>(clusters), 0);

    for (int core = 0; core < cores; ++core) {
        std::int64_t issue = 0;
        const auto& slots = assignment.thread_queues[static_cast<std::size_t>(core)];
        for (const auto& queue : slots) {
            std::int64_t serial = 0;
            for (int index : queue) {
                const Program& p = programs[static_cast<std::size_t>(index)];
                issue += p.InstructionCount();
                serial += p.serial_latency;
                cluster_complex[static_cast<std::size_t>(
                    core / config_.cores_per_cluster)] +=
                    static_cast<std::int64_t>(p.complex_ops) *
                    config_.complex_initiation_interval;
            }
            breakdown_.max_thread_serial_cycles =
                std::max(breakdown_.max_thread_serial_cycles, serial);
        }
        breakdown_.max_core_issue_cycles =
            std::max(breakdown_.max_core_issue_cycles, issue);
    }
    for (std::int64_t c : cluster_complex) {
        breakdown_.max_cluster_complex_cycles =
            std::max(breakdown_.max_cluster_complex_cycles, c);
    }
    document_cycles_ =
        std::max({breakdown_.max_core_issue_cycles,
                  breakdown_.max_thread_serial_cycles,
                  breakdown_.max_cluster_complex_cycles}) +
        config_.overhead_cycles;
}

std::int64_t FfeProcessor::DocumentCycles() const { return document_cycles_; }

Time FfeProcessor::DocumentServiceTime() const {
    return config_.clock.Cycles(document_cycles_);
}

Bytes FfeProcessor::InstructionMemoryBytes() const {
    // 8 bytes per instruction word in the M20K instruction memories.
    return TotalInstructions() * 8;
}

}  // namespace catapult::rank::ffe
