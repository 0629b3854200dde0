#include "rank/ffe/processor.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace catapult::rank::ffe {

namespace {

// A decode-time operand reference: a bank tag in the top two bits, an
// index below. The ops' final positions are known only once the whole
// partition is scheduled, so references resolve to value indices last.
constexpr std::uint32_t kTagShift = 30;
constexpr std::uint32_t kIndexMask = (1u << kTagShift) - 1;
constexpr std::uint32_t kOpTag = 0;
constexpr std::uint32_t kConstantTag = 1;
constexpr std::uint32_t kFeatureTag = 2;
/** A register or FST slot no op has written yet. */
constexpr std::uint32_t kUnwritten = ~0u;

constexpr std::uint32_t Tagged(std::uint32_t tag, std::size_t index) {
    return tag << kTagShift | static_cast<std::uint32_t>(index);
}

/** Compute opcodes precede the two loads, which are never scheduled. */
constexpr std::uint32_t kComputeOps = static_cast<std::uint32_t>(OpCode::kLoadFeature);

/** Table 1 (FFE0/1). */
constexpr Frequency kClock = Frequency::MHz(125.0);
/** Complex block initiation interval (ops/cycle = 1/II). */
constexpr int kComplexInitiationInterval = 1;

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

FfeProcessor::Partition::Partition(std::span<const Program> programs) {
    // Each value comes from one instruction, or is the zero constant;
    // decode references carry a 30-bit index.
    std::size_t instructions = 0;
    for (const Program& program : programs) {
        instructions += program.instructions.size();
    }
    if (instructions >= kIndexMask) {
        FatalMisuse("FfeProcessor: a partition of %zu instructions is more "
                    "values than an operand index reaches (%u)",
                    instructions, kIndexMask);
    }
    // 1. Walk each program's SSA instructions once, in partition order.
    //    Loads become references to a constant, a gathered FST slot or
    //    an earlier op's result; every other op becomes a node one
    //    level above its deepest operand (loads are level 0).
    struct Node {
        OpCode op;
        std::uint32_t a, b, c;
        std::uint32_t level;
    };
    std::vector<Node> nodes;
    constants_.push_back(0.0f);  // constant 0: an empty program's result
    std::vector<std::uint32_t> gathered(kFeatureUniverse, kUnwritten);
    // The result each FST slot holds so far: a later program's load of
    // the slot reads it, as the programs would run one after another.
    std::vector<std::uint32_t> written(kFeatureUniverse, kUnwritten);
    std::vector<std::uint32_t> registers;
    std::vector<Write> writes;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        const Program& program = programs[p];
        registers.assign(program.register_count, kUnwritten);
        const auto read = [&](std::uint32_t reg, std::size_t k) {
            if (reg >= registers.size() || registers[reg] == kUnwritten) {
                FatalMisuse("FfeProcessor: program %zu instruction %zu reads "
                            "register %u, which no earlier instruction of "
                            "the program writes", p, k, reg);
            }
            return registers[reg];
        };
        const auto level = [&nodes](std::uint32_t ref) {
            return ref >> kTagShift == kOpTag ? nodes[ref & kIndexMask].level : 0;
        };
        std::uint32_t result = Tagged(kConstantTag, 0);
        for (std::size_t k = 0; k < program.instructions.size(); ++k) {
            const Instruction& instr = program.instructions[k];
            if (instr.dst >= registers.size()) {
                FatalMisuse("FfeProcessor: program %zu instruction %zu writes "
                            "register %u of a program with %u", p, k,
                            instr.dst, program.register_count);
            }
            if (instr.op == OpCode::kLoadConst) {
                result = Tagged(kConstantTag, constants_.size());
                constants_.push_back(instr.constant);
            } else if (instr.op == OpCode::kLoadFeature) {
                const std::uint32_t slot = instr.feature;
                if (slot >= kFeatureUniverse) {
                    FatalMisuse("FfeProcessor: program %zu instruction %zu "
                                "loads feature %u, outside the %u-slot FST",
                                p, k, slot, kFeatureUniverse);
                }
                if (written[slot] != kUnwritten) {
                    result = written[slot];
                    ++forwarded_loads_;
                } else {
                    if (gathered[slot] == kUnwritten) {
                        gathered[slot] = static_cast<std::uint32_t>(features_.size());
                        features_.push_back(slot);
                    }
                    result = Tagged(kFeatureTag, gathered[slot]);
                }
            } else {
                const int arity = Arity(instr.op);
                Node node{instr.op, read(instr.src_a, k), 0, 0, 0};
                // Unused operands repeat a used one, so every index is valid.
                node.b = arity > 1 ? read(instr.src_b, k) : node.a;
                node.c = arity > 2 ? read(instr.src_c, k) : node.b;
                node.level = 1 + std::max({level(node.a), level(node.b), level(node.c)});
                result = Tagged(kOpTag, nodes.size());
                nodes.push_back(node);
            }
            registers[instr.dst] = result;
        }
        if (program.output_slot >= kFeatureUniverse) {
            FatalMisuse("FfeProcessor: program %zu writes slot %u, outside "
                        "the %u-slot FST", p, program.output_slot,
                        kFeatureUniverse);
        }
        written[program.output_slot] = result;
        writes.push_back(Write{program.output_slot, result});
    }

    // 2. Schedule: a stable counting sort of the ops by (level,
    //    opcode). Each run of equal keys is one loop, and an op's
    //    position in the schedule is the value index it writes.
    constant_base_ = static_cast<std::uint32_t>(nodes.size());
    feature_base_ = constant_base_ + static_cast<std::uint32_t>(constants_.size());
    for (const Node& node : nodes) {
        levels_ = std::max(levels_, static_cast<int>(node.level));
    }
    const auto key = [](const Node& node) {
        return (node.level - 1) * kComputeOps + static_cast<std::uint32_t>(node.op);
    };
    std::vector<std::uint32_t> next(static_cast<std::size_t>(levels_) * kComputeOps + 1, 0);
    for (const Node& node : nodes) ++next[key(node) + 1];
    for (std::size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
    for (std::uint32_t k = 0; k + 1 < next.size(); ++k) {
        if (next[k] < next[k + 1]) {
            groups_.push_back(Group{static_cast<OpCode>(k % kComputeOps),
                                    next[k], next[k + 1]});
        }
    }
    std::vector<std::uint32_t> position(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) position[n] = next[key(nodes[n])]++;

    // 3. Resolve every reference to its value index.
    const auto resolve = [&](std::uint32_t ref) {
        const std::uint32_t index = ref & kIndexMask;
        switch (ref >> kTagShift) {
          case kOpTag: return position[index];
          case kConstantTag: return constant_base_ + index;
          default: return feature_base_ + index;
        }
    };
    a_.resize(nodes.size());
    b_.resize(nodes.size());
    c_.resize(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        a_[position[n]] = resolve(nodes[n].a);
        b_[position[n]] = resolve(nodes[n].b);
        c_[position[n]] = resolve(nodes[n].c);
    }
    writes_.reserve(writes.size());
    for (const Write& write : writes) {
        writes_.push_back(Write{write.slot, resolve(write.value)});
    }
}

void FfeProcessor::LoadPrograms(const std::vector<Program>& programs) {
    total_instructions_ = 0;
    for (const Program& program : programs) {
        total_instructions_ += program.InstructionCount();
    }
    breakdown_ = Timing(programs);
    document_cycles_ = Cycles(breakdown_);
    partition_ = Partition(programs);
}

void FfeProcessor::Run(const Partition& partition, FeatureStore& store,
                       std::vector<float>& values) {
    if (values.size() < partition.value_count()) {
        values.resize(partition.value_count());
    }
    float* const v = values.data();
    std::copy(partition.constants_.begin(), partition.constants_.end(),
              v + partition.constant_base_);
    const float* const fst = store.raw().data();
    float* const gathered = v + partition.feature_base_;
    for (std::size_t k = 0; k < partition.features_.size(); ++k) {
        gathered[k] = fst[partition.features_[k]];
    }
    // One loop per (level, opcode) group; within a group no op reads
    // another's result, so the iterations overlap freely. The selects
    // are bit masks over the comparisons the AST evaluator makes, which
    // keeps NaN and signed-zero results identical to its `?:`.
    const std::uint32_t* const a = partition.a_.data();
    const std::uint32_t* const b = partition.b_.data();
    const std::uint32_t* const c = partition.c_.data();
    for (const Partition::Group& group : partition.groups_) {
        const std::uint32_t end = group.end;
        switch (group.op) {
          case OpCode::kAdd:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Add(v[a[i]], v[b[i]]);
            break;
          case OpCode::kSub:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Sub(v[a[i]], v[b[i]]);
            break;
          case OpCode::kMul:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Mul(v[a[i]], v[b[i]]);
            break;
          case OpCode::kMax:
            for (std::uint32_t i = group.begin; i < end; ++i) {
                const float x = v[a[i]];
                const float y = v[b[i]];
                v[i] = Blend(Mask(x > y), x, y);
            }
            break;
          case OpCode::kMin:
            for (std::uint32_t i = group.begin; i < end; ++i) {
                const float x = v[a[i]];
                const float y = v[b[i]];
                v[i] = Blend(Mask(x < y), x, y);
            }
            break;
          case OpCode::kCmpGt:
            for (std::uint32_t i = group.begin; i < end; ++i) {
                v[i] = Blend(Mask(v[a[i]] > v[b[i]]), 1.0f, 0.0f);
            }
            break;
          case OpCode::kSelect:
            for (std::uint32_t i = group.begin; i < end; ++i) {
                v[i] = Blend(Mask(v[a[i]] != 0.0f), v[b[i]], v[c[i]]);
            }
            break;
          case OpCode::kDiv:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Div(v[a[i]], v[b[i]]);
            break;
          case OpCode::kLn:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Ln(v[a[i]]);
            break;
          case OpCode::kExp:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = Exp(v[a[i]]);
            break;
          case OpCode::kFloatToInt:
            for (std::uint32_t i = group.begin; i < end; ++i) v[i] = FloatToInt(v[a[i]]);
            break;
          case OpCode::kLoadFeature:
          case OpCode::kLoadConst:
            break;  // folded into operands at decode
        }
    }
    for (const Partition::Write& write : partition.writes_) {
        store.Set(write.slot, v[write.value]);
    }
}

float FfeProcessor::Execute(const Program& program, const FeatureStore& store) {
    const Partition partition(std::span<const Program>(&program, 1));
    std::vector<float> values;
    FeatureStore out = store;
    Run(partition, out, values);
    return out.Get(program.output_slot);
}

void FfeProcessor::ExecuteAll(FeatureStore& store) {
    Run(partition_, store, values_);
}

FfeProcessor::TimingBreakdown FfeProcessor::Timing(
    const std::vector<Program>& programs) const {
    const ThreadAssignment assignment = AssignThreads(
        programs, config_.core_count, config_.threads_per_core);
    TimingBreakdown breakdown;
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
                    kComplexInitiationInterval;
            }
            breakdown.max_thread_serial_cycles =
                std::max(breakdown.max_thread_serial_cycles, serial);
        }
        breakdown.max_core_issue_cycles =
            std::max(breakdown.max_core_issue_cycles, issue);
    }
    for (std::int64_t c : cluster_complex) {
        breakdown.max_cluster_complex_cycles =
            std::max(breakdown.max_cluster_complex_cycles, c);
    }
    return breakdown;
}

std::int64_t FfeProcessor::Cycles(const TimingBreakdown& breakdown) {
    return std::max({breakdown.max_core_issue_cycles,
                     breakdown.max_thread_serial_cycles,
                     breakdown.max_cluster_complex_cycles}) +
           kOverheadCycles;
}

std::int64_t FfeProcessor::DocumentCycles() const { return document_cycles_; }

Time FfeProcessor::DocumentServiceTime() const {
    return kClock.Cycles(document_cycles_);
}

Time FfeProcessor::DocumentServiceTime(
    const std::vector<Program>& programs) const {
    return kClock.Cycles(Cycles(Timing(programs)));
}

}  // namespace catapult::rank::ffe
