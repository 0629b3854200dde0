// Leaf-PC sampler and module attribution for traced runs.
//
// A POSIX interval timer on CLOCK_MONOTONIC (a high-resolution hrtimer;
// the process-CPU timers behind ITIMER_PROF only fire at the kernel
// tick, a few hundred samples per run) delivers SIGPROF to this
// single-threaded process, and the handler stores the interrupted
// program counter into a preallocated buffer. The sampler is armed only
// inside the simulate phase. After the run each PC is resolved against
// the executable's full ELF symbol table, local symbols included
// (lambdas and anonymous-namespace functions are locals), and the
// demangled name is mapped to a simulator layer.

#pragma once

#include <time.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class LeafSampler {
  public:
    /** `period_us`: sampling interval; `capacity`: PCs kept at most. */
    LeafSampler(int period_us, std::size_t capacity);
    ~LeafSampler();

    LeafSampler(const LeafSampler&) = delete;
    LeafSampler& operator=(const LeafSampler&) = delete;

    void Arm();
    void Disarm();

    std::size_t samples() const;
    /** Samples per layer name; every layer appears, sampled or not. */
    std::map<std::string, std::uint64_t> Attribute() const;
    /** The `n` most-sampled symbols as "count layer name" lines. */
    std::vector<std::string> TopSymbols(std::size_t n) const;

  private:
    std::vector<std::uintptr_t> pcs_;
    int period_us_;
    timer_t timer_{};
    bool timer_ok_ = false;
};

}  // namespace perfbench
