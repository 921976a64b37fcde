/**
 * @file
 * The dynamic instruction (micro-op) record flowing through the core.
 *
 * The simulator is stream-driven: workload generators emit MicroOps
 * carrying everything timing-relevant — operation class, dependency
 * distances, memory address, branch outcome — and the core models
 * when each one fetches, issues, completes, and commits.
 */

#ifndef SMTDRAM_CPU_INSTRUCTION_HH
#define SMTDRAM_CPU_INSTRUCTION_HH

#include <cstdint>

#include "common/types.hh"

namespace smtdram
{

/** Functional classes; determines FU, issue queue, and latency. */
enum class OpClass : std::uint8_t {
    IntAlu,   ///< single-cycle integer op (also branch/agen unit)
    IntMult,  ///< long-latency integer op
    FpAlu,    ///< floating-point add/sub/cmp
    FpMult,   ///< floating-point mul/div (modelled as one class)
    Load,
    Store,
    Branch,
};

/** True for the classes dispatched into the FP issue queue. */
constexpr bool
isFpClass(OpClass c)
{
    return c == OpClass::FpAlu || c == OpClass::FpMult;
}

/** True if the op produces a register value others can depend on. */
constexpr bool
producesValue(OpClass c)
{
    return c != OpClass::Store && c != OpClass::Branch;
}

/** Execution latency of each class once issued, in cycles. */
constexpr Cycle
execLatency(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMult: return 7;
      case OpClass::FpAlu: return 4;
      case OpClass::FpMult: return 4;
      case OpClass::Load: return 1;   // plus the cache access
      case OpClass::Store: return 1;
      case OpClass::Branch: return 1;
    }
    return 1;
}

/** Longest execLatency() of any class. */
constexpr Cycle
maxExecLatency()
{
    Cycle longest = 0;
    for (int c = 0; c <= static_cast<int>(OpClass::Branch); ++c) {
        const Cycle lat = execLatency(static_cast<OpClass>(c));
        longest = lat > longest ? lat : longest;
    }
    return longest;
}

/** One instruction as produced by a workload generator. */
struct MicroOp {
    OpClass cls = OpClass::IntAlu;
    /** Virtual PC of the instruction. */
    Addr pc = 0;
    /** Effective virtual address (Load/Store only). */
    Addr effAddr = 0;
    /** Actual branch outcome (Branch only). */
    bool taken = false;
    /** Actual next PC (Branch only; used to validate the BTB/RAS). */
    Addr nextPc = 0;
    bool isCall = false;
    bool isReturn = false;
    /**
     * Dependency distances: this op reads the results of the ops
     * `dep1` and `dep2` positions earlier in the same thread's
     * stream (0 = no dependency).  Distances express the workload's
     * inherent ILP.
     */
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
};

/**
 * Source of a thread's dynamic instruction stream.  Implementations
 * live in src/workload; they must be deterministic functions of
 * their seed.
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /** Produce the next instruction in program order. */
    virtual MicroOp next() = 0;
};

} // namespace smtdram

#endif // SMTDRAM_CPU_INSTRUCTION_HH
