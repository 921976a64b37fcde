/**
 * @file
 * The traced driver: one single-socket machine assembled from the
 * simulator's public constructors exactly as SmtSystem assembles it,
 * run through the same warm-up/measure loop, with a timing Span
 * around every call into a layer.
 *
 * Two decorators sit on layer boundaries that the loop does not call
 * directly: TimedStream in front of each SyntheticStream (the core
 * pulls instructions from it) and TimedPort between Hierarchy and
 * DramSystem (every admission check, enqueue, and read completion
 * crosses it).  Cache lookups the core makes inside SmtCore::cycle
 * have no such seam, so they count as cpu self time.
 *
 * The driver must reproduce SmtSystem::run's fingerprint bit for bit;
 * the benchmark checks that on every traced simulation.
 */

#ifndef PERFBENCH_TRACED_MACHINE_HH
#define PERFBENCH_TRACED_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"
#include "sim/smt_system.hh"
#include "workload/synthetic_stream.hh"

namespace perfbench
{

/**
 * Exact simulated outcome of one simulation.  Deterministic for a
 * given config and seed; a change that only speeds the simulator up
 * must leave it identical.
 */
struct Fingerprint {
    std::uint64_t measuredCycles = 0;
    std::vector<std::uint64_t> committed;
    std::vector<double> ipc;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t rowHits = 0;

    bool operator==(const Fingerprint &) const = default;

    /** One line; IPCs printed with every digit. */
    std::string str() const;
};

Fingerprint fingerprintOf(const smtdram::RunResult &r);

/** Model and boundary counters of traced simulations, summed. */
struct DriverCounts {
    /** Warm-up plus measured cycles stepped or skipped by the loop. */
    std::uint64_t loopCycles = 0;
    std::uint64_t measuredCycles = 0;
    /** Committed and fetched over the whole loop, warm-up included. */
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t intIssueActiveCycles = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t l3Accesses = 0, l3Misses = 0;
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t blockedAccesses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;
    std::uint64_t dramReadsIssued = 0;
    std::uint64_t dramWritesIssued = 0;
    std::uint64_t workloadOps = 0;
    std::uint64_t portCalls = 0;
    std::uint64_t portRejects = 0;

    void add(const DriverCounts &o);
};

/** Times each call into a SyntheticStream (workload layer). */
class TimedStream : public smtdram::InstStream
{
  public:
    TimedStream(const smtdram::AppProfile &profile, std::uint64_t seed)
        : inner_(profile, seed)
    {
    }

    smtdram::MicroOp next() override;

    std::uint64_t ops() const { return ops_; }

  private:
    smtdram::SyntheticStream inner_;
    std::uint64_t ops_ = 0;
};

/** Times each call across the Hierarchy -> DramSystem boundary. */
class TimedPort : public smtdram::MemoryPort
{
  public:
    explicit TimedPort(smtdram::DramSystem &inner) : inner_(inner) {}

    bool canAccept(smtdram::Addr addr, smtdram::MemOp op) const override;
    std::uint64_t enqueueRead(smtdram::Addr addr,
                              smtdram::ThreadId thread,
                              const smtdram::ThreadSnapshot &snap,
                              smtdram::Cycle now,
                              bool critical) override;
    std::uint64_t enqueueWrite(smtdram::Addr addr,
                               smtdram::Cycle now) override;
    /** Wraps @p cb so completions count as cache fill time. */
    void setReadCallback(ReadCallback cb) override;

    std::uint64_t calls() const { return calls_; }
    std::uint64_t rejects() const { return rejects_; }

  private:
    smtdram::DramSystem &inner_;
    mutable std::uint64_t calls_ = 0;
    mutable std::uint64_t rejects_ = 0;
};

/** A traced single-socket machine; see the file comment. */
class TracedMachine
{
  public:
    /** Same contract as SmtSystem's constructor (no topology). */
    TracedMachine(const smtdram::SystemConfig &config,
                  const std::vector<smtdram::AppProfile> &apps,
                  std::uint64_t seed);

    /** Same loop as SmtSystem::run; adds to @p counts. */
    Fingerprint run(std::uint64_t measure_insts,
                    std::uint64_t warmup_insts, DriverCounts &counts);

  private:
    void stepCycle();
    std::uint64_t skipToNextEvent(smtdram::Cycle clamp);
    void prewarmCaches(const std::vector<smtdram::AppProfile> &apps);

    smtdram::SystemConfig config_;
    smtdram::EventQueue events_;
    std::unique_ptr<smtdram::DramSystem> dram_;
    std::unique_ptr<TimedPort> port_;
    std::unique_ptr<smtdram::Hierarchy> hierarchy_;
    std::unique_ptr<smtdram::SmtCore> core_;
    std::vector<std::unique_ptr<TimedStream>> streams_;
    smtdram::Cycle now_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_MACHINE_HH
