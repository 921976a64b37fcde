/** @file Unit tests for the SMT out-of-order core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"

namespace smtdram
{

/** Reaches into SmtCore to deliver completions in a chosen order. */
struct SmtCoreTestPeer {
    using Due = std::vector<std::pair<ThreadId, InstSeq>>;

    /** What the core's wheel will deliver at @p now, in its order. */
    static Due
    due(const SmtCore &core, Cycle now)
    {
        CompletionWheel wheel = core.completions_;
        Due out;
        const std::uint32_t rob = core.config_.robPerThread;
        wheel.drain(now, [&](std::uint32_t id) {
            const ThreadId tid = id / rob;
            out.emplace_back(tid, core.threads_[tid].rob[id % rob].seq);
        });
        return out;
    }

    static void
    complete(SmtCore &core, ThreadId tid, InstSeq seq, Cycle now)
    {
        core.markCompleted(tid, seq, now);
    }

    /** True if completing (@p tid, @p seq) wakes a consumer or ends
     *  its thread's mispredict stall. */
    static bool
    hasEffects(const SmtCore &core, ThreadId tid, InstSeq seq)
    {
        const auto &t = core.threads_[tid];
        return core.robSlot(tid, seq).wakeHead != 0 ||
               (t.awaitingBranch && t.awaitedBranchSeq == seq);
    }

    /** Everything markCompleted() can write, as text. */
    static std::string
    state(const SmtCore &core)
    {
        std::ostringstream os;
        for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
            const auto &t = core.threads_[tid];
            os << "t" << tid << " head=" << t.robHead
               << " tail=" << t.robTail << " await=" << t.awaitingBranch
               << "/" << t.awaitedBranchSeq
               << " resume=" << t.fetchResumeAt << " rob:";
            for (InstSeq q = t.robHead; q < t.robTail; ++q) {
                const auto &slot = core.robSlot(tid, q);
                os << static_cast<int>(slot.state) << "/" << slot.wakeHead
                   << ",";
            }
            os << "\n";
        }
        os << "ready int:";
        for (std::uint32_t id : core.intIq_.ready)
            os << id << ",";
        os << " fp:";
        for (std::uint32_t id : core.fpIq_.ready)
            os << id << ",";
        os << "\npending:";
        for (const auto &e : core.iqFile_)
            os << e.pending << ",";
        os << "\ncommitIdle=" << core.commitIdle_
           << " dispatchWakeAt=" << core.dispatchWakeAt_;
        return os.str();
    }
};

namespace
{

/** Scripted stream: endless repetition of a fixed op pattern. */
class FixedStream : public InstStream
{
  public:
    explicit FixedStream(MicroOp tmpl) : ops_{tmpl} {}
    explicit FixedStream(std::vector<MicroOp> ops) : ops_(std::move(ops))
    {
    }

    MicroOp
    next() override
    {
        MicroOp op = ops_[count_++ % ops_.size()];
        op.pc = pc_;
        pc_ += 4;
        if (pc_ >= kBase + kCodeBytes)
            pc_ = kBase;
        return op;
    }

    static constexpr Addr kBase = 0x40'0000;
    static constexpr Addr kCodeBytes = 2048;

  private:
    std::vector<MicroOp> ops_;
    std::uint64_t count_ = 0;
    Addr pc_ = kBase;
};

MicroOp
alu(std::uint8_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dep1 = dep;
    return op;
}

/** Core + hierarchy + DRAM bundle for the tests. */
class CoreHarness
{
  public:
    explicit CoreHarness(CoreConfig config,
                         HierarchyConfig hier = HierarchyConfig{})
        : dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst),
          hierarchy(hier, dram, events, config.numThreads),
          core(config, hierarchy)
    {
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = now + 1; c <= now + cycles; ++c) {
            events.runUntil(c);
            dram.tick(c);
            hierarchy.tick(c);
            core.cycle(c);
        }
        now += cycles;
    }

    /** Put thread 0's FixedStream code in the L2, so its I-cache
     *  misses cost an L2 hit rather than a DRAM read. */
    void
    prewarmCode()
    {
        for (Addr pc = FixedStream::kBase;
             pc < FixedStream::kBase + FixedStream::kCodeBytes; pc += 64)
            hierarchy.prewarmLine(0, pc, false);
    }

    /** Steady-state IPC of thread 0 measured after a warm window. */
    double
    steadyIpc(Cycle warm = 30000, Cycle measure = 30000)
    {
        run(warm);
        const std::uint64_t base = core.perf(0).committedInsts;
        run(measure);
        return static_cast<double>(core.perf(0).committedInsts -
                                   base) /
               measure;
    }

    EventQueue events;
    DramSystem dram;
    Hierarchy hierarchy;
    SmtCore core;
    Cycle now = 0;
};

CoreConfig
oneThread()
{
    CoreConfig c;
    c.numThreads = 1;
    return c;
}

TEST(SmtCore, IndependentAluSaturatesAluUnits)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    // 6 IntALUs bound the rate below the 8-wide front end.
    EXPECT_NEAR(h.steadyIpc(), 6.0, 0.2);
}

TEST(SmtCore, SerialChainRunsAtOnePerCycle)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(1));
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 1.0, 0.05);
}

TEST(SmtCore, DistanceTwoChainsDoubleThroughput)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(2));
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 2.0, 0.1);
}

TEST(SmtCore, IntMultLatencyBoundsChain)
{
    CoreConfig config = oneThread();
    CoreHarness h(config);
    MicroOp op;
    op.cls = OpClass::IntMult;
    op.dep1 = 1;
    FixedStream s(op);
    h.core.bindStream(0, &s);
    // A serial chain of 7-cycle multiplies: ~1/7 IPC.
    EXPECT_NEAR(h.steadyIpc(), 1.0 / 7.0, 0.02);
}

TEST(SmtCore, SameProducerOnBothOperandsWakesOnce)
{
    // Both operands wait on the same producer, which therefore wakes
    // the entry through two chain links.  Woken too early or never,
    // the chain would not run at exactly one per cycle.
    CoreHarness h(oneThread());
    MicroOp op = alu(1);
    op.dep2 = 1;
    FixedStream s(op);
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 1.0, 0.05);
}

TEST(SmtCore, ConsumerWaitsForSlowerProducer)
{
    // Repeating [mult, alu, consumer]: the mult and the alu both read
    // the previous consumer, and the consumer reads both of them.  It
    // must wait for the 7-cycle mult, not just the 1-cycle alu, so
    // each group of three takes 7 + 1 cycles.
    CoreHarness h(oneThread());
    MicroOp mult;
    mult.cls = OpClass::IntMult;
    mult.dep1 = 1;
    MicroOp consumer = alu(1);
    consumer.dep2 = 2;
    FixedStream s({mult, alu(2), consumer});
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 3.0 / 8.0, 0.02);
}

TEST(SmtCore, WokenEntryIssuesBeforeYoungerReadyOnes)
{
    // One multiplier.  After an ALU op (fetched alone by the first
    // I-cache miss), mult 2 waits on mult 1, and the thirteen mults
    // after them are independent, so they queue for the unit one per
    // cycle.  When mult 1 completes, mult 2 is the oldest ready entry
    // and takes the unit that cycle: it commits exactly one mult
    // latency after mult 1, not after the younger ready mults.
    CoreConfig config = oneThread();
    config.intMultUnits = 1;
    CoreHarness h(config);
    MicroOp mult;
    mult.cls = OpClass::IntMult;
    std::vector<MicroOp> ops(16, mult);
    ops[0] = alu();
    ops[2].dep1 = 1;
    FixedStream s(ops);
    h.prewarmCode();
    h.core.bindStream(0, &s);

    Cycle first = 0;
    Cycle second = 0;
    for (Cycle c = 1; second == 0; ++c) {
        ASSERT_LT(c, 5000u);
        h.run(1);
        const std::uint64_t committed = h.core.perf(0).committedInsts;
        if (committed >= 2 && first == 0)
            first = c;
        if (committed >= 3)
            second = c;
    }
    EXPECT_EQ(second - first, execLatency(OpClass::IntMult));
}

TEST(SmtCore, FpOpsUseFpQueue)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::FpAlu;
    FixedStream s(op);
    h.core.bindStream(0, &s);
    // 2 FPALUs bound independent FP throughput.
    EXPECT_NEAR(h.steadyIpc(), 2.0, 0.1);
}

TEST(SmtCore, TwoThreadsShareTheMachine)
{
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    FixedStream s0(alu(0)), s1(alu(0));
    h.core.bindStream(0, &s0);
    h.core.bindStream(1, &s1);
    h.run(60000);
    const double ipc0 = h.core.perf(0).committedInsts / 60000.0;
    const double ipc1 = h.core.perf(1).committedInsts / 60000.0;
    // Together they still cannot beat the 6 ALUs; sharing is fair.
    EXPECT_NEAR(ipc0 + ipc1, 6.0, 0.3);
    EXPECT_NEAR(ipc0, ipc1, 0.5);
}

TEST(SmtCore, LoadsHitInL1AfterPrewarm)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Load;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    // Load-only stream bound by the 2 cache ports.
    EXPECT_NEAR(h.steadyIpc(10000, 10000), 2.0, 0.2);
}

TEST(SmtCore, SnapshotReflectsOccupancy)
{
    CoreHarness h(oneThread());
    // A serial dependence chain piles instructions into the ROB/IQ.
    FixedStream s(alu(1));
    h.core.bindStream(0, &s);
    h.run(20000);  // past the I-cache warm-up
    const ThreadSnapshot snap = h.core.snapshot(0);
    EXPECT_GT(snap.robOccupancy, 0u);
    EXPECT_EQ(snap.robOccupancy, h.core.robOccupancy(0));
    EXPECT_EQ(snap.iqOccupancy, h.core.intIqOccupancy(0));
}

TEST(SmtCore, MispredictsReduceThroughput)
{
    // Identical streams except for branch predictability.
    auto run_with = [](bool predictable) {
        class BranchStream : public InstStream
        {
          public:
            explicit BranchStream(bool predictable)
                : predictable_(predictable)
            {
            }

            MicroOp
            next() override
            {
                MicroOp op;
                op.pc = pc_;
                if (++count_ % 8 == 0) {
                    op.cls = OpClass::Branch;
                    // Predictable: always fall through.  Noisy:
                    // genuinely random outcomes (unlearnable).
                    const bool taken =
                        !predictable_ && rng_.chance(0.5);
                    op.taken = taken;
                    op.nextPc = taken ? pc_ - 256 : pc_ + 4;
                    pc_ = op.nextPc;
                } else {
                    op.cls = OpClass::IntAlu;
                    pc_ += 4;
                }
                if (pc_ >= 0x40'0000 + 4096 || pc_ < 0x40'0000)
                    pc_ = 0x40'0000;
                return op;
            }

          private:
            bool predictable_;
            Rng rng_{99};
            Addr pc_ = 0x40'0000;
            std::uint64_t count_ = 0;
        };

        CoreConfig config;
        config.numThreads = 1;
        CoreHarness h(config);
        BranchStream s(predictable);
        h.core.bindStream(0, &s);
        h.run(40000);
        return static_cast<double>(h.core.perf(0).committedInsts);
    };

    const double predictable = run_with(true);
    const double noisy = run_with(false);
    EXPECT_GT(predictable, noisy * 1.3);
}

TEST(SmtCore, PerfCountsOpClasses)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Load;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    h.run(5000);
    EXPECT_GT(h.core.perf(0).loads, 0u);
    EXPECT_EQ(h.core.perf(0).stores, 0u);
    EXPECT_EQ(h.core.perf(0).branches, 0u);
}

TEST(SmtCore, StoresDrainThroughWriteBuffer)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Store;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    h.run(20000);
    // Stores commit; the write buffer (1 drain/cycle) is the bound.
    EXPECT_GT(h.core.perf(0).committedInsts, 10000u);
}

TEST(SmtCore, ParkedThreadRetiresItsStoreMisses)
{
    // Stores to ever-new lines: each drain takes an L1D MSHR, and once
    // those are all busy the write buffer stays full.  Commit then
    // waits on a store head that completed long ago, so only the
    // buffer's drains can restart it -- in particular after the
    // thread is parked and nothing else is left in flight.
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Store;
    std::vector<MicroOp> ops(4096, op);
    for (std::size_t i = 0; i < ops.size(); ++i)
        ops[i].effAddr = 0x1000'0000 + 64 * i;
    FixedStream s(ops);
    h.core.bindStream(0, &s);
    h.run(10000);
    h.core.bindStream(0, nullptr);
    h.run(5000);
    EXPECT_GT(h.core.perf(0).committedInsts, 100u);
    EXPECT_TRUE(h.core.quiescent(0));
    EXPECT_EQ(h.core.perf(0).committedInsts, h.core.perf(0).fetchedInsts);
}

TEST(SmtCore, IssueFreedIqEntryRefillsTheSameCycle)
{
    // A DRAM miss at the ROB head holds commit while a serial chain of
    // mults behind it fills a small integer queue.  Each mult that
    // issues frees an entry, and dispatch, which has decoded mults
    // waiting, must refill it in the same cycle.
    CoreConfig config = oneThread();
    config.intIqSize = 8;
    CoreHarness h(config);
    MicroOp cold;
    cold.cls = OpClass::Load;
    cold.effAddr = 0x2000'0000;
    MicroOp mult;
    mult.cls = OpClass::IntMult;
    mult.dep1 = 1;
    std::vector<MicroOp> ops(1000, mult);
    ops[0] = cold;
    ops[1].dep1 = 0;
    FixedStream s(ops);
    h.prewarmCode();
    h.core.bindStream(0, &s);

    std::uint32_t full_cycles = 0;
    for (Cycle c = 1; h.core.perf(0).committedInsts == 0; ++c) {
        ASSERT_LT(c, 5000u);
        h.run(1);
        if (full_cycles > 0 || h.core.intIqOccupancy(0) == 8) {
            EXPECT_EQ(h.core.intIqOccupancy(0), 8u) << "cycle " << c;
            ++full_cycles;
        }
    }
    EXPECT_GT(full_cycles, 30u);
}

TEST(SmtCore, FetchStallSpanOpensWhenFetchStops)
{
    // Cycle 1's fetch misses the I-cache, so from cycle 2 on no thread
    // can fetch.  A traced core must open the stall span on cycle 2,
    // even though fetch has nothing to rank until the fill returns.
    const std::string path =
        std::string("smt_core_test.") +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".trace.json";
    {
        Tracer tracer(path);
        CoreHarness h(oneThread());
        FixedStream s(alu());
        h.core.setTracer(&tracer);
        h.core.bindStream(0, &s);
        h.run(20);
    }  // the tracer writes the file when it goes out of scope
    std::ifstream in(path);
    std::string line;
    std::string begin;
    while (std::getline(in, line)) {
        if (line.find("\"fetch-stall\"") != std::string::npos &&
            line.find("\"ph\":\"b\"") != std::string::npos)
            begin = line;
    }
    std::remove(path.c_str());
    EXPECT_NE(begin.find("\"ts\":2,"), std::string::npos) << begin;
}

TEST(SmtCore, IntIssueActiveCyclesTracked)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    h.run(10000);  // I-cache warm-up
    const std::uint64_t base = h.core.intIssueActiveCycles();
    h.run(10000);
    EXPECT_GT(h.core.intIssueActiveCycles() - base, 9000u);
    EXPECT_LE(h.core.intIssueActiveCycles(), h.core.cyclesRun());
}

TEST(SmtCore, UnboundThreadIsIdle)
{
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    // Thread 1 has no stream; it must stay silent and harmless.
    h.run(5000);
    EXPECT_GT(h.core.perf(0).committedInsts, 0u);
    EXPECT_EQ(h.core.perf(1).committedInsts, 0u);
}

TEST(SmtCoreNextEvent, QuiescentCoreReportsNever)
{
    // No stream bound anywhere: cycle() can never do more than bump
    // rotation counters, which is exactly what the sentinel means.
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    EXPECT_EQ(h.core.nextEventAt(0), kCycleNever);
    h.run(100);
    EXPECT_EQ(h.core.nextEventAt(100), kCycleNever);
}

TEST(SmtCoreNextEvent, BoundStreamIsActionableNextCycle)
{
    CoreConfig config;
    config.numThreads = 1;
    CoreHarness h(config);
    FixedStream stream(alu());
    h.core.bindStream(0, &stream);
    // Fetchable work means the very next tick does something real.
    EXPECT_EQ(h.core.nextEventAt(0), 1u);
}

TEST(SmtCoreNextEvent, NeverSleepsThroughACommit)
{
    // The contract the skip kernel relies on: the core may answer
    // kCycleNever while its pending event lives elsewhere (an icache
    // fill in flight in the DRAM system), but the system-wide minimum
    // over {core, event queue, DRAM} must always be finite, and
    // whenever the core commits on cycle c it must have announced an
    // event no later than c on cycle c-1.
    CoreConfig config;
    config.numThreads = 1;
    CoreHarness h(config);
    FixedStream stream(alu());
    h.core.bindStream(0, &stream);
    std::uint64_t committed = 0;
    bool saw_core_event = false;
    for (Cycle c = 1; c <= 800; ++c) {
        const Cycle core_next = h.core.nextEventAt(c - 1);
        const Cycle system_next =
            std::min({core_next, h.events.nextEventAt(),
                      h.dram.nextEventAt(c - 1)});
        ASSERT_NE(system_next, kCycleNever) << "deadlock at " << c;
        ASSERT_GE(system_next, c);
        h.run(1);
        const std::uint64_t now_committed =
            h.core.perf(0).committedInsts;
        if (now_committed > committed) {
            // A commit at c was announced: the core itself reported
            // an actionable event no later than this cycle.
            EXPECT_LE(core_next, c) << "commit at " << c
                                    << " was not announced";
            saw_core_event = true;
        }
        committed = now_committed;
    }
    EXPECT_TRUE(saw_core_event);
    EXPECT_GT(committed, 0u);
}

TEST(SmtCoreNextEvent, ReadyButPortBlockedLoadIsActionable)
{
    // A DRAM miss at the ROB head holds commit, the load queue fills
    // behind it, and the fetch queue backs up: dispatch, fetch and
    // commit all stall.  The L1-hit loads still queue for the two
    // cache ports, so some sit dep-ready but port-blocked, and each
    // cycle that issues one must have been announced.
    CoreHarness h(oneThread());
    MicroOp cold;
    cold.cls = OpClass::Load;
    cold.effAddr = 0x2000'0000;
    MicroOp hot = cold;
    hot.effAddr = 0x1000'0000;
    std::vector<MicroOp> ops(1000, hot);
    ops[0] = cold;
    FixedStream s(ops);
    h.hierarchy.prewarmLine(0, hot.effAddr, true);
    h.prewarmCode();
    h.core.bindStream(0, &s);

    std::uint64_t loads = 0;
    std::uint32_t blocked_issues = 0;
    for (Cycle c = 1; c <= 2000; ++c) {
        const Cycle core_next = h.core.nextEventAt(c - 1);
        const std::uint32_t rob_before = h.core.robOccupancy(0);
        h.run(1);
        const std::uint64_t now_loads = h.core.perf(0).loads;
        if (now_loads > loads) {
            EXPECT_LE(core_next, c) << "load issue at " << c
                                    << " was not announced";
            // Nothing dispatched or committed: only issue acted.
            if (h.core.robOccupancy(0) == rob_before &&
                h.core.perf(0).committedInsts == 0)
                ++blocked_issues;
        }
        loads = now_loads;
    }
    EXPECT_GT(blocked_issues, 10u);
    EXPECT_GT(h.core.perf(0).committedInsts, 0u);
}

TEST(SmtCoreNextEvent, DispatchStalledCoreSleepsUntilDecodeReady)
{
    // Cycle 1's fetch misses the I-cache after taking one op into the
    // decode pipe.  Nothing can happen in the core until that op is
    // decoded, and dispatch must take it exactly then.
    const CoreConfig config = oneThread();
    CoreHarness h(config);
    FixedStream s(alu());
    h.core.bindStream(0, &s);
    h.run(1);
    const Cycle decoded = 1 + config.decodeStages;
    EXPECT_EQ(h.core.nextEventAt(1), decoded);
    for (Cycle c = 2; c < decoded; ++c) {
        h.run(1);
        EXPECT_EQ(h.core.robOccupancy(0), 0u) << "cycle " << c;
    }
    h.run(1);
    EXPECT_EQ(h.core.robOccupancy(0), 1u);
}

TEST(SmtCoreNextEvent, SkipCyclesReplaysIdleTickingExactly)
{
    // Two identical 2-thread machines: A really ticks 137 quiescent
    // cycles, B skips them with skipCycles(137).  Binding the same
    // streams afterwards must produce identical per-thread progress —
    // the rotation counters that arbitrate round-robin ties between
    // the threads advance the same way in both machines.
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness a(config);
    CoreHarness b(config);
    a.run(137);
    b.core.skipCycles(137);
    EXPECT_EQ(a.core.cyclesRun(), b.core.cyclesRun());

    FixedStream a0(alu()), a1(alu(1)), b0(alu()), b1(alu(1));
    a.core.bindStream(0, &a0);
    a.core.bindStream(1, &a1);
    b.core.bindStream(0, &b0);
    b.core.bindStream(1, &b1);
    a.run(500);
    b.run(500);
    EXPECT_EQ(a.core.cyclesRun(), b.core.cyclesRun());
    EXPECT_GT(a.core.perf(0).committedInsts, 0u);
    EXPECT_EQ(a.core.perf(0).committedInsts,
              b.core.perf(0).committedInsts);
    EXPECT_EQ(a.core.perf(1).committedInsts,
              b.core.perf(1).committedInsts);
}

/** Random mix of dependent ALU/multiply/FP ops and coin-flip
 *  branches, so completions pile up in the same cycles and wake
 *  consumers or end mispredict stalls. */
class RandomDepStream : public InstStream
{
  public:
    explicit RandomDepStream(std::uint64_t seed) : rng_(seed) {}

    MicroOp
    next() override
    {
        MicroOp op;
        op.pc = pc_;
        const std::uint64_t r = rng_.below(10);
        op.cls = r < 5   ? OpClass::IntAlu
                 : r < 7 ? OpClass::IntMult
                 : r < 9 ? OpClass::FpAlu
                         : OpClass::Branch;
        op.dep1 = static_cast<std::uint8_t>(rng_.below(4));
        op.dep2 = static_cast<std::uint8_t>(rng_.below(8));
        if (op.cls == OpClass::Branch) {
            op.taken = rng_.chance(0.5);
            op.nextPc = op.taken ? FixedStream::kBase : pc_ + 4;
            pc_ = op.nextPc;
        } else {
            pc_ += 4;
        }
        if (pc_ >= FixedStream::kBase + FixedStream::kCodeBytes)
            pc_ = FixedStream::kBase;
        return op;
    }

  private:
    Rng rng_;
    Addr pc_ = FixedStream::kBase;
};

TEST(SmtCore, SameCycleCompletionOrderDoesNotMatter)
{
    // Two identical machines in lockstep.  Before every cycle, each
    // receives the completions its wheel holds for that cycle — A in
    // the wheel's order, B in reverse — and must end up in the same
    // state: markCompleted() only sets flags, inserts into ready
    // lists by stamp, and ends at most one mispredict stall per
    // thread (DESIGN.md section 11).
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness a(config);
    CoreHarness b(config);
    RandomDepStream a0(1), a1(2), b0(1), b1(2);
    a.prewarmCode();
    b.prewarmCode();
    a.core.bindStream(0, &a0);
    a.core.bindStream(1, &a1);
    b.core.bindStream(0, &b0);
    b.core.bindStream(1, &b1);
    std::uint32_t contested = 0;
    for (Cycle c = 1; c <= 4000; ++c) {
        const SmtCoreTestPeer::Due due = SmtCoreTestPeer::due(a.core, c);
        ASSERT_EQ(due, SmtCoreTestPeer::due(b.core, c)) << "cycle " << c;
        std::uint32_t effective = 0;
        for (const auto &[tid, seq] : due)
            effective += SmtCoreTestPeer::hasEffects(a.core, tid, seq);
        if (effective >= 2)
            ++contested;
        for (auto it = due.begin(); it != due.end(); ++it)
            SmtCoreTestPeer::complete(a.core, it->first, it->second, c);
        for (auto it = due.rbegin(); it != due.rend(); ++it)
            SmtCoreTestPeer::complete(b.core, it->first, it->second, c);
        ASSERT_EQ(SmtCoreTestPeer::state(a.core),
                  SmtCoreTestPeer::state(b.core))
            << "cycle " << c;
        a.run(1);
        b.run(1);
    }
    EXPECT_GT(contested, 100u);
    EXPECT_GT(a.core.perf(0).mispredicts, 0u);
    for (ThreadId t = 0; t < 2; ++t) {
        EXPECT_GT(a.core.perf(t).committedInsts, 1000u);
        EXPECT_EQ(a.core.perf(t).committedInsts,
                  b.core.perf(t).committedInsts);
    }
}

TEST(SmtCore, CompletionWheelCoversTheConfiguredTlbPenalty)
{
    // L1 hits on 160 pages, more than the 128-entry DTLB holds, so
    // every load pays a 100-cycle TLB miss on top of its hit: the
    // completion wheel must be sized from the configured penalty.
    // The counts are those of the binary-heap completion queue the
    // wheel replaced.
    HierarchyConfig hier;
    hier.tlbMissPenalty = 100;
    CoreHarness h(oneThread(), hier);
    std::vector<MicroOp> ops;
    for (Addr page = 0; page < 160; ++page) {
        MicroOp load;
        load.cls = OpClass::Load;
        load.effAddr = 0x1000'0000 + page * 8192 + (page % 128) * 64;
        h.hierarchy.prewarmLine(0, load.effAddr, true);
        ops.push_back(load);
    }
    FixedStream s(ops);
    h.prewarmCode();
    h.core.bindStream(0, &s);
    h.run(20000);
    EXPECT_EQ(h.core.perf(0).committedInsts, 12249u);
    EXPECT_EQ(h.hierarchy.dtlb().stats().misses(), 12311u);
    EXPECT_EQ(h.hierarchy.l1d().demandStats().hits(), 12311u);
}

TEST(CompletionWheelDeathTest, DelayBeyondTheWheelPanics)
{
    CompletionWheel wheel(40, 4);  // 64 buckets
    ASSERT_EQ(wheel.buckets(), 64u);
    wheel.schedule(63, 0);  // the farthest cycle the ring can hold
    EXPECT_EQ(wheel.next(), 63u);
    EXPECT_DEATH(wheel.schedule(64, 1), "outside the 64-bucket wheel");
}

TEST(CompletionWheel, DeliversEachCycleInOrderAcrossSkips)
{
    CompletionWheel wheel(40, 8);
    wheel.schedule(5, 0);
    wheel.schedule(3, 1);
    wheel.schedule(5, 2);
    wheel.schedule(40, 3);
    EXPECT_EQ(wheel.next(), 3u);
    std::vector<std::uint32_t> got;
    const auto take = [&got](std::uint32_t id) { got.push_back(id); };
    wheel.drain(2, take);
    EXPECT_TRUE(got.empty());
    // A drain that jumps several cycles still goes earliest first.
    wheel.drain(10, take);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], 1u);
    EXPECT_EQ(wheel.next(), 40u);
    // The window slid: cycle 70 now fits, and wraps past cycle 40.
    wheel.schedule(70, 4);
    EXPECT_EQ(wheel.next(), 40u);
    wheel.drain(69, take);
    EXPECT_EQ(got.back(), 3u);
    EXPECT_EQ(wheel.next(), 70u);
    wheel.drain(70, take);
    EXPECT_EQ(got.back(), 4u);
    EXPECT_EQ(wheel.next(), kCycleNever);
}

TEST(SmtCoreDeathTest, TooFewRegistersRejected)
{
    CoreConfig config;
    config.numThreads = 8;
    config.intRegs = 100;  // < 8 * 32 architectural
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    EventQueue events;
    Hierarchy hier(HierarchyConfig{}, dram, events, 8);
    EXPECT_EXIT(SmtCore(config, hier), testing::ExitedWithCode(1),
                "registers");
}

} // namespace
} // namespace smtdram
