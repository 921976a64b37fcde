/** @file Unit tests for the multi-level hierarchy and its miss path. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/hierarchy.hh"

#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

/** Test fixture wiring a hierarchy to a real DRAM system. */
class HierarchyTest : public testing::Test
{
  protected:
    HierarchyTest()
        : dram_(DramConfig::ddrSdram(2), SchedulerKind::HitFirst),
          hierarchy_(config(), dram_, events_, 2)
    {
        hierarchy_.setMissCallback(
            [this](ThreadId, InstSeq seq, AccessKind, Cycle when) {
                completions_[seq] = when;
            });
    }

    static HierarchyConfig
    config()
    {
        HierarchyConfig c;
        // Disable the TLB penalty so latencies are exact.
        c.tlbMissPenalty = 0;
        return c;
    }

    /** Advance the machine to the given cycle. */
    void
    runTo(Cycle cycle)
    {
        for (Cycle c = now_ + 1; c <= cycle; ++c) {
            events_.runUntil(c);
            dram_.tick(c);
            hierarchy_.tick(c);
        }
        now_ = cycle;
    }

    /**
     * Run until the miss of instruction @p seq completes; returns its
     * completion cycle.
     */
    Cycle
    waitFor(InstSeq seq, Cycle deadline = 5000)
    {
        while (now_ < deadline && !completions_.count(seq))
            runTo(now_ + 1);
        EXPECT_TRUE(completions_.count(seq))
            << "miss of seq " << seq << " never completed";
        return completions_.count(seq) ? completions_[seq] : 0;
    }

    EventQueue events_;
    DramSystem dram_;
    Hierarchy hierarchy_;
    std::map<InstSeq, Cycle> completions_;
    Cycle now_ = 0;
};

TEST_F(HierarchyTest, ColdLoadGoesToDram)
{
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingDramReads(0), 1u);
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 1u);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 1u);
    const Cycle done = waitFor(1);
    // At least the DRAM latency: 45+45+30 plus overheads.
    EXPECT_GE(done, 120u);
    EXPECT_EQ(hierarchy_.pendingDramReads(0), 0u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 1u);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    waitFor(1);
    const AccessResult hit =
        hierarchy_.access(AccessKind::Load, 0, 2, 0x100, now_);
    EXPECT_EQ(hit.status, AccessResult::Status::Hit);
    EXPECT_EQ(hit.latency, 1u);
}

TEST_F(HierarchyTest, SameLineDifferentWordHits)
{
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    waitFor(1);
    const AccessResult hit =
        hierarchy_.access(AccessKind::Load, 0, 2, 0x138, now_);
    EXPECT_EQ(hit.status, AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, L2HitLatency)
{
    // Prewarm into L2/L3 but not L1.
    hierarchy_.prewarmLine(0, 0x100, false);
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 0u);
    const Cycle done = waitFor(1);
    EXPECT_EQ(done, 1u + 10u);  // L1 + L2 latency
}

TEST_F(HierarchyTest, CoalescingSharesOneMshr)
{
    const AccessResult a =
        hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    const AccessResult b =
        hierarchy_.access(AccessKind::Load, 0, 2, 0x110, 0);
    EXPECT_EQ(a.status, AccessResult::Status::Pending);
    EXPECT_EQ(b.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.outstandingLines(), 1u);
    EXPECT_EQ(hierarchy_.coalescedTargets(), 1u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 1u);
    const Cycle ca = waitFor(1);
    const Cycle cb = waitFor(2);
    EXPECT_EQ(ca, cb);  // one fill completes both
}

TEST_F(HierarchyTest, MshrLimitBlocks)
{
    // 16 L1D MSHRs (Table 1): the 17th distinct-line miss blocks.
    for (int i = 0; i < 16; ++i) {
        const AccessResult r = hierarchy_.access(
            AccessKind::Load, 0, i, static_cast<Addr>(i) * 64, 0);
        ASSERT_EQ(r.status, AccessResult::Status::Pending) << i;
    }
    const AccessResult blocked =
        hierarchy_.access(AccessKind::Load, 0, 17, 17 * 64, 0);
    EXPECT_EQ(blocked.status, AccessResult::Status::Blocked);
    EXPECT_GT(hierarchy_.blockedAccesses(), 0u);

    // After the fills return, capacity frees up again.
    runTo(3000);
    const AccessResult retry =
        hierarchy_.access(AccessKind::Load, 0, 17, 17 * 64, now_);
    EXPECT_EQ(retry.status, AccessResult::Status::Pending);
}

TEST_F(HierarchyTest, StoreMissFillsDirtyAndWritesBackToDram)
{
    // A store miss write-allocates; the line must eventually come
    // back out as a DRAM write when evicted.
    const AccessResult st =
        hierarchy_.access(AccessKind::Store, 0, 1, 0x100, 0);
    ASSERT_EQ(st.status, AccessResult::Status::Pending);
    waitFor(1);
    EXPECT_EQ(hierarchy_.dramWritesIssued(), 0u);

    // Evict it from every level.  Frames are allocated sequentially
    // on first touch (bin hopping), so virtual strides do not map to
    // cache sets directly; instead touch one line in each of many
    // fresh pages — more than 5x the L3 capacity in set pressure —
    // so every L3 set, including the dirty line's, overflows.
    for (int i = 1; i <= 700; ++i) {
        const Addr conflict =
            0x100 + static_cast<Addr>(i) * 8 * 1024;
        const InstSeq seq = 1 + static_cast<InstSeq>(i);
        const AccessResult r =
            hierarchy_.access(AccessKind::Load, 0, seq, conflict, now_);
        if (r.status == AccessResult::Status::Pending)
            waitFor(seq, now_ + 5000);
        else
            runTo(now_ + 2);
    }
    runTo(now_ + 2000);
    EXPECT_GE(hierarchy_.dramWritesIssued(), 1u);
}

TEST_F(HierarchyTest, PerThreadCountersAreIndependent)
{
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    hierarchy_.access(AccessKind::Load, 1, 1, 0x100, 0);
    // Thread-private address spaces: same vaddr, two lines, two
    // DRAM reads, counters tracked per thread.
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 1u);
    EXPECT_EQ(hierarchy_.pendingDataMisses(1), 1u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 2u);
}

TEST_F(HierarchyTest, InstFetchDoesNotCountAsDataMiss)
{
    const AccessResult r =
        hierarchy_.access(AccessKind::InstFetch, 0, 1, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 0u);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 1u);
}

TEST_F(HierarchyTest, FetchAndLoadCoalesceOnOneLine)
{
    hierarchy_.access(AccessKind::InstFetch, 0, 1, 0x100, 0);
    hierarchy_.access(AccessKind::Load, 0, 2, 0x104, 0);
    EXPECT_EQ(hierarchy_.outstandingLines(), 1u);
    const Cycle cf = waitFor(1);
    const Cycle cl = waitFor(2);
    EXPECT_EQ(cf, cl);
    // The fill lands in both L1s: both kinds now hit.
    EXPECT_EQ(
        hierarchy_.access(AccessKind::InstFetch, 0, 3, 0x100, now_)
            .status,
        AccessResult::Status::Hit);
    EXPECT_EQ(
        hierarchy_.access(AccessKind::Load, 0, 4, 0x104, now_).status,
        AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, SnapshotProviderFeedsDramRequests)
{
    hierarchy_.setSnapshotProvider([](ThreadId) {
        ThreadSnapshot s;
        s.robOccupancy = 99;
        return s;
    });
    ThreadSnapshot seen;
    dram_.setReadCallback(
        [&](const DramRequest &req) { seen = req.snap; });
    // NOTE: overriding the DRAM read callback detaches the
    // hierarchy's fill path, so only inspect the request here.
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    for (Cycle c = 1; c < 500; ++c)
        dram_.tick(c);
    EXPECT_EQ(seen.robOccupancy, 99u);
    EXPECT_EQ(seen.outstandingRequests, 1u);  // includes itself
}

TEST_F(HierarchyTest, InfiniteL3StopsDramTraffic)
{
    HierarchyConfig config;
    config.l3.infinite = true;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    std::map<InstSeq, Cycle> done;
    h.setMissCallback([&](ThreadId, InstSeq seq, AccessKind, Cycle when) {
        done[seq] = when;
    });

    const AccessResult r = h.access(AccessKind::Load, 0, 1, 0x100, 0);
    ASSERT_EQ(r.status, AccessResult::Status::Pending);
    for (Cycle c = 1; c <= 100; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    ASSERT_TRUE(done.count(1));
    EXPECT_EQ(done[1], 1u + 10u + 20u);  // L1+L2+L3 trip
    EXPECT_EQ(h.dramReadsIssued(), 0u);
}

TEST_F(HierarchyTest, PrewarmIsInvisibleToStats)
{
    hierarchy_.prewarmLine(0, 0x100, true);
    EXPECT_EQ(hierarchy_.l1d().demandStats().total(), 0u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 0u);
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, TlbPenaltyAddsToHitLatency)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 30;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    h.prewarmLine(0, 0x100, true);

    const AccessResult first =
        h.access(AccessKind::Load, 0, 1, 0x100, 0);
    EXPECT_EQ(first.status, AccessResult::Status::Hit);
    EXPECT_EQ(first.latency, 31u);  // L1 (1) + DTLB miss (30)
    const AccessResult second =
        h.access(AccessKind::Load, 0, 2, 0x100, 0);
    EXPECT_EQ(second.latency, 1u);  // DTLB now hits
}

TEST_F(HierarchyTest, PrefetcherFetchesNextLine)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.prefetchNextLine = true;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    std::map<InstSeq, Cycle> done;
    h.setMissCallback([&](ThreadId, InstSeq seq, AccessKind, Cycle when) {
        done[seq] = when;
    });

    const AccessResult r = h.access(AccessKind::Load, 0, 1, 0x100, 0);
    ASSERT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(h.prefetchesIssued(), 1u);
    EXPECT_EQ(h.dramReadsIssued(), 1u);  // demand only

    for (Cycle c = 1; c <= 2000; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    // The next line landed in L2/L3 but not the L1.
    const AccessResult next =
        h.access(AccessKind::Load, 0, 2, 0x140, 2001);
    EXPECT_EQ(next.status, AccessResult::Status::Pending);
    EXPECT_EQ(h.prefetchesUseful(), 1u);
    for (Cycle c = 2001; c <= 2100; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    ASSERT_TRUE(done.count(2));
    EXPECT_EQ(done[2], 2001u + 11u);  // L2 hit round trip
}

TEST_F(HierarchyTest, PrefetcherRespectsItsMshrBudget)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.prefetchNextLine = true;
    config.prefetchMshrs = 2;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    // Demand misses to well-separated lines: each wants a prefetch,
    // but only two prefetch MSHRs exist.
    for (int i = 0; i < 6; ++i)
        h.access(AccessKind::Load, 0, i, static_cast<Addr>(i) * 4096, 0);
    EXPECT_EQ(h.prefetchesIssued(), 2u);
}

TEST_F(HierarchyTest, PrefetchOffByDefault)
{
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    EXPECT_EQ(hierarchy_.prefetchesIssued(), 0u);
}

TEST_F(HierarchyTest, LoadsAreCriticalStoresAreNot)
{
    std::vector<bool> crit;
    dram_.setReadCallback([&](const DramRequest &req) {
        crit.push_back(req.critical);
    });
    hierarchy_.access(AccessKind::Load, 0, 1, 0x100, 0);
    hierarchy_.access(AccessKind::Store, 0, 0, 0x10000, 0);
    for (Cycle c = 1; c <= 2000; ++c)
        dram_.tick(c);
    ASSERT_EQ(crit.size(), 2u);
    EXPECT_TRUE(crit[0]);
    EXPECT_FALSE(crit[1]);
}

TEST_F(HierarchyTest, CompletionHandsBackEveryTargetInCoalescingOrder)
{
    struct Done {
        ThreadId tid;
        InstSeq seq;
        AccessKind kind;
        Cycle when;
    };
    std::vector<Done> done;
    hierarchy_.setMissCallback(
        [&](ThreadId tid, InstSeq seq, AccessKind kind, Cycle when) {
            done.push_back(Done{tid, seq, kind, when});
        });

    // Four targets on one line of thread 1, in this order.
    const struct {
        AccessKind kind;
        InstSeq seq;
        Addr vaddr;
    } targets[] = {{AccessKind::Load, 7, 0x100},
                   {AccessKind::InstFetch, 3, 0x104},
                   {AccessKind::Store, 0, 0x108},
                   {AccessKind::Load, 12, 0x110}};
    for (const auto &t : targets) {
        ASSERT_EQ(hierarchy_.access(t.kind, 1, t.seq, t.vaddr, 0).status,
                  AccessResult::Status::Pending);
    }
    EXPECT_EQ(hierarchy_.outstandingLines(), 1u);
    EXPECT_EQ(hierarchy_.coalescedTargets(), 3u);

    runTo(3000);
    ASSERT_EQ(done.size(), 4u);
    for (size_t i = 0; i < done.size(); ++i) {
        EXPECT_EQ(done[i].tid, 1u) << i;
        EXPECT_EQ(done[i].seq, targets[i].seq) << i;
        EXPECT_EQ(done[i].kind, targets[i].kind) << i;
        EXPECT_EQ(done[i].when, done[0].when) << i;  // one fill
    }
    EXPECT_EQ(hierarchy_.outstandingLines(), 0u);
    EXPECT_EQ(hierarchy_.pendingDataMisses(1), 0u);
}

TEST_F(HierarchyTest, FullMshrBudgetsAreLiveAtOnce)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.prefetchNextLine = true;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    const std::uint32_t l1i = config.l1i.mshrs;
    const std::uint32_t l1d = config.l1d.mshrs;
    const std::uint32_t pf = config.prefetchMshrs;

    // L1D: cold loads to DRAM, one per page, each of which also
    // prefetches the next line until the prefetch MSHRs run out.
    for (std::uint32_t i = 0; i < l1d; ++i) {
        ASSERT_EQ(h.access(AccessKind::Load, 0, i,
                           static_cast<Addr>(i) * 8192, 0)
                      .status,
                  AccessResult::Status::Pending)
            << i;
    }
    EXPECT_EQ(h.prefetchesIssued(), pf);

    // L1I: fetches of lines prewarmed into L2, which take no L2 or L3
    // MSHR, so the L2's 16 MSHRs held by the loads do not block them.
    const Addr code = Addr{1} << 30;
    for (std::uint32_t i = 0; i < l1i; ++i)
        h.prewarmLine(0, code + i * 64, false);
    for (std::uint32_t i = 0; i < l1i; ++i) {
        ASSERT_EQ(h.access(AccessKind::InstFetch, 0, 0, code + i * 64, 0)
                      .status,
                  AccessResult::Status::Pending)
            << i;
    }
    EXPECT_EQ(h.outstandingLines(), l1i + l1d + pf);

    // Every budget is exhausted: one more of each kind blocks.
    EXPECT_EQ(h.access(AccessKind::InstFetch, 0, 0, code + l1i * 64, 0)
                  .status,
              AccessResult::Status::Blocked);
    EXPECT_EQ(h.access(AccessKind::Load, 0, l1d,
                       static_cast<Addr>(l1d) * 8192, 0)
                  .status,
              AccessResult::Status::Blocked);

    for (Cycle c = 1; c <= 3000; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    EXPECT_EQ(h.outstandingLines(), 0u);
}

} // namespace
} // namespace smtdram
