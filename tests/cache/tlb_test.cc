/** @file Unit tests for page tables and TLBs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "cache/tlb.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

TEST(PageTables, SequentialFirstTouchAllocation)
{
    PageTables pt(8192, 2);
    // Bin hopping: frames are handed out in touch order.
    EXPECT_EQ(pt.translate(0, 0x0000), 0u * 8192u);
    EXPECT_EQ(pt.translate(0, 0x8000000), 1u * 8192u);
    EXPECT_EQ(pt.translate(1, 0x0000), 2u * 8192u);
    EXPECT_EQ(pt.framesAllocated(), 3u);
}

TEST(PageTables, StableMapping)
{
    PageTables pt(8192, 1);
    const Addr first = pt.translate(0, 0x12345);
    EXPECT_EQ(pt.translate(0, 0x12345), first);
    EXPECT_EQ(pt.framesAllocated(), 1u);
}

TEST(PageTables, OffsetPreserved)
{
    PageTables pt(8192, 1);
    const Addr p = pt.translate(0, 0x12345);
    EXPECT_EQ(p & 8191u, 0x12345u & 8191u);
}

TEST(PageTables, ThreadsAreIsolated)
{
    PageTables pt(8192, 2);
    const Addr a = pt.translate(0, 0x4000);
    const Addr b = pt.translate(1, 0x4000);
    EXPECT_NE(a, b);  // same vaddr, different address spaces
}

TEST(PageTables, InterleavedTouchesInterleaveFrames)
{
    PageTables pt(8192, 2);
    const Addr a0 = pt.translate(0, 0);
    const Addr b0 = pt.translate(1, 0);
    const Addr a1 = pt.translate(0, 8192);
    EXPECT_EQ(a0 / 8192, 0u);
    EXPECT_EQ(b0 / 8192, 1u);
    EXPECT_EQ(a1 / 8192, 2u);
}

/** A TLB and the page tables it walks on a miss. */
struct TlbRig {
    explicit TlbRig(std::uint32_t entries) : tlb(entries, 30) {}

    /** Translate page @p vpage of @p tid; returns the penalty. */
    Cycle
    lookup(ThreadId tid, Addr vpage)
    {
        return tlb.translate(tid, vpage << pt.pageShift(), pt).penalty;
    }

    PageTables pt{8192, 4};
    Tlb tlb;
};

TEST(Tlb, HitAfterMiss)
{
    TlbRig r(4);
    EXPECT_EQ(r.lookup(0, 100), 30u);
    EXPECT_EQ(r.lookup(0, 100), 0u);
    EXPECT_EQ(r.tlb.stats().hits(), 1u);
    EXPECT_EQ(r.tlb.stats().misses(), 1u);
}

TEST(Tlb, ThreadTagged)
{
    TlbRig r(4);
    r.lookup(0, 100);
    // Same vpage from another thread is a distinct entry.
    EXPECT_EQ(r.lookup(1, 100), 30u);
}

TEST(Tlb, LruEviction)
{
    TlbRig r(2);
    r.lookup(0, 1);
    r.lookup(0, 2);
    r.lookup(0, 1);  // 1 is MRU
    r.lookup(0, 3);  // evicts 2
    EXPECT_EQ(r.lookup(0, 1), 0u);
    EXPECT_EQ(r.lookup(0, 2), 30u);
}

TEST(Tlb, CapacityHolds)
{
    TlbRig r(128);
    for (Addr v = 0; v < 128; ++v)
        r.lookup(0, v);
    for (Addr v = 0; v < 128; ++v)
        EXPECT_EQ(r.lookup(0, v), 0u) << v;
}

TEST(Tlb, ResetStats)
{
    TlbRig r(4);
    r.lookup(0, 1);
    r.tlb.resetStats();
    EXPECT_EQ(r.tlb.stats().total(), 0u);
}

/**
 * Reference true-LRU model: a list ordered most- to least-recently
 * used, searched linearly.  Slow and obviously right.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::size_t entries) : entries_(entries) {}

    /** @return true on a hit. */
    bool
    lookup(ThreadId tid, Addr vpage)
    {
        const std::pair<ThreadId, Addr> k{tid, vpage};
        const auto it = std::find(lru_.begin(), lru_.end(), k);
        if (it != lru_.end()) {
            lru_.splice(lru_.begin(), lru_, it);
            return true;
        }
        lru_.push_front(k);
        if (lru_.size() > entries_)
            lru_.pop_back();
        return false;
    }

  private:
    std::size_t entries_;
    std::list<std::pair<ThreadId, Addr>> lru_;
};

class TlbDifferential : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TlbDifferential, MatchesReferenceLru)
{
    const std::uint32_t entries = GetParam();
    TlbRig r(entries);
    Tlb &tlb = r.tlb;
    ReferenceLru ref(entries);
    // Walked on every lookup: a hit's cached frame must equal the
    // mapping, and walking the TLB's own tables only on misses must
    // hand out frames in the same first-touch order.
    PageTables ref_pt(8192, 4);
    Rng rng(entries * 7919 + 1);
    // Four threads whose pages together number about 1.5x the
    // capacity, half the lookups on a hot quarter of them, so hits,
    // misses and evictions all occur; repeats hit the most recent
    // entry.
    const std::uint64_t pages = entries * 3 / 8 + 1;
    ThreadId tid = 0;
    Addr vpage = 0;
    for (int i = 0; i < 200'000; ++i) {
        if (!rng.chance(0.2)) {
            tid = static_cast<ThreadId>(rng.below(4));
            vpage = rng.chance(0.5) ? rng.below(pages / 4 + 1)
                                    : rng.below(pages);
        }
        const bool hit = ref.lookup(tid, vpage);
        const Addr vaddr = (vpage << 13) | (static_cast<Addr>(i) & 8191);
        const TlbTranslation x = tlb.translate(tid, vaddr, r.pt);
        ASSERT_EQ(x.penalty, hit ? 0u : 30u)
            << "lookup " << i << " (thread " << tid << ", vpage "
            << vpage << ")";
        ASSERT_EQ(x.paddr, ref_pt.translate(tid, vaddr))
            << "lookup " << i << (hit ? " (hit)" : " (miss)");
    }
    EXPECT_EQ(r.pt.framesAllocated(), ref_pt.framesAllocated());
    EXPECT_GT(tlb.stats().hits(), 0u);
    EXPECT_GT(tlb.stats().misses(), entries);
}

TEST_P(TlbDifferential, PagesOfDifferentThreadsNeverShareATag)
{
    // Pages that would collide under a (tid << 48 | vpage) tag: thread
    // 0's page at or above 2^61 and thread 1's page with the same low
    // 48 page bits, plus kernel-half addresses and the very last page.
    // Each (thread, page) must keep its own entry and frame.
    TlbRig r(GetParam());
    ReferenceLru ref(GetParam());
    PageTables ref_pt(8192, 4);
    const Addr low = 0x1234;
    const std::vector<std::pair<ThreadId, Addr>> touches = {
        {1, low << 13},
        {0, ((Addr{1} << 48) | low) << 13},
        {0, low << 13},
        {1, ((Addr{1} << 48) | low) << 13},
        {2, 0xffff'8000'0000'0000ULL},
        {3, 0xffff'ffff'ffff'e000ULL},
        {2, 0xffff'ffff'ffff'e000ULL},
    };
    for (int round = 0; round < 3; ++round) {
        for (const auto &[tid, vaddr] : touches) {
            const Addr v = vaddr | static_cast<Addr>(round * 8 + 1);
            const bool hit = ref.lookup(tid, v >> 13);
            const TlbTranslation x = r.tlb.translate(tid, v, r.pt);
            ASSERT_EQ(x.penalty, hit ? 0u : 30u)
                << "round " << round << ", thread " << tid;
            ASSERT_EQ(x.paddr, ref_pt.translate(tid, v))
                << "round " << round << ", thread " << tid;
        }
    }
    EXPECT_EQ(r.pt.framesAllocated(), touches.size());
}

TEST(TlbDeathTest, ThreadIdMustFitThePageOffset)
{
    // With 8-byte pages the offset bits hold thread ids 0..6 only.
    PageTables pt(8, 8);
    Tlb tlb(4, 30);
    tlb.translate(6, 0x40, pt);
    EXPECT_DEATH(tlb.translate(7, 0x40, pt), "does not fit a TLB tag");
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferential,
                         testing::Values(2u, 128u));

} // namespace
} // namespace smtdram
