/** @file Unit tests for page tables and TLBs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>

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

TEST(Tlb, HitAfterMiss)
{
    Tlb tlb(4, 30);
    EXPECT_EQ(tlb.lookup(0, 100), 30u);
    EXPECT_EQ(tlb.lookup(0, 100), 0u);
    EXPECT_EQ(tlb.stats().hits(), 1u);
    EXPECT_EQ(tlb.stats().misses(), 1u);
}

TEST(Tlb, ThreadTagged)
{
    Tlb tlb(4, 30);
    tlb.lookup(0, 100);
    // Same vpage from another thread is a distinct entry.
    EXPECT_EQ(tlb.lookup(1, 100), 30u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2, 30);
    tlb.lookup(0, 1);
    tlb.lookup(0, 2);
    tlb.lookup(0, 1);  // 1 is MRU
    tlb.lookup(0, 3);  // evicts 2
    EXPECT_EQ(tlb.lookup(0, 1), 0u);
    EXPECT_EQ(tlb.lookup(0, 2), 30u);
}

TEST(Tlb, CapacityHolds)
{
    Tlb tlb(128, 30);
    for (Addr v = 0; v < 128; ++v)
        tlb.lookup(0, v);
    for (Addr v = 0; v < 128; ++v)
        EXPECT_EQ(tlb.lookup(0, v), 0u) << v;
}

TEST(Tlb, ResetStats)
{
    Tlb tlb(4, 30);
    tlb.lookup(0, 1);
    tlb.resetStats();
    EXPECT_EQ(tlb.stats().total(), 0u);
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
    Tlb tlb(entries, 30);
    ReferenceLru ref(entries);
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
        ASSERT_EQ(tlb.lookup(tid, vpage), hit ? 0u : 30u)
            << "lookup " << i << " (thread " << tid << ", vpage "
            << vpage << ")";
    }
    EXPECT_GT(tlb.stats().hits(), 0u);
    EXPECT_GT(tlb.stats().misses(), entries);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferential,
                         testing::Values(2u, 128u));

} // namespace
} // namespace smtdram
