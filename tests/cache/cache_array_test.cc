/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_array.hh"

namespace smtdram
{
namespace
{

CacheLevelConfig
tiny()
{
    // 2 sets x 2 ways x 64B lines = 256 bytes.
    CacheLevelConfig c;
    c.sizeBytes = 256;
    c.assoc = 2;
    c.lineBytes = 64;
    c.latency = 1;
    return c;
}

/** Address for (set, tag) in the tiny cache: 2 sets. */
Addr
addrOf(std::uint64_t set, std::uint64_t tag)
{
    return ((tag * 2 + set) << 6);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.probe(addrOf(0, 1)));
    EXPECT_FALSE(cache.access(addrOf(0, 1), false));
    cache.insert(addrOf(0, 1), false);
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_TRUE(cache.access(addrOf(0, 1), false));
    EXPECT_EQ(cache.demandStats().hits(), 1u);
    EXPECT_EQ(cache.demandStats().misses(), 1u);
}

TEST(CacheArray, ProbeHasNoSideEffects)
{
    CacheArray cache(tiny(), "t");
    cache.probe(addrOf(0, 1));
    cache.probe(addrOf(0, 1));
    EXPECT_EQ(cache.demandStats().total(), 0u);
}

TEST(CacheArray, LruEviction)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.insert(addrOf(0, 2), false);
    cache.access(addrOf(0, 1), false);  // make tag 1 MRU
    const CacheArray::Victim v = cache.insert(addrOf(0, 3), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, addrOf(0, 2));  // LRU way evicted
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_FALSE(cache.probe(addrOf(0, 2)));
}

TEST(CacheArray, EvictionReportsDirtiness)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), true);
    cache.insert(addrOf(0, 2), false);
    const CacheArray::Victim v1 = cache.insert(addrOf(0, 3), false);
    ASSERT_TRUE(v1.valid);
    EXPECT_TRUE(v1.dirty);
    const CacheArray::Victim v2 = cache.insert(addrOf(0, 4), false);
    ASSERT_TRUE(v2.valid);
    EXPECT_FALSE(v2.dirty);
}

TEST(CacheArray, SetsAreIndependent)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.insert(addrOf(0, 2), false);
    // Filling set 0 must not evict set 1 and vice versa.
    const CacheArray::Victim v = cache.insert(addrOf(1, 1), false);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_TRUE(cache.probe(addrOf(0, 2)));
}

TEST(CacheArray, StoreAccessSetsDirty)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.access(addrOf(0, 1), true);  // store hit
    cache.insert(addrOf(0, 2), false);
    const CacheArray::Victim v = cache.insert(addrOf(0, 3), false);
    // tag 1 was MRU; tag 2 evicted clean.  Evict tag 1 next:
    const CacheArray::Victim v2 = cache.insert(addrOf(0, 4), false);
    ASSERT_TRUE(v.valid);
    ASSERT_TRUE(v2.valid);
    EXPECT_TRUE(v.dirty || v2.dirty);
}

TEST(CacheArray, SetDirtyOnPresentLine)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.setDirty(addrOf(0, 1)));
    cache.insert(addrOf(0, 1), false);
    EXPECT_TRUE(cache.setDirty(addrOf(0, 1)));
}

TEST(CacheArray, InvalidateReturnsState)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(1, 5), true);
    const CacheArray::Victim v = cache.invalidate(addrOf(1, 5));
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(cache.probe(addrOf(1, 5)));
    const CacheArray::Victim gone = cache.invalidate(addrOf(1, 5));
    EXPECT_FALSE(gone.valid);
}

TEST(CacheArray, InfiniteModeAlwaysHits)
{
    CacheLevelConfig config = tiny();
    config.infinite = true;
    CacheArray cache(config, "inf");
    for (Addr a = 0; a < 1 << 20; a += 4096) {
        EXPECT_TRUE(cache.probe(a));
        EXPECT_TRUE(cache.access(a, false));
    }
    EXPECT_EQ(cache.demandStats().misses(), 0u);
}

TEST(CacheArray, Table1Geometries)
{
    CacheLevelConfig l1{64 * 1024, 2, 64, 1, 16};
    CacheLevelConfig l2{512 * 1024, 2, 64, 10, 16};
    CacheLevelConfig l3{4 * 1024 * 1024, 4, 64, 20, 16};
    EXPECT_EQ(CacheArray(l1, "L1").numSets(), 512u);
    EXPECT_EQ(CacheArray(l2, "L2").numSets(), 4096u);
    EXPECT_EQ(CacheArray(l3, "L3").numSets(), 16384u);
}

TEST(CacheArray, VictimLineAddrRoundTrips)
{
    // Filling a set one line past its ways evicts the first line
    // inserted, whose address the array rebuilds from (set, tag):
    // it must come back exactly, high tag bits included.
    for (const std::uint64_t sets : {1u, 2u, 64u, 65536u}) {
        for (const std::uint32_t assoc : {1u, 2u, 4u}) {
            CacheLevelConfig c;
            c.sizeBytes = sets * assoc * 64;
            c.assoc = assoc;
            c.lineBytes = 64;
            CacheArray cache(c, "rt");
            ASSERT_EQ(cache.numSets(), sets);
            std::vector<std::uint64_t> probe_sets{0, sets / 2, sets - 1};
            probe_sets.erase(
                std::unique(probe_sets.begin(), probe_sets.end()),
                probe_sets.end());
            for (const std::uint64_t set : probe_sets) {
                const auto line = [&](std::uint64_t tag) -> Addr {
                    return (tag * sets + set) * 64;
                };
                const std::uint64_t base = 0x1234'5678'9ULL + set;
                for (std::uint32_t w = 0; w < assoc; ++w)
                    ASSERT_FALSE(cache.insert(line(base + w), false).valid);
                const CacheArray::Victim v =
                    cache.insert(line(base + assoc), false);
                ASSERT_TRUE(v.valid);
                EXPECT_EQ(v.lineAddr, line(base))
                    << sets << " sets, " << assoc << " ways, set " << set;
                EXPECT_TRUE(cache.probe(line(base + assoc)));
                EXPECT_FALSE(cache.probe(line(base)));
            }
        }
    }
}

TEST(CacheArray, HitAccessLeavesMissesUncounted)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.hitAccess(addrOf(0, 1), false));
    EXPECT_EQ(cache.demandStats().total(), 0u);
    cache.insert(addrOf(0, 1), false);
    EXPECT_TRUE(cache.hitAccess(addrOf(0, 1), true));
    EXPECT_EQ(cache.demandStats().hits(), 1u);
    // The hit dirtied the line, like access(..., true) would.
    EXPECT_TRUE(cache.invalidate(addrOf(0, 1)).dirty);
}

TEST(CacheArray, FillOfPresentLineOnlyAddsDirty)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.fill(addrOf(0, 1), false).valid);
    EXPECT_FALSE(cache.fill(addrOf(0, 2), false).valid);
    // Tag 1 is LRU; filling it again dirties it but must not make it
    // most recent, so the next insert still evicts it, now dirty.
    EXPECT_FALSE(cache.fill(addrOf(0, 1), true).valid);
    const CacheArray::Victim v = cache.fill(addrOf(0, 3), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, addrOf(0, 1));
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(cache.demandStats().total(), 0u);
}

TEST(CacheArrayDeathTest, DoubleInsertPanics)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    EXPECT_DEATH(cache.insert(addrOf(0, 1), false),
                 "already-present");
}

TEST(CacheArrayDeathTest, LinesUnderFourBytesAreRejected)
{
    // A 2-byte line number could reach the valid/dirty flag bits.
    CacheLevelConfig c = tiny();
    c.lineBytes = 2;
    c.sizeBytes = 8;
    EXPECT_DEATH(CacheArray(c, "t"), "at least 4");
}

TEST(CacheArray, ResetStats)
{
    CacheArray cache(tiny(), "t");
    cache.access(addrOf(0, 1), false);
    cache.resetStats();
    EXPECT_EQ(cache.demandStats().total(), 0u);
}

} // namespace
} // namespace smtdram
