/**
 * @file
 * Property-based tests of the cache hierarchy: under random access
 * storms — across infinite-cache modes and prefetch settings — every
 * pending access must complete exactly once, and all MSHR and
 * per-thread counters must drain back to zero.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/hierarchy.hh"

#include "dram/dram_system.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

// gtest prints an unprintable parameter as its raw bytes, and ctest
// takes that dump into the test name; the padding is spelled out and
// zeroed so the name is the same on every build.
struct HierarchyCase {
    HierarchyCase(bool infiniteL2, bool infiniteL3, bool prefetch,
                  std::uint32_t threads)
        : infiniteL2(infiniteL2), infiniteL3(infiniteL3), prefetch(prefetch),
          threads(threads)
    {
    }

    bool infiniteL2;
    bool infiniteL3;
    bool prefetch;
    std::uint8_t padding = 0;
    std::uint32_t threads;
};

std::string
caseName(const testing::TestParamInfo<HierarchyCase> &info)
{
    const HierarchyCase &c = info.param;
    std::string name = "t" + std::to_string(c.threads);
    if (c.infiniteL2)
        name += "_infL2";
    if (c.infiniteL3)
        name += "_infL3";
    if (c.prefetch)
        name += "_pf";
    if (!c.infiniteL2 && !c.infiniteL3 && !c.prefetch)
        name += "_plain";
    return name;
}

class HierarchyProperty : public testing::TestWithParam<HierarchyCase>
{
};

TEST_P(HierarchyProperty, StormCompletesAndCountersDrain)
{
    const HierarchyCase &param = GetParam();

    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.l2.infinite = param.infiniteL2;
    config.l3.infinite = param.infiniteL3;
    config.prefetchNextLine = param.prefetch;

    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, param.threads);

    std::set<std::uint64_t> pending;
    std::set<std::uint64_t> completed;
    h.setMissCallback([&](std::uint64_t id, Cycle /* when */) {
        // Exactly-once completion of a known miss.
        ASSERT_TRUE(pending.count(id)) << "unknown miss " << id;
        ASSERT_TRUE(completed.insert(id).second)
            << "double completion of " << id;
        pending.erase(id);
    });

    Rng rng(555);
    Cycle now = 0;
    int issued = 0;
    constexpr int kAccesses = 3000;

    while (issued < kAccesses || !pending.empty()) {
        ++now;
        ASSERT_LT(now, 3'000'000u) << "storm did not drain";
        events.runUntil(now);
        dram.tick(now);
        h.tick(now);

        for (int k = 0; k < 3 && issued < kAccesses; ++k) {
            if (!rng.chance(0.5))
                continue;
            const auto tid =
                static_cast<ThreadId>(rng.below(param.threads));
            const AccessKind kind =
                rng.chance(0.2)
                    ? AccessKind::InstFetch
                    : (rng.chance(0.3) ? AccessKind::Store
                                       : AccessKind::Load);
            // Small hot region + large cold region, per thread.
            const Addr vaddr =
                rng.chance(0.5)
                    ? rng.below(1 << 14)
                    : (1 << 26) + rng.below(1ULL << 24);
            const AccessResult r = h.access(kind, tid, vaddr, now);
            if (r.status == AccessResult::Status::Pending) {
                ASSERT_TRUE(pending.insert(r.missId).second);
            }
            if (r.status != AccessResult::Status::Blocked)
                ++issued;
        }
    }

    // Run out the writeback tail.
    for (int i = 0; i < 5000; ++i) {
        ++now;
        events.runUntil(now);
        dram.tick(now);
        h.tick(now);
    }

    // Conservation: everything issued as Pending completed; all
    // in-flight state drained.
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(h.outstandingLines(), 0u);
    EXPECT_EQ(h.pendingWritebacks(), 0u);
    for (ThreadId t = 0; t < param.threads; ++t) {
        EXPECT_EQ(h.pendingDataMisses(t), 0u) << "thread " << t;
        EXPECT_EQ(h.pendingL2Misses(t), 0u) << "thread " << t;
        EXPECT_EQ(h.pendingDramReads(t), 0u) << "thread " << t;
    }
    EXPECT_FALSE(dram.busy());

    // Mode-specific invariants.
    if (param.infiniteL3) {
        EXPECT_EQ(h.dramReadsIssued(), 0u);
    }
    if (param.prefetch && !param.infiniteL3) {
        EXPECT_GT(h.prefetchesIssued(), 0u);
    }
    if (!param.prefetch) {
        EXPECT_EQ(h.prefetchesIssued(), 0u);
    }
}

TEST_P(HierarchyProperty, DeterministicStorm)
{
    const HierarchyCase &param = GetParam();
    auto run_once = [&param] {
        HierarchyConfig config;
        config.tlbMissPenalty = 0;
        config.l2.infinite = param.infiniteL2;
        config.l3.infinite = param.infiniteL3;
        config.prefetchNextLine = param.prefetch;
        EventQueue events;
        DramSystem dram(DramConfig::ddrSdram(2),
                        SchedulerKind::HitFirst);
        Hierarchy h(config, dram, events, param.threads);
        std::uint64_t checksum = 0;
        h.setMissCallback([&](std::uint64_t id, Cycle when) {
            checksum = checksum * 1099511628211ULL + id * 31 + when;
        });
        Rng rng(99);
        for (Cycle now = 1; now <= 20000; ++now) {
            events.runUntil(now);
            dram.tick(now);
            h.tick(now);
            if (rng.chance(0.4)) {
                const auto tid =
                    static_cast<ThreadId>(rng.below(param.threads));
                h.access(AccessKind::Load, tid,
                         rng.below(1ULL << 24), now);
            }
        }
        return checksum;
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HierarchyProperty,
    testing::Values(HierarchyCase{false, false, false, 1},
                    HierarchyCase{false, false, false, 4},
                    HierarchyCase{false, true, false, 2},
                    HierarchyCase{true, true, false, 2},
                    HierarchyCase{false, false, true, 1},
                    HierarchyCase{false, false, true, 8}),
    caseName);

} // namespace
} // namespace smtdram
