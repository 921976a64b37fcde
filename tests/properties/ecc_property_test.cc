/**
 * @file
 * Property-based tests of the SECDED ECC layer across all six
 * scheduling policies and random seeds: every delivered demand read is
 * exactly one of clean, corrected, or poisoned and the counts conserve;
 * patrol scrubbing never starves demand traffic (a forward-progress
 * watchdog stays quiet); and the conservation checker covers scrub
 * requests exactly like demand.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "common/random.hh"
#include "common/watchdog.hh"
#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

// gtest prints an unprintable parameter as its raw bytes, and ctest
// takes that dump into the test name; the padding is spelled out and
// zeroed so the name is the same on every build.
struct EccCase {
    EccCase(SchedulerKind scheduler, std::uint64_t seed)
        : scheduler(scheduler), seed(seed)
    {
    }

    SchedulerKind scheduler;
    std::uint8_t padding[7] = {};
    std::uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<EccCase> &info)
{
    std::string name = schedulerName(info.param.scheduler);
    std::erase(name, '-');
    return name + "_seed" + std::to_string(info.param.seed);
}

class EccProperty : public testing::TestWithParam<EccCase>
{
  protected:
    DramConfig
    config() const
    {
        DramConfig c = DramConfig::ddrSdram(2);
        c.checkerEnabled = true;
        c.ecc.enabled = true;
        c.ecc.checkOverheadCycles = 4;
        c.ecc.correctableProbability = 0.05;
        c.ecc.uncorrectableProbability = 0.01;
        c.ecc.scrubInterval = 1'500;
        c.ecc.scrubBurst = 2;
        c.faults.seed = GetParam().seed;
        return c;
    }
};

/**
 * Outcome conservation: under a random demand storm with scrub traffic
 * interleaved, corrected + poisoned + clean == delivered demand reads,
 * the controller stats agree with the per-request flags, and a
 * watchdog kicked on every delivery never expires — scrub cannot
 * starve demand on any scheduler.
 */
TEST_P(EccProperty, OutcomesConserveAndScrubNeverStarvesDemand)
{
    const DramConfig c = config();
    DramSystem dram(c, GetParam().scheduler);
    Rng rng(GetParam().seed * 7919 + 1);

    std::uint64_t delivered = 0, corrected = 0, poisoned = 0,
                  clean = 0;
    // Generous bound: a demand read through a 2-channel DDR system
    // takes well under 10k cycles unless scrub wedges the queue.
    Watchdog watchdog(50'000, "demand read progress");
    dram.setReadCallback([&](const DramRequest &req) {
        ++delivered;
        EXPECT_FALSE(req.scrub);
        EXPECT_FALSE(req.corrected && req.poisoned)
            << "a read cannot be both fixed and poisoned";
        if (req.corrected)
            ++corrected;
        else if (req.poisoned)
            ++poisoned;
        else
            ++clean;
        watchdog.kick(req.completion);
    });

    constexpr std::uint64_t kReads = 600;
    std::uint64_t injected = 0;
    Cycle now = 0;
    watchdog.kick(now);
    while (delivered < kReads) {
        ++now;
        ASSERT_LT(now, 3'000'000u) << "demand storm did not drain";
        watchdog.checkOrDie(now, [&] { dram.dumpState(std::cerr); });
        if (injected < kReads && rng.chance(0.4)) {
            const Addr addr = rng.below(1ULL << 27) & ~Addr{63};
            if (dram.canAccept(addr, MemOp::Read)) {
                ThreadSnapshot snap;
                snap.outstandingRequests =
                    static_cast<std::uint32_t>(rng.below(8));
                snap.robOccupancy =
                    static_cast<std::uint32_t>(rng.below(256));
                snap.iqOccupancy =
                    static_cast<std::uint32_t>(rng.below(64));
                dram.enqueueRead(addr,
                                 static_cast<ThreadId>(rng.below(4)),
                                 snap, now);
                ++injected;
            }
        }
        dram.tick(now);
    }
    while (dram.busy())
        dram.tick(++now);

    // Exactly-once, exactly-one-outcome delivery.
    EXPECT_EQ(delivered, kReads);
    EXPECT_EQ(clean + corrected + poisoned, delivered);

    // Per-request flags reconcile with the aggregate stats; scrub
    // reads sample ECC too, so the stats are an upper bound split
    // between demand and scrub outcomes.
    const ControllerStats stats = dram.aggregateStats();
    EXPECT_EQ(stats.reads, kReads);
    EXPECT_GE(stats.correctedErrors, corrected);
    EXPECT_GE(stats.uncorrectableErrors, poisoned);
    const FaultStats faults = dram.aggregateFaultStats();
    EXPECT_EQ(faults.eccSingleBit, stats.correctedErrors);
    EXPECT_EQ(faults.eccMultiBit, stats.uncorrectableErrors);

    // Scrub provably ran and the checker covered all of it.
    EXPECT_GT(stats.scrubReads, 0u);
    ASSERT_NE(dram.checker(), nullptr);
    dram.checker()->verifyDrained();
    EXPECT_EQ(dram.checker()->enqueued(), kReads + stats.scrubReads);
}

/**
 * Default-off equivalence: with ECC disabled, a run must be
 * indistinguishable from one on a config that never heard of ECC —
 * identical completion times, stats, and zero ECC counters — even when
 * the (inert) ECC knobs are set to aggressive values.
 */
TEST_P(EccProperty, DisabledEccIsBitIdentical)
{
    auto run = [&](const DramConfig &c) {
        DramSystem dram(c, GetParam().scheduler);
        Rng rng(GetParam().seed + 17);
        std::uint64_t delivered = 0;
        Cycle last_completion = 0;
        dram.setReadCallback([&](const DramRequest &req) {
            ++delivered;
            last_completion = req.completion;
            EXPECT_FALSE(req.corrected);
            EXPECT_FALSE(req.poisoned);
        });
        Cycle now = 0;
        while (delivered < 200) {
            ++now;
            if (rng.chance(0.4)) {
                const Addr addr = rng.below(1ULL << 26) & ~Addr{63};
                if (dram.canAccept(addr, MemOp::Read)) {
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(4)),
                        ThreadSnapshot{}, now);
                }
            }
            dram.tick(now);
        }
        return std::pair{last_completion,
                         dram.aggregateStats().busBusyCycles};
    };

    DramConfig plain = DramConfig::ddrSdram(2);
    plain.faults.seed = GetParam().seed;

    DramConfig inert = plain;
    inert.ecc.enabled = false;  // the only knob that matters
    inert.ecc.checkOverheadCycles = 8;
    inert.ecc.correctableProbability = 0.9;
    inert.ecc.uncorrectableProbability = 0.9;
    inert.ecc.scrubInterval = 10;
    inert.ecc.scrubBurst = 16;

    EXPECT_EQ(run(plain), run(inert));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, EccProperty,
    testing::Values(EccCase{SchedulerKind::Fcfs, 1},
                    EccCase{SchedulerKind::HitFirst, 1},
                    EccCase{SchedulerKind::AgeBased, 1},
                    EccCase{SchedulerKind::RequestBased, 1},
                    EccCase{SchedulerKind::RobBased, 1},
                    EccCase{SchedulerKind::IqBased, 1},
                    EccCase{SchedulerKind::HitFirst, 2},
                    EccCase{SchedulerKind::Fcfs, 3}),
    caseName);

} // namespace
} // namespace smtdram
