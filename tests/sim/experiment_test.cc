/** @file Unit tests for the experiment helpers. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "workload/hammer_workload.hh"

namespace smtdram
{
namespace
{

TEST(CpiBreakdown, ComponentsAreNonNegativeAndSum)
{
    const CpiBreakdown b = measureCpiBreakdown("gzip", 4000, 2000, 42);
    EXPECT_GT(b.proc, 0.0);
    EXPECT_GE(b.l2, 0.0);
    EXPECT_GE(b.l3, 0.0);
    EXPECT_GE(b.mem, 0.0);
    // The methodology decomposes overall into the four parts.
    EXPECT_NEAR(b.proc + b.l2 + b.l3 + b.mem, b.overall,
                0.25 * b.overall + 0.05);
}

TEST(CpiBreakdown, McfIsMemoryBoundGzipIsNot)
{
    const CpiBreakdown mcf =
        measureCpiBreakdown("mcf", 12000, 8000, 42);
    const CpiBreakdown gzip =
        measureCpiBreakdown("gzip", 12000, 8000, 42);
    EXPECT_GT(mcf.mem, 1.0);
    EXPECT_GT(mcf.mem, 5.0 * gzip.mem);
    EXPECT_LT(gzip.mem, 0.5);
}

TEST(ProfilesForMix, ResolvesAllApps)
{
    const auto apps = profilesForMix(mixByName("4-MEM"));
    ASSERT_EQ(apps.size(), 4u);
    EXPECT_EQ(apps[0].name, "mcf");
    EXPECT_EQ(apps[3].name, "lucas");
}

TEST(ConfigSignature, DistinguishesMemoryConfigurations)
{
    const SystemConfig base = SystemConfig::paperDefault(2);

    SystemConfig channels = base;
    channels.dram = DramConfig::ddrSdram(8);
    SystemConfig ganged = base;
    ganged.dram = DramConfig::ddrSdram(2, 2);
    SystemConfig mapping = base;
    mapping.dram.mapping = MappingScheme::PageInterleave;
    SystemConfig mode = base;
    mode.dram.pageMode = PageMode::Close;
    SystemConfig sched = base;
    sched.scheduler = SchedulerKind::RequestBased;
    SystemConfig inf = base.withInfiniteL3();
    SystemConfig pf = base;
    pf.hierarchy.prefetchNextLine = true;

    const std::string sig = configSignature(base);
    for (const SystemConfig &other :
         {channels, ganged, mapping, mode, sched, inf, pf}) {
        EXPECT_NE(configSignature(other), sig);
    }
    // Thread count is not part of the memory-system signature.
    SystemConfig threads = SystemConfig::paperDefault(4);
    EXPECT_EQ(configSignature(threads), sig);
}

TEST(ConfigSignature, KernelModeIsInert)
{
    // Both kernels are proven byte-identical by the differential
    // equivalence suite, so the knob must not splinter alone-IPC
    // cache keys (same contract as the observability block).
    const SystemConfig base = SystemConfig::paperDefault(2);
    SystemConfig event = base;
    event.kernel = KernelMode::EventDriven;
    EXPECT_EQ(configSignature(event), configSignature(base));
}

TEST(ConfigSignature, HammerBlockOnlyWhenEnabled)
{
    const SystemConfig base = SystemConfig::paperDefault(2);
    const std::string sig = configSignature(base);
    EXPECT_EQ(sig.find("-ham"), std::string::npos);

    // Inert hammer knobs must not splinter the baseline cache: only
    // `enabled` gates the block.
    SystemConfig inert = base;
    inert.dram.hammer.hammerThreshold = 1;
    inert.dram.hammer.seed = 999;
    EXPECT_EQ(configSignature(inert), sig);

    SystemConfig on = base;
    on.dram.withHammer(512, 0.01, 2);
    const std::string on_sig = configSignature(on);
    EXPECT_NE(on_sig.find("-ham"), std::string::npos);
    EXPECT_EQ(on_sig.find("-mit"), std::string::npos);

    // Every disturbance knob and the seed are outcome-relevant.
    SystemConfig seed = on;
    seed.dram.hammer.seed = 999;
    EXPECT_NE(configSignature(seed), on_sig);
    SystemConfig thr = on;
    thr.dram.hammer.hammerThreshold = 256;
    EXPECT_NE(configSignature(thr), on_sig);

    SystemConfig mit = on;
    mit.dram.withHammerMitigation(8, 64);
    const std::string mit_sig = configSignature(mit);
    EXPECT_NE(mit_sig.find("-mit"), std::string::npos);
    EXPECT_NE(mit_sig, on_sig);
    SystemConfig cap = mit;
    cap.dram.hammer.trackerCapacity = 4;
    EXPECT_NE(configSignature(cap), mit_sig);
}

TEST(ProfilesForMix, ResolvesHammerThreadsInHostileMixes)
{
    const WorkloadMix mix = hostileMix("2-MEM", "hammer-double");
    EXPECT_EQ(mix.name, "2-MEM+hammer-double");
    const auto apps = profilesForMix(mix);
    ASSERT_EQ(apps.size(), 3u);
    EXPECT_EQ(apps[2].name, "hammer-double");
    EXPECT_EQ(apps[2].coldPattern, AccessPattern::RowHammer);
    EXPECT_EQ(apps[2].hammerSides, 2u);
    // Geometry must match the Table 1 2-channel DDR system: adjacent
    // same-bank rows are channels*banks*rowBytes apart.
    const DramConfig dram = DramConfig::ddrSdram(2);
    EXPECT_EQ(apps[2].hammerRowStrideBytes,
              dram.logicalChannels() * dram.banksPerChannel() *
                  dram.effectiveRowBytes());
    // Stores would repair the victims the experiment measures.
    EXPECT_EQ(apps[2].storeFrac, 0.0);
}

} // namespace
} // namespace smtdram
