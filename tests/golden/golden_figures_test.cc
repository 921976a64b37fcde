/**
 * @file
 * Golden-figure regression harness: every fig* bench configuration is
 * run at a reduced instruction budget through the library API and the
 * key metrics (weighted speedup, per-thread IPC, row-hit rate, read
 * queue occupancy) are rendered to a canonical text block that must
 * match a committed `.golden` file byte for byte.
 *
 * The simulator is deterministic, so any diff is a real behavior
 * change.  When a change is intentional, regenerate the snapshots
 * with
 *
 *     SMTDRAM_UPDATE_GOLDENS=1 ctest -R Golden
 *
 * and commit the updated files together with the change that caused
 * them.  All scenarios run with ECC disabled: the snapshots double as
 * the proof that the ECC layer is invisible when off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cpu/fetch_policy.hh"
#include "sim/experiment.hh"

namespace smtdram
{
namespace
{

/** Reduced budgets: big enough to exercise every scheduler/mapping
 *  path, small enough that the whole suite runs in seconds. */
constexpr std::uint64_t kInsts = 2'500;
constexpr std::uint64_t kWarmup = 1'000;
constexpr std::uint64_t kSeed = 42;

/** Shared across tests so single-thread baselines are computed once. */
ExperimentContext &
ctx()
{
    static ExperimentContext shared(kInsts, kWarmup, kSeed);
    return shared;
}

void
appendMetric(std::string &out, const std::string &name, double value)
{
    char line[128];
    std::snprintf(line, sizeof(line), "%s %.6f\n", name.c_str(),
                  value);
    out += line;
}

/** Render one mix run's key metrics under a scenario label. */
void
appendRun(std::string &out, const std::string &label, const MixRun &r)
{
    appendMetric(out, label + ".weighted_speedup", r.weightedSpeedup);
    for (size_t i = 0; i < r.run.ipc.size(); ++i) {
        appendMetric(out, label + ".ipc" + std::to_string(i),
                     r.run.ipc[i]);
    }
    appendMetric(out, label + ".row_hit_rate",
                 1.0 - r.run.rowMissRate);
    appendMetric(out, label + ".read_queueing_mean",
                 r.run.dram.readQueueing.mean());
}

/** Compare @p text with the committed snapshot (or regenerate it). */
void
checkGolden(const std::string &name, const std::string &text)
{
    const std::string path =
        std::string(SMTDRAM_GOLDEN_DIR) + "/" + name + ".golden";
    if (std::getenv("SMTDRAM_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with SMTDRAM_UPDATE_GOLDENS=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), text)
        << "metrics diverge from " << path
        << "; if the change is intentional, regenerate with "
           "SMTDRAM_UPDATE_GOLDENS=1 and commit the new snapshot";
}

TEST(GoldenFigures, Fig1CpiBreakdown)
{
    const CpiBreakdown b =
        measureCpiBreakdown("mcf", kInsts, kWarmup, kSeed);
    std::string text;
    appendMetric(text, "mcf.cpi_overall", b.overall);
    appendMetric(text, "mcf.cpi_proc", b.proc);
    appendMetric(text, "mcf.cpi_l2", b.l2);
    appendMetric(text, "mcf.cpi_l3", b.l3);
    appendMetric(text, "mcf.cpi_mem", b.mem);
    checkGolden("fig1_cpi_breakdown", text);
}

TEST(GoldenFigures, Fig2FetchPolicies)
{
    const WorkloadMix &mix = mixByName("2-MIX");
    std::string text;
    for (FetchPolicyKind policy : allFetchPolicyKinds()) {
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(mix.apps.size()));
        config.core.fetchPolicy = policy;
        appendRun(text, "2-MIX." + fetchPolicyName(policy),
                  ctx().runMix(config, mix));
    }
    checkGolden("fig2_fetch_policies", text);
}

TEST(GoldenFigures, Fig3DramPerformanceLoss)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());

    SystemConfig ref = SystemConfig::paperDefault(threads);
    ref.core.fetchPolicy = FetchPolicyKind::Icount;
    const MixRun inf = ctx().runMix(ref.withInfiniteL3(), mix);

    SystemConfig dwarn = SystemConfig::paperDefault(threads);
    dwarn.core.fetchPolicy = FetchPolicyKind::DWarn;
    const MixRun dw = ctx().runMix(dwarn, mix);

    std::string text;
    appendRun(text, "2-MEM.infL3-ICOUNT", inf);
    appendRun(text, "2-MEM.dram-DWarn", dw);
    appendMetric(text, "2-MEM.dram-DWarn.mem_per_100i",
                 dw.run.memAccessPer100);
    appendMetric(text, "2-MEM.tput_retained",
                 dw.weightedSpeedup / inf.weightedSpeedup);
    checkGolden("fig3_dram_performance_loss", text);
}

TEST(GoldenFigures, Fig4Fig5ConcurrencyHistograms)
{
    const MixRun r = ctx().runMix("4-MEM");
    std::string text;
    const Histogram &outstanding = r.run.outstandingHist;
    for (size_t b = 0; b < outstanding.numBuckets(); ++b) {
        appendMetric(text,
                     "4-MEM.outstanding." + outstanding.bucketLabel(b),
                     outstanding.bucketFraction(b));
    }
    appendMetric(text, "4-MEM.outstanding.frac_above8",
                 outstanding.fractionAbove(8));
    const Histogram &threads = r.run.threadsHist;
    for (size_t b = 0; b < threads.numBuckets(); ++b) {
        appendMetric(text, "4-MEM.threads." + threads.bucketLabel(b),
                     threads.bucketFraction(b));
    }
    checkGolden("fig4_fig5_concurrency", text);
}

TEST(GoldenFigures, Fig6Channels)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    std::string text;
    for (std::uint32_t channels : {2u, 4u}) {
        SystemConfig config = SystemConfig::paperDefault(threads);
        const MappingScheme mapping = config.dram.mapping;
        config.dram = DramConfig::ddrSdram(channels);
        config.dram.mapping = mapping;
        appendRun(text,
                  "2-MEM." + std::to_string(channels) + "ch",
                  ctx().runMix(config, mix));
    }
    checkGolden("fig6_channels", text);
}

TEST(GoldenFigures, Fig7ChannelGanging)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    struct Org {
        std::uint32_t channels;
        std::uint32_t gang;
    };
    std::string text;
    for (const Org &o : {Org{2, 1}, Org{2, 2}, Org{4, 1}, Org{4, 2}}) {
        SystemConfig config = SystemConfig::paperDefault(threads);
        const MappingScheme mapping = config.dram.mapping;
        config.dram = DramConfig::ddrSdram(o.channels, o.gang);
        config.dram.mapping = mapping;
        const std::string label = "2-MEM." +
                                  std::to_string(o.channels) + "C-" +
                                  std::to_string(o.gang) + "G";
        appendRun(text, label, ctx().runMix(config, mix));
    }
    checkGolden("fig7_channel_ganging", text);
}

TEST(GoldenFigures, Fig8MappingDdr)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    std::string text;
    for (MappingScheme scheme :
         {MappingScheme::PageInterleave, MappingScheme::XorPermute}) {
        SystemConfig config = SystemConfig::paperDefault(threads);
        config.dram.mapping = scheme;
        const std::string label =
            scheme == MappingScheme::XorPermute ? "2-MEM.xor"
                                                : "2-MEM.page";
        appendRun(text, label, ctx().runMix(config, mix));
    }
    checkGolden("fig8_mapping_ddr", text);
}

TEST(GoldenFigures, Fig9MappingRdram)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    std::string text;
    for (MappingScheme scheme :
         {MappingScheme::PageInterleave, MappingScheme::XorPermute}) {
        SystemConfig config = SystemConfig::paperDefault(threads);
        config.dram = DramConfig::directRambus(2, 4);
        config.dram.mapping = scheme;
        const std::string label =
            scheme == MappingScheme::XorPermute ? "2-MEM.rdram-xor"
                                                : "2-MEM.rdram-page";
        appendRun(text, label, ctx().runMix(config, mix));
    }
    checkGolden("fig9_mapping_rdram", text);
}

TEST(GoldenFigures, AblationDesignChoices)
{
    // Mirrors bench/ablation_design_choices.cpp: the six config
    // tweaks the ablation bench sweeps, pinned over a small mix pair
    // so refactors of page mode, prefetch, criticality scheduling,
    // write drain, and channel interleave can't drift unnoticed.
    struct Variant {
        const char *label;
        void (*tweak)(SystemConfig &);
    };
    const Variant variants[] = {
        {"baseline", [](SystemConfig &) {}},
        {"close-pg",
         [](SystemConfig &c) { c.dram.pageMode = PageMode::Close; }},
        {"prefetch",
         [](SystemConfig &c) { c.hierarchy.prefetchNextLine = true; }},
        {"critical",
         [](SystemConfig &c) {
             c.scheduler = SchedulerKind::CriticalityBased;
         }},
        {"eager-wr",
         [](SystemConfig &c) {
             c.dram.writeHighWatermark = 1;
             c.dram.writeLowWatermark = 0;
         }},
        {"pg-ilv",
         [](SystemConfig &c) {
             c.dram.channelInterleave = ChannelInterleave::Page;
         }},
    };

    std::string text;
    for (const char *mix_name : {"2-MIX", "2-MEM"}) {
        const WorkloadMix &mix = mixByName(mix_name);
        const auto threads =
            static_cast<std::uint32_t>(mix.apps.size());
        for (const Variant &v : variants) {
            SystemConfig config = SystemConfig::paperDefault(threads);
            v.tweak(config);
            appendRun(text,
                      std::string(mix_name) + "." + v.label,
                      ctx().runMix(config, mix));
        }
    }
    checkGolden("ablation_design_choices", text);
}

TEST(GoldenFigures, Fig10Schedulers)
{
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    std::string text;
    for (SchedulerKind scheduler : allSchedulerKinds()) {
        SystemConfig config = SystemConfig::paperDefault(threads);
        config.scheduler = scheduler;
        appendRun(text, "2-MEM." + schedulerName(scheduler),
                  ctx().runMix(config, mix));
    }
    checkGolden("fig10_schedulers", text);
}

TEST(GoldenFigures, Fig11Energy)
{
    // Mirrors bench/fig11_energy.cpp reduced to its 2-MEM rows: the
    // low-power machine swept over channel counts and schedulers,
    // with DRAM energy per committed instruction as the headline
    // metric.  Pins the power model (incl. rank low-power states)
    // against silent drift.
    const WorkloadMix &mix = mixByName("2-MEM");
    const auto threads =
        static_cast<std::uint32_t>(mix.apps.size());
    std::string text;
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        for (SchedulerKind scheduler : allSchedulerKinds()) {
            SystemConfig config = SystemConfig::paperDefault(threads);
            const MappingScheme mapping = config.dram.mapping;
            config.dram = DramConfig::ddrSdram(channels);
            config.dram.mapping = mapping;
            config.dram.withPowerManagement();
            config.scheduler = scheduler;
            const std::string label = "2-MEM." +
                                      std::to_string(channels) +
                                      "ch." +
                                      schedulerName(scheduler);
            const MixRun r = ctx().runMix(config, mix);
            appendRun(text, label, r);
            std::uint64_t insts = 0;
            for (std::uint64_t c : r.run.committed)
                insts += c;
            appendMetric(text, label + ".energy_per_inst_nj",
                         insts ? r.totalEnergyNj /
                                     static_cast<double>(insts)
                               : 0.0);
        }
    }
    checkGolden("fig11_energy", text);
}

TEST(GoldenFigures, Fig13Blame)
{
    // Mirrors bench/fig13_blame.cpp: demand-read latency decomposed
    // into the eleven conservation-checked blame components, for all
    // seven schedulers across 1/2/4-thread memory-bound mixes, plus
    // the inter-thread interference row sums.  The reconcile metric
    // pins sum(blame) == readLatency.sum() exactly (always 0).
    static const WorkloadMix kOneMem{"1-MEM", {"mcf"}};
    const WorkloadMix *mixes[] = {&kOneMem, &mixByName("2-MEM"),
                                  &mixByName("4-MEM")};
    std::string text;
    for (const WorkloadMix *mix : mixes) {
        const auto threads =
            static_cast<std::uint32_t>(mix->apps.size());
        for (SchedulerKind scheduler : allSchedulerKindsExtended()) {
            SystemConfig config = SystemConfig::paperDefault(threads);
            config.scheduler = scheduler;
            const std::string label =
                mix->name + "." + schedulerName(scheduler);
            const MixRun r = ctx().runMix(config, *mix);
            const ControllerStats &dram = r.run.dram;
            const double lat_sum = dram.readLatency.sum();
            for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
                const auto comp = static_cast<BlameComponent>(c);
                appendMetric(
                    text,
                    label + ".share." + blameComponentName(comp),
                    lat_sum > 0.0
                        ? 100.0 * dram.blameTotals[comp] / lat_sum
                        : 0.0);
            }
            appendMetric(text, label + ".reconcile",
                         static_cast<double>(dram.blameTotals.sum()) -
                             lat_sum);
            for (std::uint32_t t = 0; t < threads; ++t) {
                appendMetric(
                    text,
                    label + ".interference.t" + std::to_string(t),
                    static_cast<double>(dram.interference.rowSum(
                        static_cast<ThreadId>(t))));
            }
        }
    }
    checkGolden("fig13_blame", text);
}

TEST(GoldenFigures, Fig14Numa)
{
    // Mirrors bench/fig14_numa.cpp: a 2-socket machine (1 core per
    // socket, 2 SMT ways) with every page on socket 0 (loader home),
    // running a MEM,MEM,ILP,ILP mix under round-robin vs.
    // memory-aware placement.  Round-robin strands equake (MEM) on
    // socket 1 and pays a ring hop per access; memory-aware packs
    // both MEM threads onto the socket that owns their pages.
    static const WorkloadMix kMix{"n4-MIX",
                                  {"mcf", "equake", "gzip", "bzip2"}};
    auto numa_config = [](PlacementPolicy placement) {
        SystemConfig config = SystemConfig::paperDefault(4);
        config.topology.sockets = 2;
        config.topology.coresPerSocket = 1;
        config.topology.smtWays = 2;
        config.topology.placement = placement;
        config.topology.home = HomePolicy::Loader;
        return config;
    };
    const MixRun rr =
        ctx().runMix(numa_config(PlacementPolicy::RoundRobin), kMix);
    const MixRun aware =
        ctx().runMix(numa_config(PlacementPolicy::MemoryAware), kMix);

    std::string text;
    for (const auto &[label, r] :
         {std::pair<const char *, const MixRun &>{"rr", rr},
          {"memaware", aware}}) {
        appendRun(text, std::string("n4-MIX.") + label, r);
        appendMetric(text,
                     std::string("n4-MIX.") + label + ".remote_frac",
                     r.run.numa.remoteReadFrac());
        appendMetric(
            text, std::string("n4-MIX.") + label + ".remote_blame",
            static_cast<double>(
                r.run.dram
                    .blameTotals[BlameComponent::RemoteAccess]));
    }
    checkGolden("fig14_numa", text);

    // The acceptance criterion behind the figure: memory-aware beats
    // round-robin on remote-access blame and on the memory-bound
    // threads' IPC.
    EXPECT_LT(
        aware.run.dram.blameTotals[BlameComponent::RemoteAccess],
        rr.run.dram.blameTotals[BlameComponent::RemoteAccess]);
    EXPECT_LT(aware.run.numa.remoteReads, rr.run.numa.remoteReads);
    EXPECT_GT(aware.run.ipc[0], rr.run.ipc[0]);  // mcf
}

} // namespace
} // namespace smtdram
