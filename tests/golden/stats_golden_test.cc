/**
 * @file
 * Stats-document snapshots: the complete stats JSON and epoch CSV of
 * two runs, diffed byte for byte against committed files.  Where the
 * figure goldens pin a handful of metrics, these pin every registered
 * key, its position in the document, and its value at every epoch —
 * the whole observable surface of the machine.
 *
 *  - single_socket: the paper's 1x1 machine with refresh, power
 *    management, ECC + scrub, injected faults, rowhammer tracking and
 *    mitigation, and the conservation checker all on.
 *  - fig14_numa: the Figure 14 machine (2 sockets x 1 core x 2 SMT
 *    ways, every page on socket 0, round-robin placement), which adds
 *    the `numa.*` block and the sockets/cores meta keys.
 *
 * Regenerate intentionally-changed snapshots with
 * SMTDRAM_UPDATE_GOLDENS=1, exactly like the figure goldens.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment.hh"

namespace smtdram
{
namespace
{

constexpr std::uint64_t kInsts = 2'500;
constexpr std::uint64_t kWarmup = 1'000;
constexpr std::uint64_t kSeed = 42;
constexpr Cycle kEpoch = 4'000;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Compare one exported document with its snapshot (or rewrite it). */
void
checkDocument(const std::string &file, const std::string &text)
{
    const std::string path = std::string(SMTDRAM_GOLDEN_DIR) + "/" + file;
    if (std::getenv("SMTDRAM_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    const std::string want = slurp(path);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << path
        << " (regenerate with SMTDRAM_UPDATE_GOLDENS=1)";
    EXPECT_EQ(want, text)
        << "stats document diverges from " << path
        << "; if the change is intentional, regenerate with "
           "SMTDRAM_UPDATE_GOLDENS=1 and commit the new snapshot";
}

/** Run @p config on @p mix with stats export on; check both files. */
void
checkStatsGolden(const std::string &name, SystemConfig config,
                 const WorkloadMix &mix)
{
    const std::string json = testing::TempDir() + "/" + name + ".json";
    const std::string csv = testing::TempDir() + "/" + name + ".csv";
    config.observe.statsJsonPath = json;
    config.observe.statsCsvPath = csv;
    config.observe.epoch = kEpoch;
    runSystem(config, profilesForMix(mix), kSeed, kInsts, kWarmup);

    checkDocument("stats_" + name + ".json", slurp(json));
    checkDocument("stats_" + name + ".csv", slurp(csv));
    std::remove(json.c_str());
    std::remove(csv.c_str());
}

TEST(GoldenStats, SingleSocketEveryFeature)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram.withRefresh();
    config.dram.withPowerManagement();
    config.dram.withEcc(1e-4, 1e-6, 4'096);
    config.dram.faults.enabled = true;
    config.dram.faults.seed = 7;
    config.dram.faults.busStallProbability = 0.001;
    config.dram.faults.busStallCycles = 8;
    config.dram.faults.readErrorProbability = 0.002;
    config.dram.faults.enqueueDelayProbability = 0.01;
    config.dram.faults.enqueueDelayMax = 16;
    // Thresholds low enough that a short run crosses them.
    config.dram.withHammer(/*threshold=*/8, /*flip_probability=*/0.05);
    config.dram.withHammerMitigation(16, 4);
    config.dram.checkerEnabled = true;
    checkStatsGolden("single_socket", config, mixByName("2-MEM"));
}

TEST(GoldenStats, Fig14TwoSockets)
{
    SystemConfig config = SystemConfig::paperDefault(4);
    config.topology.enabled = true;
    config.topology.sockets = 2;
    config.topology.coresPerSocket = 1;
    config.topology.smtWays = 2;
    config.topology.placement = PlacementPolicy::RoundRobin;
    config.topology.home = HomePolicy::Loader;
    checkStatsGolden("fig14_numa", config,
                     {"n4-MIX", {"mcf", "equake", "gzip", "bzip2"}});
}

} // namespace
} // namespace smtdram
