/**
 * @file
 * Example: tuning a DRAM channel organization for a workload.
 *
 * Sweeps every channel count and ganging degree for one workload mix
 * and reports the best organization — the Section 5.3 experiment as
 * a user-facing tool.
 *
 *   ./channel_tuning --mix 4-MEM
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "sim/parallel_runner.hh"

using namespace smtdram;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("mix", "4-MEM", "Table 2 workload mix");
    flags.declare("insts", "40000", "measured instructions/thread");
    flags.declare("warmup", "20000", "warm-up instructions/thread");
    flags.parse(argc, argv,
                "Sweep channel organizations (xC-yG) for one workload "
                "and report the best");

    const WorkloadMix &mix = mixByName(flags.getString("mix"));
    ParallelExperimentRunner runner(
        {static_cast<std::uint64_t>(flags.getInt("insts")),
         static_cast<std::uint64_t>(flags.getInt("warmup"))},
        1);

    struct Org { std::uint32_t channels, gang; };
    const std::vector<Org> orgs = {{2, 1}, {2, 2}, {4, 1}, {4, 2},
                                   {8, 1}, {8, 2}, {8, 4}};

    std::printf("workload %s: weighted speedup by organization\n\n",
                mix.name.c_str());
    std::string best;
    double best_ws = 0.0;
    for (const Org &org : orgs) {
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(mix.apps.size()));
        const MappingScheme mapping = config.dram.mapping;
        config.dram = DramConfig::ddrSdram(org.channels, org.gang);
        config.dram.mapping = mapping;

        const MixRun r = runner.runMix(config, mix);
        const std::string label = config.dram.label();
        std::printf("  %-6s  ws %6.3f   avg read latency %6.0f cyc   "
                    "row miss %4.1f%%\n",
                    label.c_str(), r.weightedSpeedup,
                    r.run.dram.readLatencyHist.mean(),
                    100.0 * r.run.rowMissRate);
        if (r.weightedSpeedup > best_ws) {
            best_ws = r.weightedSpeedup;
            best = label;
        }
    }
    std::printf("\nbest organization: %s (ws %.3f)\n", best.c_str(),
                best_ws);
    return 0;
}
