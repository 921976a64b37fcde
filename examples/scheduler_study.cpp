/**
 * @file
 * Example: choosing a DRAM scheduling policy for an SMT workload.
 *
 * Runs one workload mix under every scheduling policy and prints
 * weighted speedup plus per-thread IPC, showing how thread-aware
 * policies shift service between threads (Section 5.5).
 *
 *   ./scheduler_study --mix 2-MEM
 */

#include <cstdio>

#include "common/flags.hh"
#include "sim/parallel_runner.hh"

using namespace smtdram;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("mix", "2-MEM", "Table 2 workload mix");
    flags.declare("insts", "40000", "measured instructions/thread");
    flags.declare("warmup", "20000", "warm-up instructions/thread");
    flags.parse(argc, argv,
                "Compare DRAM scheduling policies on one workload");

    const WorkloadMix &mix = mixByName(flags.getString("mix"));
    ParallelExperimentRunner runner(
        {static_cast<std::uint64_t>(flags.getInt("insts")),
         static_cast<std::uint64_t>(flags.getInt("warmup"))},
        1);

    std::printf("workload %s\n\n%-14s %10s %12s  per-thread IPC\n",
                mix.name.c_str(), "policy", "ws", "read lat");
    for (SchedulerKind kind : allSchedulerKinds()) {
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(mix.apps.size()));
        config.scheduler = kind;
        const MixRun r = runner.runMix(config, mix);
        std::printf("%-14s %10.3f %10.0f cy ",
                    schedulerName(kind).c_str(), r.weightedSpeedup,
                    r.run.dram.readLatencyHist.mean());
        for (size_t t = 0; t < mix.apps.size(); ++t)
            std::printf(" %s=%.3f", mix.apps[t].c_str(),
                        r.run.ipc[t]);
        std::printf("\n");
    }
    return 0;
}
