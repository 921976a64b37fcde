/**
 * @file
 * Example: how the SMT fetch policy interacts with the memory
 * system for one workload mix (the Section 5.1 experiment as a
 * user-facing tool).  Prints weighted speedup, per-thread IPC, and
 * the memory pressure each policy produces.
 *
 *   ./fetch_policy_study --mix 8-MIX
 */

#include <cstdio>

#include "common/flags.hh"
#include "sim/parallel_runner.hh"

using namespace smtdram;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("mix", "8-MIX", "Table 2 workload mix");
    flags.declare("insts", "40000", "measured instructions/thread");
    flags.declare("warmup", "20000", "warm-up instructions/thread");
    flags.parse(argc, argv,
                "Compare SMT fetch policies on one workload mix");

    const WorkloadMix &mix = mixByName(flags.getString("mix"));
    ParallelExperimentRunner runner(
        {static_cast<std::uint64_t>(flags.getInt("insts")),
         static_cast<std::uint64_t>(flags.getInt("warmup"))},
        1);

    std::printf("workload %s\n\n", mix.name.c_str());
    std::printf("%-12s %8s %9s %10s %11s %9s\n", "policy", "ws",
                "mem/100i", "row-miss", "issue-act", "mispred");

    const std::vector<FetchPolicyKind> policies = {
        FetchPolicyKind::RoundRobin, FetchPolicyKind::Icount,
        FetchPolicyKind::FetchStall, FetchPolicyKind::Dg,
        FetchPolicyKind::DWarn};

    double best_ws = 0.0;
    std::string best;
    for (FetchPolicyKind policy : policies) {
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(mix.apps.size()));
        config.core.fetchPolicy = policy;
        const MixRun r = runner.runMix(config, mix);
        std::printf("%-12s %8.3f %9.2f %9.1f%% %10.1f%% %8.1f%%\n",
                    fetchPolicyName(policy).c_str(),
                    r.weightedSpeedup, r.run.memAccessPer100,
                    100.0 * r.run.rowMissRate,
                    100.0 * r.run.intIssueActiveFrac,
                    100.0 * r.run.branchMispredictRate);
        if (r.weightedSpeedup > best_ws) {
            best_ws = r.weightedSpeedup;
            best = fetchPolicyName(policy);
        }
    }
    std::printf("\nbest policy for %s: %s (ws %.3f)\n",
                mix.name.c_str(), best.c_str(), best_ws);
    return 0;
}
