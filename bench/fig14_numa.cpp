/**
 * @file
 * Figure 14 (extension): OS thread placement on a multi-socket NUMA
 * machine, where each socket owns one of the paper's DRAM systems and
 * remote accesses cross a ring interconnect.
 *
 * The sweep compares the placement policies — packed, round-robin,
 * memory-intensity-aware spreading, and epoch-based migration — on
 * mixes that interleave memory-bound and compute-bound threads, under
 * a loader-allocates home policy (every page on socket 0, the classic
 * NUMA pathology).  Round-robin strands one memory-bound thread on
 * the remote socket, paying a hop on every DRAM access; the
 * memory-aware policy packs the memory-bound threads onto the socket
 * that owns their pages and exports only compute-bound threads, whose
 * sparse traffic barely feels the hop.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "topology/topology_config.hh"

using namespace smtdram;
using namespace smtdram::bench;

namespace
{

/** Mixes ordered MEM,MEM,ILP,ILP so placement policy, not mix order,
 *  decides which threads end up remote. */
const std::vector<WorkloadMix> &
numaMixes()
{
    static const std::vector<WorkloadMix> mixes = {
        {"n4-MIX", {"mcf", "equake", "gzip", "bzip2"}},
        {"n4-MEM", {"mcf", "ammp", "equake", "swim"}},
    };
    return mixes;
}

PlacementPolicy
placementFromName(const std::string &name)
{
    for (PlacementPolicy p :
         {PlacementPolicy::Packed, PlacementPolicy::RoundRobin,
          PlacementPolicy::MemoryAware, PlacementPolicy::Migrate}) {
        if (name == placementPolicyName(p))
            return p;
    }
    fatal_if(true, "unknown placement policy '%s' (want packed, rr, "
                   "memaware, or migrate)", name.c_str());
    return PlacementPolicy::Packed;
}

HomePolicy
homeFromName(const std::string &name)
{
    for (HomePolicy h : {HomePolicy::Local, HomePolicy::Loader,
                         HomePolicy::Interleave}) {
        if (name == homePolicyName(h))
            return h;
    }
    fatal_if(true, "unknown home policy '%s' (want local, loader, or "
                   "interleave)", name.c_str());
    return HomePolicy::Local;
}

TopologyConfig
topologyFromFlags(const Flags &flags, const std::string &placement)
{
    TopologyConfig t;
    t.sockets =
        static_cast<std::uint32_t>(flags.getInt("sockets"));
    t.coresPerSocket = static_cast<std::uint32_t>(
        flags.getInt("cores-per-socket"));
    t.smtWays =
        static_cast<std::uint32_t>(flags.getInt("smt-ways"));
    t.placement = placementFromName(placement);
    t.home = homeFromName(flags.getString("home"));
    t.hopLatency =
        static_cast<Cycle>(flags.getInt("hop-latency"));
    t.linkOccupancy =
        static_cast<Cycle>(flags.getInt("link-occupancy"));
    if (t.placement == PlacementPolicy::Migrate) {
        t.migrationEpoch =
            static_cast<Cycle>(flags.getInt("migrate-epoch"));
        t.migrationCost =
            static_cast<Cycle>(flags.getInt("migrate-cost"));
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    declareRobustnessFlags(flags);
    declareObservabilityFlags(flags);
    declareParallelFlags(flags);
    flags.declare("sockets", "2", "sockets on the machine");
    flags.declare("cores-per-socket", "1", "SMT cores per socket");
    flags.declare("smt-ways", "2",
                  "SMT contexts the OS schedules per core (0 = "
                  "uncapped)");
    flags.declare("placement", "",
                  "comma-separated placement policies to sweep "
                  "(default: packed,rr,memaware,migrate)");
    flags.declare("home", "loader",
                  "page home policy: local (first-touch), loader "
                  "(all pages on socket 0), interleave");
    flags.declare("hop-latency", "40",
                  "interconnect latency per ring hop, cycles");
    flags.declare("link-occupancy", "4",
                  "cycles one transfer occupies a directed link");
    flags.declare("migrate-epoch", "20000",
                  "migration check period, cycles (migrate policy)");
    flags.declare("migrate-cost", "1000",
                  "pipeline-refill penalty per migration, cycles");
    flags.parse(argc, argv,
                "Figure 14: DRAM placement on a multi-socket NUMA "
                "machine — packed/round-robin/memory-aware/migrating "
                "OS schedulers vs. remote-access cost");

    const unsigned jobs = jobsFromFlags(flags);
    const std::string placement_csv = flags.getString("placement");
    const std::vector<std::string> placements =
        placement_csv.empty()
            ? std::vector<std::string>{"packed", "rr", "memaware",
                                       "migrate"}
            : splitList(placement_csv);

    banner("Figure 14",
           "weighted speedup and remote-access share by OS placement "
           "policy on a multi-socket machine",
           "memory-aware placement keeps memory-bound threads on the "
           "socket that owns their pages; round-robin strands one and "
           "pays a ring hop per access");

    ParallelExperimentRunner runner(paramsFromFlags(flags), jobs);
    std::vector<std::vector<std::size_t>> ids;
    for (const WorkloadMix &mix : numaMixes()) {
        ids.emplace_back();
        for (const std::string &placement : placements) {
            SystemConfig config = SystemConfig::paperDefault(
                static_cast<std::uint32_t>(mix.apps.size()));
            config.topology = topologyFromFlags(flags, placement);
            applyRobustnessFlags(flags, config);
            applyObservabilityFlags(flags, config);
            ids.back().push_back(runner.submitMix(config, mix));
        }
    }
    runner.run();

    ResultTable ws_table(placements);
    ResultTable remote_table(placements);
    const auto &mixes = numaMixes();
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::vector<double> ws, remote;
        for (std::size_t i = 0; i < placements.size(); ++i) {
            const MixRun &r = runner.mixResult(ids[m][i]);
            ws.push_back(r.weightedSpeedup);
            remote.push_back(r.run.numa.remoteReadFrac());
        }
        ws_table.addRow(mixes[m].name, ws);
        remote_table.addRow(mixes[m].name, remote);
    }
    std::printf("weighted speedup:\n");
    ws_table.print();
    std::printf("remote read fraction:\n");
    remote_table.print();

    // Per-thread detail for the first mix: which threads went remote
    // and what it cost them.
    for (std::size_t i = 0; i < placements.size(); ++i) {
        const MixRun &r = runner.mixResult(ids[0][i]);
        std::printf("%s %s: migrations=%llu\n", mixes[0].name.c_str(),
                    placements[i].c_str(),
                    (unsigned long long)r.run.numa.migrations);
        for (std::size_t t = 0; t < r.run.ipc.size(); ++t) {
            const auto &rr = r.run.numa.perThreadRemoteReads;
            std::printf("  t%zu %-8s ipc=%.4f remote_reads=%llu\n", t,
                        mixes[0].apps[t].c_str(), r.run.ipc[t],
                        (unsigned long long)(t < rr.size() ? rr[t]
                                                           : 0));
        }
    }
    return 0;
}
