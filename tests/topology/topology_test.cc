/**
 * @file
 * Topology subsystem tests: ring-hop arithmetic, link queuing,
 * home-tagged frame allocation, placement policies, configuration
 * validation, per-request remote-blame conservation at the router
 * delivery boundary, and multi-socket SmtSystem runs: the numa.*
 * stats block, the migration engine, kernel equivalence, and the
 * per-core metrics.  The 1x1 machine is covered by every other suite
 * and by the figure and stats goldens.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dram/blame.hh"
#include "dram/dram_system.hh"
#include "dram/scheduler.hh"
#include "sim/experiment.hh"
#include "sim/smt_system.hh"
#include "topology/interconnect.hh"
#include "topology/placement.hh"
#include "topology/socket_router.hh"
#include "topology/topology_config.hh"
#include "workload/spec2000.hh"

namespace smtdram
{
namespace
{

constexpr std::uint64_t kInsts = 2'500;
constexpr std::uint64_t kWarmup = 1'000;
constexpr std::uint64_t kSeed = 42;

TEST(Interconnect, RingHopArithmetic)
{
    EXPECT_EQ(Interconnect::ringHops(0, 0, 4), 0u);
    EXPECT_EQ(Interconnect::ringHops(0, 1, 4), 1u);
    EXPECT_EQ(Interconnect::ringHops(1, 0, 4), 1u);
    EXPECT_EQ(Interconnect::ringHops(0, 2, 4), 2u);
    // The ring goes both ways: 0 -> 3 is one hop backwards.
    EXPECT_EQ(Interconnect::ringHops(0, 3, 4), 1u);
    EXPECT_EQ(Interconnect::ringHops(1, 3, 4), 2u);
    EXPECT_EQ(Interconnect::ringHops(0, 1, 2), 1u);
    EXPECT_EQ(Interconnect::ringHops(0, 4, 8), 4u);
    EXPECT_EQ(Interconnect::ringHops(7, 0, 8), 1u);
    EXPECT_EQ(Interconnect::ringHops(2, 7, 8), 3u);
}

TEST(Interconnect, LinkQueuingIsDeterministic)
{
    Interconnect net(2, 40, 4);

    const TransferResult a = net.transfer(0, 1, 100, 7);
    EXPECT_EQ(a.delay, 40u);
    EXPECT_EQ(a.queueWait, 0u);
    EXPECT_EQ(a.blockedBy, kThreadNone);

    // Same directed channel, same cycle: waits out the first
    // transfer's occupancy and knows who to blame.
    const TransferResult b = net.transfer(0, 1, 100, 8);
    EXPECT_EQ(b.queueWait, 4u);
    EXPECT_EQ(b.delay, 44u);
    EXPECT_EQ(b.blockedBy, 7u);

    // The reply network is a separate channel: no interference.
    const TransferResult c = net.transfer(1, 0, 100, 9);
    EXPECT_EQ(c.queueWait, 0u);
    EXPECT_EQ(c.delay, 40u);

    // Local traffic never transits the fabric.
    const TransferResult d = net.transfer(1, 1, 100, 9);
    EXPECT_EQ(d.delay, 0u);

    EXPECT_EQ(net.stats().transfers, 3u);
    EXPECT_EQ(net.stats().hopCycles, 120u);
    EXPECT_EQ(net.stats().queueCycles, 4u);
}

TEST(FrameAllocator, HomeTaggingAndPolicies)
{
    TopologyConfig topo;
    topo.sockets = 2;
    topo.home = HomePolicy::Local;

    NumaFrameAllocator local(topo, 12);
    // Socket 0 allocates the sequential frames 0, 1, 2, ...
    EXPECT_EQ(local.allocate(0), 0u);
    EXPECT_EQ(local.allocate(0), 1u);
    const Addr f = local.allocate(1);
    EXPECT_EQ(f, Addr{1} << NumaFrameAllocator::kHomeFrameShift);

    // Physical address = frame << pageShift | offset; the home tag
    // survives the shift and round-trips through strip/tag.
    const Addr paddr = (f << 12) | 0x5;
    EXPECT_EQ(local.homeOfAddr(paddr), 1u);
    EXPECT_EQ(local.tagHome(local.stripHome(paddr), 1), paddr);
    EXPECT_EQ(local.homeOfAddr(local.stripHome(paddr)), 0u);

    topo.home = HomePolicy::Loader;
    NumaFrameAllocator loader(topo, 12);
    EXPECT_EQ(loader.homeOfAddr(loader.allocate(1) << 12), 0u);
    EXPECT_EQ(loader.homeOfAddr(loader.allocate(0) << 12), 0u);

    topo.home = HomePolicy::Interleave;
    NumaFrameAllocator il(topo, 12);
    EXPECT_EQ(il.homeOfAddr(il.allocate(0) << 12), 0u);
    EXPECT_EQ(il.homeOfAddr(il.allocate(0) << 12), 1u);
    EXPECT_EQ(il.homeOfAddr(il.allocate(0) << 12), 0u);
}

std::vector<AppProfile>
mixApps()
{
    return {specProfile("mcf"), specProfile("equake"),
            specProfile("gzip"), specProfile("bzip2")};
}

TEST(Placement, StaticPolicies)
{
    TopologyConfig topo;
    topo.sockets = 2;
    topo.coresPerSocket = 1;
    topo.smtWays = 2;
    const auto apps = mixApps();

    topo.placement = PlacementPolicy::Packed;
    EXPECT_EQ(computePlacement(topo, apps),
              (std::vector<std::uint32_t>{0, 0, 1, 1}));

    topo.placement = PlacementPolicy::RoundRobin;
    EXPECT_EQ(computePlacement(topo, apps),
              (std::vector<std::uint32_t>{0, 1, 0, 1}));

    // Migrate starts from the round-robin placement.
    topo.placement = PlacementPolicy::Migrate;
    EXPECT_EQ(computePlacement(topo, apps),
              (std::vector<std::uint32_t>{0, 1, 0, 1}));

    // An explicit pin map wins over any policy.
    topo.placement = PlacementPolicy::Packed;
    topo.pinned = {1, 1, 0, 0};
    EXPECT_EQ(computePlacement(topo, apps),
              (std::vector<std::uint32_t>{1, 1, 0, 0}));
}

TEST(Placement, MemoryAwareSpreadsByIntensity)
{
    // The MEM threads outscore the ILP threads.
    EXPECT_GT(memoryIntensityScore(specProfile("mcf")),
              memoryIntensityScore(specProfile("gzip")));
    EXPECT_GT(memoryIntensityScore(specProfile("equake")),
              memoryIntensityScore(specProfile("bzip2")));

    TopologyConfig topo;
    topo.sockets = 2;
    topo.coresPerSocket = 1;
    topo.smtWays = 2;
    topo.placement = PlacementPolicy::MemoryAware;
    const auto apps = mixApps();

    // Loader home: every page lives on socket 0, so the memory-bound
    // threads (mcf, equake) are kept there and the compute-bound pair
    // is exported.
    topo.home = HomePolicy::Loader;
    EXPECT_EQ(computePlacement(topo, apps),
              (std::vector<std::uint32_t>{0, 0, 1, 1}));

    // First-touch home: pages follow the threads, so the policy
    // spreads the memory-bound threads across sockets instead.
    topo.home = HomePolicy::Local;
    const auto spread = computePlacement(topo, apps);
    EXPECT_NE(spread[0], spread[1]);
}

TEST(Placement, MigrationPolicyMovesOrSwaps)
{
    TopologyConfig topo;
    topo.sockets = 2;
    topo.coresPerSocket = 1;
    topo.smtWays = 2;
    // Flatten the decision to (tid, from, to) triples.
    auto decide = [&topo](const std::vector<std::uint32_t> &cores,
                          const std::vector<std::uint64_t> &remote,
                          const std::vector<std::vector<std::uint64_t>>
                              &to_socket) {
        std::vector<std::vector<std::uint32_t>> out;
        for (const Migration &m :
             chooseMigrations(topo, cores, remote, to_socket))
            out.push_back({m.tid, m.from, m.to});
        return out;
    };
    using Moves = std::vector<std::vector<std::uint32_t>>;

    // Thread 0 runs on socket 1 but reads socket 0; socket 0 has a
    // free context, so it simply moves.
    EXPECT_EQ(decide({1, 0, 1}, {40, 0, 5}, {{40, 2}, {0, 0}, {5, 0}}),
              (Moves{{0, 1, 0}}));
    // Below the noise floor, or already home: no move.
    EXPECT_EQ(decide({1, 0, 1}, {10, 0, 5}, {{10, 2}, {0, 0}, {5, 0}}),
              Moves{});
    EXPECT_EQ(decide({0, 1, 1}, {40, 0, 5}, {{40, 2}, {0, 0}, {5, 0}}),
              Moves{});

    // Socket 0 full: swap with its least remote-hungry thread (1)...
    const std::vector<std::vector<std::uint64_t>> full = {
        {40, 1}, {0, 9}, {0, 9}, {0, 9}};
    EXPECT_EQ(decide({1, 0, 0, 1}, {40, 2, 3, 0}, full),
              (Moves{{0, 1, 0}, {1, 0, 1}}));
    // ...but only past 2x hysteresis (20 < 2 * 3 + 16).
    EXPECT_EQ(decide({1, 0, 0, 1}, {20, 3, 3, 0}, full), Moves{});
}

TEST(TopologyValidateDeathTest, RejectsImpossibleTopologies)
{
    TopologyConfig topo;

    topo.sockets = 0;
    EXPECT_DEATH(topo.validate(1), "at least one socket");

    topo.sockets = 2;
    topo.coresPerSocket = 0;
    EXPECT_DEATH(topo.validate(1), "at least one core per socket");

    topo.coresPerSocket = 1;
    topo.hopLatency = 0;
    EXPECT_DEATH(topo.validate(2), "nonzero hop latency");

    topo.hopLatency = 40;
    topo.smtWays = 1;
    EXPECT_DEATH(topo.validate(4), "oversubscribed");

    topo.smtWays = 2;
    topo.pinned = {0, 1};
    EXPECT_DEATH(topo.validate(4), "names 2 threads");

    topo.pinned = {0, 1, 0, 5};
    EXPECT_DEATH(topo.validate(4), "only 2 cores");

    topo.pinned = {0, 0, 0, 1};
    EXPECT_DEATH(topo.validate(4), "core 0 oversubscribed");

    // A legal pin map passes.
    topo.pinned = {0, 0, 1, 1};
    topo.validate(4);
}

TEST(SocketRouterTest, RemoteBlameConservesPerRequest)
{
    TopologyConfig topo;
    topo.sockets = 2;
    topo.coresPerSocket = 1;
    topo.home = HomePolicy::Loader;

    const DramConfig dcfg = DramConfig::ddrSdram(2);
    DramSystem d0(dcfg, SchedulerKind::HitFirst, 0);
    DramSystem d1(dcfg, SchedulerKind::HitFirst,
                  dcfg.logicalChannels());
    NumaFrameAllocator alloc(topo, 12);
    SocketRouter router(topo, {&d0, &d1}, alloc, 2);

    std::vector<DramRequest> delivered;
    router.setDelivery(
        0, [&](const DramRequest &r) { delivered.push_back(r); });
    router.setDelivery(
        1, [&](const DramRequest &r) { delivered.push_back(r); });

    const ThreadSnapshot snap{};
    // Core 0 -> socket 1 (remote), core 0 -> socket 0 (local),
    // core 1 -> socket 0 (remote).
    router.read(0, alloc.tagHome(0x40, 1), 0, snap, 10, true);
    router.read(0, alloc.tagHome(0x1080, 0), 0, snap, 10, false);
    router.read(1, alloc.tagHome(0x2100, 0), 1, snap, 12, false);

    for (Cycle c = 11; c < 100'000 && delivered.size() < 3; ++c) {
        d0.tick(c);
        d1.tick(c);
    }
    ASSERT_EQ(delivered.size(), 3u);

    std::uint64_t remote_blame = 0;
    for (const DramRequest &r : delivered) {
        // Conservation holds at the delivery boundary: the return
        // hop was added to both the completion time and the blame
        // vector.
        EXPECT_EQ(r.blame.sum(), r.completion - r.arrival)
            << "request " << r.id;
        remote_blame += r.blame[BlameComponent::RemoteAccess];
        // Thread t runs on core t here; the delivered address still
        // carries the home tag, so remoteness is recoverable and
        // blamed iff home differs from the issuer's socket.
        const bool remote = alloc.homeOfAddr(r.addr) != r.thread;
        if (remote)
            EXPECT_GT(r.blame[BlameComponent::RemoteAccess], 0u);
        else
            EXPECT_EQ(r.blame[BlameComponent::RemoteAccess], 0u);
    }
    // Two remote round trips at >= 2 * hopLatency each.
    EXPECT_GE(remote_blame, 2 * 2 * topo.hopLatency);

    EXPECT_EQ(router.stats().remoteReads, 2u);
    EXPECT_EQ(router.stats().localReads, 1u);
    EXPECT_EQ(router.stats().linkTransfers, 4u);  // 2 out + 2 back
    EXPECT_EQ(router.readsToSocket(0)[1], 1u);
    EXPECT_EQ(router.readsToSocket(1)[0], 1u);
}

/** Every scalar a RunResult carries, compared exactly. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.writes, b.dram.writes);
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits);
    EXPECT_EQ(a.dram.rowEmpty, b.dram.rowEmpty);
    EXPECT_EQ(a.dram.rowConflicts, b.dram.rowConflicts);
    EXPECT_EQ(a.dram.busBusyCycles, b.dram.busBusyCycles);
    EXPECT_EQ(a.dram.readLatency.count(), b.dram.readLatency.count());
    EXPECT_EQ(a.dram.readLatency.sum(), b.dram.readLatency.sum());
    EXPECT_EQ(a.dram.readQueueing.sum(), b.dram.readQueueing.sum());
    for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
        EXPECT_EQ(a.dram.blameTotals.cycles[c],
                  b.dram.blameTotals.cycles[c])
            << blameComponentName(static_cast<BlameComponent>(c));
    }
    for (ThreadId t = 0; t < a.ipc.size(); ++t) {
        EXPECT_EQ(a.dram.interference.rowSum(t),
                  b.dram.interference.rowSum(t));
    }
    EXPECT_EQ(a.power.totalEnergy, b.power.totalEnergy);
    EXPECT_EQ(a.rowMissRate, b.rowMissRate);
    EXPECT_EQ(a.memAccessPer100, b.memAccessPer100);
    EXPECT_EQ(a.intIssueActiveFrac, b.intIssueActiveFrac);
    EXPECT_EQ(a.branchMispredictRate, b.branchMispredictRate);
    EXPECT_EQ(a.perThreadReads, b.perThreadReads);
    EXPECT_EQ(a.outstandingHist.total(), b.outstandingHist.total());
    EXPECT_EQ(a.threadsHist.total(), b.threadsHist.total());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(NumaSystemTest, NontrivialTopologyExportsNumaStats)
{
    SystemConfig config = SystemConfig::paperDefault(4);
    config.topology.sockets = 2;
    config.topology.coresPerSocket = 1;
    config.topology.smtWays = 2;
    config.topology.placement = PlacementPolicy::RoundRobin;
    config.topology.home = HomePolicy::Loader;
    const std::string path = testing::TempDir() + "/numa_stats.json";
    config.observe.statsJsonPath = path;

    SmtSystem numa(config, mixApps(), kSeed);
    const RunResult r = numa.run(kInsts, kWarmup);

    // Loader home + round-robin strands the socket-1 threads remote.
    EXPECT_GT(r.numa.remoteReads, 0u);
    EXPECT_GT(r.numa.localReads, 0u);
    EXPECT_GT(r.numa.returnCycles, 0u);
    EXPECT_GT(
        r.dram.blameTotals[BlameComponent::RemoteAccess], 0u);
    // The router counts reads at enqueue, the controller at
    // completion, so requests in flight across the measurement
    // boundary skew the two by at most the queue depth.
    const std::uint64_t routed = r.numa.remoteReads + r.numa.localReads;
    EXPECT_NEAR(static_cast<double>(routed),
                static_cast<double>(r.dram.reads), 64.0);

    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"numa.remote_reads\""), std::string::npos);
    EXPECT_NE(doc.find("\"numa.s1.reads\""), std::string::npos);
    EXPECT_NE(doc.find("\"numa.t0.remote_reads\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"sockets\":\"2\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(NumaSystemTest, MigrationMovesRemoteThreadHome)
{
    // Round-robin start under loader home puts threads 1 and 3 on
    // socket 1 with all their pages on socket 0; the migration
    // engine should bring the worst-hit thread home within a few
    // epochs, under both kernels identically.  No warmup, so the
    // migrations land inside the measurement window.
    auto run_with = [](KernelMode kernel) {
        SystemConfig config = SystemConfig::paperDefault(4);
        config.kernel = kernel;
            config.topology.sockets = 2;
        config.topology.coresPerSocket = 1;
        config.topology.placement = PlacementPolicy::Migrate;
        config.topology.home = HomePolicy::Loader;
        config.topology.migrationEpoch = 5'000;
        config.topology.migrationCost = 100;
        SmtSystem numa(config, mixApps(), kSeed);
        return numa.run(kInsts, 0);
    };
    const RunResult a = run_with(KernelMode::PerCycle);
    EXPECT_GT(a.numa.migrations, 0u);
    for (std::uint64_t committed : a.committed)
        EXPECT_GE(committed, kInsts);

    const RunResult b = run_with(KernelMode::EventDriven);
    expectSameResult(a, b);
    EXPECT_EQ(a.numa.migrations, b.numa.migrations);
    EXPECT_EQ(a.numa.remoteReads, b.numa.remoteReads);
}

TEST(NumaSystemTest, EventKernelMatchesPerCycleOnTwoSockets)
{
    // Differential kernel equivalence on a multi-socket machine with
    // link queuing in play (2 sockets x 2 cores, interleaved home).
    auto run_with = [](KernelMode kernel) {
        SystemConfig config = SystemConfig::paperDefault(4);
        config.kernel = kernel;
            config.topology.sockets = 2;
        config.topology.coresPerSocket = 2;
        config.topology.smtWays = 1;
        config.topology.placement = PlacementPolicy::RoundRobin;
        config.topology.home = HomePolicy::Interleave;
        SmtSystem numa(config, mixApps(), kSeed);
        return numa.run(kInsts, kWarmup);
    };
    const RunResult a = run_with(KernelMode::PerCycle);
    const RunResult b = run_with(KernelMode::EventDriven);
    expectSameResult(a, b);
    EXPECT_EQ(a.numa.remoteReads, b.numa.remoteReads);
    EXPECT_EQ(a.numa.linkQueueCycles, b.numa.linkQueueCycles);
    EXPECT_EQ(a.numa.outboundCycles, b.numa.outboundCycles);
    EXPECT_EQ(a.numa.returnCycles, b.numa.returnCycles);
}

TEST(NumaSystemTest, IntIssueFractionIsAMeanOverCores)
{
    // Summing every core's int-issue-active cycles over one shared
    // cycle count overshoots 1 as soon as two cores issue; the
    // reported value is the mean over cores, so it stays a fraction.
    auto run_on = [](std::uint32_t sockets, std::uint32_t cores,
                     const std::vector<AppProfile> &apps) {
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(apps.size()));
        config.topology.sockets = sockets;
        config.topology.coresPerSocket = cores;
        config.topology.smtWays = 4 / (sockets * cores);
        config.topology.placement = PlacementPolicy::RoundRobin;
        config.topology.home = HomePolicy::Loader;
        SmtSystem system(config, apps, kSeed);
        return system.run(kInsts, kWarmup).intIssueActiveFrac;
    };
    // The fig14 machine, and 4-ILP on 2 sockets x 2 cores.
    for (const double frac :
         {run_on(2, 1, mixApps()),
          run_on(2, 2, profilesForMix(mixByName("4-ILP")))}) {
        EXPECT_GT(frac, 0.0);
        EXPECT_LE(frac, 1.0);
    }
}

} // namespace
} // namespace smtdram
