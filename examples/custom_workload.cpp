/**
 * @file
 * Example: defining a custom application model and running it
 * against the stock SPEC2000 models.
 *
 * Shows the two extension points a downstream user needs: building
 * an AppProfile by hand (no SPEC name required) and assembling a
 * bespoke multiprogrammed workload from it.
 */

#include <cstdio>

#include "sim/smt_system.hh"

using namespace smtdram;

int
main()
{
    // A hypothetical in-memory key-value store: random reads over a
    // large heap with moderate ILP and a store-heavy update mix.
    AppProfile kvstore;
    kvstore.name = "kvstore";
    kvstore.category = AppCategory::Mem;
    kvstore.loadFrac = 0.30;
    kvstore.storeFrac = 0.14;
    kvstore.branchFrac = 0.10;
    kvstore.coldBytes = 64ull * 1024 * 1024;
    kvstore.coldPattern = AccessPattern::Random;
    kvstore.coldFrac = 0.10;
    kvstore.coldRunLines = 2;   // ~128B values span two lines
    kvstore.depMean = 5.0;

    // Pair it with a compute-bound partner on a 2-thread SMT core.
    SystemConfig config = SystemConfig::paperDefault(2);
    config.scheduler = SchedulerKind::RequestBased;

    SmtSystem system(config, {kvstore, specProfile("gzip")}, 42);
    const RunResult r = system.run(40000, 20000);

    std::printf("kvstore + gzip on 2-channel DDR, request-based "
                "scheduling\n\n");
    std::printf("  kvstore IPC        : %.3f\n", r.ipc[0]);
    std::printf("  gzip IPC           : %.3f\n", r.ipc[1]);
    std::printf("  DRAM reads/writes  : %llu / %llu\n",
                (unsigned long long)r.dram.reads,
                (unsigned long long)r.dram.writes);
    std::printf("  mem refs/100 insts : %.2f\n", r.memAccessPer100);
    std::printf("  row-buffer miss    : %.1f%%\n",
                100.0 * r.rowMissRate);
    std::printf("  avg read latency   : %.0f cycles\n",
                r.dram.readLatencyHist.mean());
    return 0;
}
