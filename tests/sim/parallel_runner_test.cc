/** @file Unit tests for the parallel experiment runner. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"

namespace smtdram
{
namespace
{

const ExperimentParams kSmall{2000, 500, 42};

/** Bit-exact equality across every figure-visible MixRun metric. */
void
expectIdenticalMixRuns(const MixRun &a, const MixRun &b)
{
    // Doubles compared with ==: the determinism contract is
    // byte-identical results, not merely close ones.
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.run.measuredCycles, b.run.measuredCycles);
    EXPECT_EQ(a.run.ipc, b.run.ipc);
    EXPECT_EQ(a.run.committed, b.run.committed);
    EXPECT_EQ(a.run.rowMissRate, b.run.rowMissRate);
    EXPECT_EQ(a.run.memAccessPer100, b.run.memAccessPer100);
    EXPECT_EQ(a.run.dram.reads, b.run.dram.reads);
    EXPECT_EQ(a.run.dram.writes, b.run.dram.writes);
    EXPECT_EQ(a.run.dram.rowHits, b.run.dram.rowHits);
    EXPECT_EQ(a.run.dram.rowConflicts, b.run.dram.rowConflicts);
    EXPECT_EQ(a.run.dram.busBusyCycles, b.run.dram.busBusyCycles);
    const LogHistogram &la = a.run.dram.readLatencyHist;
    const LogHistogram &lb = b.run.dram.readLatencyHist;
    EXPECT_EQ(la.total(), lb.total());
    EXPECT_EQ(la.sum(), lb.sum());
    EXPECT_EQ(la.p50(), lb.p50());
    EXPECT_EQ(la.p99(), lb.p99());
    EXPECT_EQ(a.run.dram.readQueueing.sum(),
              b.run.dram.readQueueing.sum());
    EXPECT_EQ(a.run.perThreadReads, b.run.perThreadReads);
    EXPECT_EQ(a.run.dram.correctedErrors, b.run.dram.correctedErrors);
    EXPECT_EQ(a.run.dram.retriesExhausted,
              b.run.dram.retriesExhausted);
}

TEST(ParallelRunner, CallerThreadRunMixMatchesSubmittedJob)
{
    // runMix() on the calling thread and a submitted job (here on a
    // pool worker) of the same cell give the same MixRun and share
    // one baseline memo.
    const WorkloadMix &mix = mixByName("2-MIX");  // gzip + mcf
    const SystemConfig config = SystemConfig::paperDefault(2);

    ParallelExperimentRunner runner(kSmall, 2);
    const MixRun direct = runner.runMix(config, mix);
    EXPECT_EQ(runner.baselineSimulations(), 2u);

    const std::size_t id = runner.submitMix(config, mix);
    runner.run();
    expectIdenticalMixRuns(runner.mixResult(id), direct);
    // The job found both baselines in the memo runMix() filled.
    EXPECT_EQ(runner.baselineSimulations(), 2u);
}

TEST(ParallelRunner, AloneIpcIsCachedAndStable)
{
    ParallelExperimentRunner runner({5000, 2000, 42}, 1);
    const SystemConfig reference = SystemConfig::paperDefault(1);
    const double first = runner.aloneIpc("gzip", reference);
    const double second = runner.aloneIpc("gzip", reference);
    EXPECT_DOUBLE_EQ(first, second);
    EXPECT_EQ(runner.baselineSimulations(), 1u);
    EXPECT_GT(first, 0.5);
}

TEST(ParallelRunner, WeightedSpeedupDefinition)
{
    // With N copies of similar load, weighted speedup is bounded by
    // N and positive.
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const MixRun r = runner.runMix(SystemConfig::paperDefault(2),
                                   mixByName("2-ILP"));
    EXPECT_GT(r.weightedSpeedup, 0.5);
    EXPECT_LE(r.weightedSpeedup, 2.1);
}

TEST(ParallelRunner, MixRunMatchesManualComputation)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const WorkloadMix &mix = mixByName("2-MIX");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const MixRun r = runner.runMix(config, mix);
    const SystemConfig reference = SystemConfig::paperDefault(1);
    const double manual =
        r.run.ipc[0] / runner.aloneIpc("gzip", reference) +
        r.run.ipc[1] / runner.aloneIpc("mcf", reference);
    EXPECT_NEAR(r.weightedSpeedup, manual, 1e-9);
}

TEST(ParallelRunner, RunMixThreadMismatchThrows)
{
    ParallelExperimentRunner runner({1000, 500, 42}, 1);
    EXPECT_THROW((void)runner.runMix(SystemConfig::paperDefault(4),
                                     mixByName("2-MEM")),
                 std::invalid_argument);
    // Rejected before anything was simulated.
    EXPECT_EQ(runner.baselineSimulations(), 0u);
}

TEST(ParallelRunner, ParallelIsByteIdenticalToSerialAllSchedulers)
{
    // The tentpole determinism claim: a --jobs 8 sweep over every
    // Figure 10 scheduler returns exactly what --jobs 1 returns.
    const WorkloadMix &mix = mixByName("2-MEM");

    auto sweep = [&](unsigned jobs) {
        ParallelExperimentRunner runner(kSmall, jobs);
        std::vector<std::size_t> ids;
        for (SchedulerKind kind : allSchedulerKinds()) {
            SystemConfig config = SystemConfig::paperDefault(2);
            config.scheduler = kind;
            ids.push_back(runner.submitMix(config, mix));
        }
        runner.run();
        std::vector<MixRun> out;
        for (std::size_t id : ids)
            out.push_back(runner.mixResult(id));
        return out;
    };

    const std::vector<MixRun> serial = sweep(1);
    const std::vector<MixRun> parallel = sweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("scheduler index " + std::to_string(i));
        expectIdenticalMixRuns(parallel[i], serial[i]);
    }
}

TEST(ParallelRunner, BaselinesSimulateExactlyOncePerKey)
{
    // Four mixes over two apps each, all sharing the reference
    // baseline config: the number of alone-IPC simulations must be
    // the number of distinct apps, not the number of (mix, app)
    // requests.
    ParallelExperimentRunner runner(kSmall, 4);
    const WorkloadMix &mix = mixByName("2-MIX");  // gzip + mcf
    for (SchedulerKind kind :
         {SchedulerKind::Fcfs, SchedulerKind::HitFirst,
          SchedulerKind::AgeBased, SchedulerKind::RequestBased}) {
        SystemConfig config = SystemConfig::paperDefault(2);
        config.scheduler = kind;
        runner.submitMix(config, mix);
    }
    runner.run();
    EXPECT_EQ(runner.baselineSimulations(), 2u);
}

TEST(ParallelRunner, PerConfigBaselinesAddKeys)
{
    ParallelExperimentRunner runner(kSmall, 2);
    const WorkloadMix &mix = mixByName("2-MIX");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const std::size_t fixed = runner.submitMix(config, mix, false);
    const std::size_t per_config =
        runner.submitMix(config.withInfiniteL3(), mix, true);
    runner.run();
    // 2 reference baselines + 2 infinite-L3 baselines.
    EXPECT_EQ(runner.baselineSimulations(), 4u);
    // An infinite L3 must not *hurt*; with its own (faster) baselines
    // the weighted speedup is computed against a taller denominator.
    EXPECT_GT(runner.mixResult(fixed).weightedSpeedup, 0.0);
    EXPECT_GT(runner.mixResult(per_config).weightedSpeedup, 0.0);
}

TEST(ParallelRunner, PerConfigBaselinesDiffer)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const SystemConfig real = SystemConfig::paperDefault(1);
    const SystemConfig inf = real.withInfiniteL3();
    const double real_ipc = runner.aloneIpc("mcf", real);
    const double inf_ipc = runner.aloneIpc("mcf", inf);
    // mcf is memory-bound: an infinite L3 transforms it.
    EXPECT_GT(inf_ipc, 2.0 * real_ipc);
    // Cached: repeated queries are stable and simulate nothing new.
    EXPECT_DOUBLE_EQ(runner.aloneIpc("mcf", inf), inf_ipc);
    EXPECT_EQ(runner.baselineSimulations(), 2u);
}

TEST(ParallelRunner, PerConfigWeightedSpeedupUsesOwnBaselines)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const WorkloadMix &mix = mixByName("2-MEM");
    SystemConfig inf = SystemConfig::paperDefault(2).withInfiniteL3();
    const MixRun fixed = runner.runMix(inf, mix, false);
    const MixRun per_config = runner.runMix(inf, mix, true);
    // Fixed baselines (real machine) inflate the infinite-L3 WS.
    EXPECT_GT(fixed.weightedSpeedup,
              1.5 * per_config.weightedSpeedup);
}

TEST(ParallelRunner, CpiBreakdownMatchesSerialHelper)
{
    const CpiBreakdown direct = measureCpiBreakdown(
        "gzip", kSmall.measureInsts, kSmall.warmupInsts, kSmall.seed);

    ParallelExperimentRunner runner(kSmall, 3);
    const std::size_t id = runner.submitCpiBreakdown("gzip");
    runner.run();
    const CpiBreakdown &r = runner.cpiResult(id);
    EXPECT_EQ(r.overall, direct.overall);
    EXPECT_EQ(r.proc, direct.proc);
    EXPECT_EQ(r.l2, direct.l2);
    EXPECT_EQ(r.l3, direct.l3);
    EXPECT_EQ(r.mem, direct.mem);
}

TEST(ParallelRunner, FirstErrorPropagatesBySubmissionIndex)
{
    ParallelExperimentRunner runner(kSmall, 4);
    const SystemConfig two = SystemConfig::paperDefault(2);
    const SystemConfig four = SystemConfig::paperDefault(4);
    runner.submitMix(two, mixByName("2-ILP"));          // fine
    runner.submitMix(four, mixByName("2-MEM"));         // broken (#1)
    runner.submitMix(two, mixByName("4-MIX"));          // broken (#2)
    try {
        runner.run();
        FAIL() << "run() should rethrow the first job error";
    } catch (const std::invalid_argument &e) {
        // Lowest submission index wins, regardless of wall-clock
        // finish order: the 4-thread-config/2-app mismatch.
        EXPECT_NE(std::string(e.what()).find("2-MEM"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(ParallelRunner, RunIsIncremental)
{
    ParallelExperimentRunner runner(kSmall, 2);
    const WorkloadMix &mix = mixByName("2-ILP");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const std::size_t first = runner.submitMix(config, mix);
    runner.run();
    const MixRun snapshot = runner.mixResult(first);
    const std::size_t second = runner.submitMix(config, mix);
    runner.run();
    // Earlier results survive later runs; identical submissions give
    // identical results.
    expectIdenticalMixRuns(runner.mixResult(first), snapshot);
    expectIdenticalMixRuns(runner.mixResult(second), snapshot);
    EXPECT_EQ(runner.submitted(), 2u);
}

TEST(ParallelRunner, ZeroJobsClampsToSerial)
{
    ParallelExperimentRunner runner(kSmall, 0);
    EXPECT_EQ(runner.jobs(), 1u);
}

} // namespace
} // namespace smtdram
