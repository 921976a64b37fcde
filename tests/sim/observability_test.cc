/**
 * @file
 * System-level tests of the observability layer:
 *
 *  - the inert-knob guarantee: turning tracing and stats on changes
 *    no simulated outcome (bit-identical metrics) and leaves the
 *    configuration signature — and therefore the golden figures and
 *    cached baselines — frozen;
 *  - the exported artifacts: schema-versioned stats JSON, epoch CSV,
 *    and a trace whose request lifecycles conserve;
 *  - the experiment layer: alone-IPC baseline runs never clobber the
 *    mix run's output files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "sim/smt_system.hh"

namespace smtdram
{
namespace
{

std::vector<AppProfile>
mixProfiles(const char *name)
{
    std::vector<AppProfile> apps;
    for (const std::string &app : mixByName(name).apps)
        apps.push_back(specProfile(app));
    return apps;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Temp artifact paths removed when the test ends. */
struct TempPaths {
    /** Per-test names: ctest runs each test as its own process, in
     *  parallel, so shared names would let one test delete or
     *  overwrite another's artifacts mid-run. */
    std::string base =
        std::string("observability_test.") +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string trace = base + ".trace.json";
    std::string json = base + ".stats.json";
    std::string csv = base + ".stats.csv";

    TempPaths() { cleanup(); }
    ~TempPaths() { cleanup(); }

    void
    cleanup()
    {
        std::remove(trace.c_str());
        std::remove(json.c_str());
        std::remove(csv.c_str());
    }
};

TEST(Observability, KnobsAreInert)
{
    // The whole layer's contract: a fully instrumented run commits
    // the same instructions on the same cycles as a dark run.
    TempPaths tmp;
    auto run = [&](bool observed) {
        SystemConfig config = SystemConfig::paperDefault(2);
        if (observed) {
            config.observe.tracePath = tmp.trace;
            config.observe.statsJsonPath = tmp.json;
            config.observe.statsCsvPath = tmp.csv;
            config.observe.epoch = 2'000;
        }
        SmtSystem system(config, mixProfiles("2-MEM"), 42);
        return system.run(5000, 2000);
    };
    const RunResult dark = run(false);
    const RunResult lit = run(true);

    EXPECT_EQ(dark.measuredCycles, lit.measuredCycles);
    EXPECT_EQ(dark.ipc, lit.ipc);
    EXPECT_EQ(dark.committed, lit.committed);
    EXPECT_EQ(dark.dram.reads, lit.dram.reads);
    EXPECT_EQ(dark.dram.rowHits, lit.dram.rowHits);
    EXPECT_EQ(dark.dram.refreshes, lit.dram.refreshes);
    EXPECT_DOUBLE_EQ(dark.rowMissRate, lit.rowMissRate);
    EXPECT_DOUBLE_EQ(dark.branchMispredictRate,
                     lit.branchMispredictRate);
}

TEST(Observability, ConfigSignatureStaysFrozen)
{
    // ObservabilityConfig is deliberately excluded from the
    // signature: cached alone-IPC baselines and the golden figures
    // must not fork when tracing is enabled.  The literal pins the
    // signature itself — if this fails, every golden file and cache
    // key just changed meaning.
    SystemConfig config = SystemConfig::paperDefault(2);
    const std::string dark = configSignature(config);
    EXPECT_EQ(dark, "2C-1G-xor-open-Hit-first-l3real-pf0");

    config.observe.tracePath = "t.json";
    config.observe.statsJsonPath = "s.json";
    config.observe.epoch = 500;
    EXPECT_EQ(configSignature(config), dark);

    // The always-on energy meter is timing-neutral, so its electrical
    // knobs must not fork the signature either.
    config.dram.power.vdd = 99.0;
    config.dram.power.idd0 = 500.0;
    EXPECT_EQ(configSignature(config), dark);

    // The opt-in low-power machine DOES change timing; its thresholds
    // and exit latencies enter the signature the moment it turns on.
    config.dram.withPowerManagement();
    const std::string powered = configSignature(config);
    EXPECT_NE(powered, dark);
    EXPECT_NE(powered.find("-pwr96,1024,8192,18,60,540"),
              std::string::npos)
        << powered;
}

TEST(Observability, PowerKnobsAreInertWhenDisabled)
{
    // Same contract as KnobsAreInert for the power subsystem: with
    // the state machine off, neither electrical currents nor (unused)
    // thresholds may change a simulated outcome.
    auto run = [&](bool mutated) {
        SystemConfig config = SystemConfig::paperDefault(2);
        if (mutated) {
            config.dram.power.vdd = 7.5;
            config.dram.power.idd0 = 400.0;
            config.dram.power.idd3n = 90.0;
            config.dram.power.idd4r = 600.0;
            config.dram.power.idd4w = 550.0;
            config.dram.power.idd5 = 700.0;
            config.dram.power.powerdownIdle = 8;
            config.dram.power.slowExitIdle = 16;
            config.dram.power.selfRefreshIdle = 24;
            config.dram.power.exitFast = 1'000;
            config.dram.power.exitSlow = 2'000;
            config.dram.power.exitSelfRefresh = 3'000;
        }
        SmtSystem system(config, mixProfiles("2-MEM"), 42);
        return system.run(5000, 2000);
    };
    const RunResult plain = run(false);
    const RunResult mutated = run(true);

    EXPECT_EQ(plain.measuredCycles, mutated.measuredCycles);
    EXPECT_EQ(plain.ipc, mutated.ipc);
    EXPECT_EQ(plain.committed, mutated.committed);
    EXPECT_EQ(plain.dram.reads, mutated.dram.reads);
    EXPECT_EQ(plain.dram.rowHits, mutated.dram.rowHits);
    // The meter itself is not inert — hotter currents mean more
    // metered nanojoules for the identical command stream.
    EXPECT_GT(plain.power.totalEnergy, 0.0);
    EXPECT_GT(mutated.power.totalEnergy, plain.power.totalEnergy);
    EXPECT_EQ(mutated.power.powerdownEntries, 0u);
}

TEST(Observability, ExportsSchemaVersionedStatsAndEpochCsv)
{
    TempPaths tmp;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.statsJsonPath = tmp.json;
    config.observe.statsCsvPath = tmp.csv;
    config.observe.epoch = 1'000;
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(5000, 2000);

    const std::string doc = slurp(tmp.json);
    ASSERT_FALSE(doc.empty());
    EXPECT_NE(doc.find("\"schema\":\"smtdram-stats\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\":3"), std::string::npos);
    EXPECT_NE(doc.find(
                  "\"config\":\"2C-1G-xor-open-Hit-first-l3real-pf0\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.reads\":"), std::string::npos);
    EXPECT_NE(doc.find("\"dram.read_latency\":"), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t1.committed\":"), std::string::npos);
    // v2 additions: blame attribution, interference matrix, per-thread
    // CPI stack, trace-drop visibility.
    EXPECT_NE(doc.find("\"dram.blame.queueing_cycles\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.blame.intrinsic\":"), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t0.blame.intrinsic_cycles\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.interference.t0.t1\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"trace.dropped_events\":"),
              std::string::npos);

    // Registry and RunResult agree on the headline counter.
    ASSERT_NE(system.statsRegistry(), nullptr);
    EXPECT_DOUBLE_EQ(system.statsRegistry()->value("dram.reads"),
                     static_cast<double>(r.dram.reads));

    // The CSV time series has a header plus at least one epoch row
    // and the final row.
    std::istringstream csv(slurp(tmp.csv));
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line.rfind("cycle,", 0), 0u);
    size_t rows = 0;
    while (std::getline(csv, line))
        ++rows;
    EXPECT_GE(rows, 2u);
}

TEST(Observability, TraceLifecyclesConserve)
{
    TempPaths tmp;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.tracePath = tmp.trace;
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    system.run(5000, 2000);

    const std::string doc = slurp(tmp.trace);
    ASSERT_FALSE(doc.empty());

    // Line-based scan: each event is one line; spans are keyed by
    // the request id.  Every terminal event must match exactly one
    // open; opens without a terminal are only the requests still in
    // flight when the run ended.
    std::map<std::string, int> begins, ends;
    std::uint64_t prev_ts = 0;
    bool monotonic = true;
    std::istringstream ss(doc);
    std::string line;
    size_t events = 0;
    while (std::getline(ss, line)) {
        const size_t ph = line.find("\"ph\":\"");
        if (ph == std::string::npos)
            continue;
        ++events;
        const char kind = line[ph + 6];
        const size_t ts_at = line.find("\"ts\":");
        if (ts_at != std::string::npos) {
            const std::uint64_t ts = std::strtoull(
                line.c_str() + ts_at + 5, nullptr, 10);
            monotonic = monotonic && ts >= prev_ts;
            prev_ts = ts;
        }
        // Only DRAM request spans have once-per-id lifecycles; CPU
        // fetch-stall spans reuse the thread id across windows.
        if (line.find("\"cat\":\"dram\"") == std::string::npos)
            continue;
        const size_t id_at = line.find("\"id\":\"");
        if (id_at == std::string::npos)
            continue;
        const size_t id_end = line.find('"', id_at + 6);
        const std::string id =
            line.substr(id_at + 6, id_end - id_at - 6);
        if (kind == 'b')
            ++begins[id];
        else if (kind == 'e')
            ++ends[id];
    }
    ASSERT_GT(events, 0u);
    EXPECT_TRUE(monotonic);
    ASSERT_FALSE(begins.empty());

    for (const auto &[id, n] : ends) {
        EXPECT_EQ(n, 1) << "duplicate terminal event for id " << id;
        EXPECT_EQ(begins.count(id), 1u)
            << "terminal event without open for id " << id;
    }
    size_t unterminated = 0;
    for (const auto &[id, n] : begins) {
        if (ends.count(id) == 0)
            ++unterminated;
    }
    // In-flight DRAM requests and open fetch-stall windows at
    // run-end may legitimately stay open; anything more than a
    // handful means lost terminal events.
    EXPECT_LE(unterminated, 64u);
}

TEST(Observability, BaselineRunsDoNotClobberMixArtifacts)
{
    // runMix() executes the mix first, then the per-app alone
    // baselines for the weighted speedup.  The artifacts on disk
    // afterwards must describe the 2-thread mix, not a 1-thread
    // baseline.
    TempPaths tmp;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.statsJsonPath = tmp.json;
    ExperimentContext ctx(3000, 1000, 42);
    const MixRun mix = ctx.runMix(config, mixByName("2-MEM"));
    EXPECT_GT(mix.weightedSpeedup, 0.0);

    const std::string doc = slurp(tmp.json);
    ASSERT_FALSE(doc.empty());
    EXPECT_NE(doc.find("\"threads\":\"2\""), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t1.committed\":"), std::string::npos);
}

TEST(Observability, MixRunCarriesLatencyPercentiles)
{
    ExperimentContext ctx(3000, 1000, 42);
    const MixRun mix = ctx.runMix(SystemConfig::paperDefault(2),
                                  mixByName("2-MEM"));
    EXPECT_GT(mix.readLatencyP50, 0u);
    EXPECT_GE(mix.readLatencyP99, mix.readLatencyP50);
}

} // namespace
} // namespace smtdram
