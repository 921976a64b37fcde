/**
 * @file
 * Shared helpers for the figure/table reproduction benches: common
 * flags, result tables, and uniform headers so every bench prints
 * the paper rows the same way.
 */

#ifndef SMTDRAM_BENCH_BENCH_UTIL_HH
#define SMTDRAM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"

namespace smtdram::bench
{

/** Declare the flags every reproduction bench shares. */
inline void
declareCommonFlags(Flags &flags)
{
    flags.declare("insts", "40000", "measured instructions per thread");
    flags.declare("warmup", "20000", "warm-up instructions per thread");
    flags.declare("seed", "42", "workload seed");
    flags.declare("mixes", "",
                  "comma-separated subset of Table 2 mixes (default: "
                  "the figure's own set)");
    flags.declare("kernel", "",
                  "simulation kernel: 'cycle' (tick every cycle) or "
                  "'event' (skip to the next pending event); both are "
                  "proven byte-identical, default is the per-cycle "
                  "kernel");
}

/**
 * Apply --kernel by exporting the process-wide SMTDRAM_KERNEL
 * override before the first SmtSystem is built, so every run a bench
 * performs — including the cached alone-IPC baselines — uses the
 * same kernel.  Called from paramsFromFlags, which every simulating
 * bench funnels through.
 */
inline void
applyKernelFlag(const Flags &flags)
{
    const std::string kernel = flags.getString("kernel");
    if (kernel.empty())
        return;
    fatal_if(kernel != "cycle" && kernel != "event",
             "--kernel must be 'cycle' or 'event', got '%s'",
             kernel.c_str());
    setenv("SMTDRAM_KERNEL", kernel.c_str(), /*overwrite=*/1);
}

/**
 * Declare the robustness knobs: fault injection, auto-refresh, and
 * the conservation checker.  Everything defaults to off so bench
 * output reproduces the paper's figures bit-for-bit unless a flag is
 * given.
 */
inline void
declareRobustnessFlags(Flags &flags)
{
    flags.declare("faults", "false",
                  "enable DRAM fault injection (stalls/retries/delays)");
    flags.declare("fault-seed", "1", "fault-injection random seed");
    flags.declare("bus-stall-prob", "0.001",
                  "per-cycle chance a bus-stall window opens");
    flags.declare("bus-stall-cycles", "200",
                  "length of one bus-stall window, cycles");
    flags.declare("read-error-prob", "0.01",
                  "chance a completing read retries (transient error)");
    flags.declare("enqueue-delay-prob", "0.05",
                  "chance an enqueue's eligibility is delayed");
    flags.declare("enqueue-delay-max", "64",
                  "max injected enqueue delay, cycles");
    flags.declare("refresh", "false",
                  "model per-bank auto-refresh (tREFI/tRFC)");
    flags.declare("checker", "false",
                  "enable the DRAM conservation/aging checker");
    flags.declare("ecc", "false",
                  "model SECDED ECC (check-bit transfer overhead, "
                  "patrol scrubbing, correctable/uncorrectable errors)");
    flags.declare("ecc-overhead", "4",
                  "extra data-bus cycles per burst for check bits");
    flags.declare("ecc-correctable-prob", "1e-4",
                  "chance a completing read has a single-bit error");
    flags.declare("ecc-uncorrectable-prob", "1e-6",
                  "chance a completing read has a multi-bit error");
    flags.declare("scrub-interval", "50000",
                  "cycles between patrol-scrub bursts per channel");
    flags.declare("scrub-burst", "1",
                  "scrub reads injected per scrub interval");
}

/**
 * Declare the rowhammer disturbance/mitigation knobs.  All default
 * off; figure output is bit-identical without a flag.
 */
inline void
declareHammerFlags(Flags &flags)
{
    flags.declare("hammer", "false",
                  "enable the rowhammer disturbance model (victim-row "
                  "bit flips under neighbor-activation pressure)");
    flags.declare("hammer-seed", "7", "hammer-flip random seed");
    flags.declare("hammer-threshold", "4096",
                  "neighbor activations per refresh window before a "
                  "victim row starts sampling flips");
    flags.declare("hammer-flip-prob", "0.001",
                  "per-activation flip chance once past the threshold");
    flags.declare("hammer-blast", "1",
                  "blast radius: victim rows affected on each side of "
                  "an aggressor");
    flags.declare("hammer-mitigate", "false",
                  "enable Graphene-style preventive refresh (requires "
                  "--hammer)");
    flags.declare("hammer-tracker-capacity", "16",
                  "Misra-Gries aggressor-table entries per bank");
    flags.declare("hammer-mitigate-threshold", "1024",
                  "tracked activation count that triggers preventive "
                  "refresh of a row's neighbors");
}

/** Apply the hammer flags to @p config's DRAM subsystem. */
inline void
applyHammerFlags(const Flags &flags, SystemConfig &config)
{
    if (flags.getBool("hammer")) {
        config.dram.withHammer(
            static_cast<std::uint64_t>(
                flags.getInt("hammer-threshold")),
            flags.getDouble("hammer-flip-prob"),
            static_cast<std::uint32_t>(flags.getInt("hammer-blast")));
        config.dram.hammer.seed =
            static_cast<std::uint64_t>(flags.getInt("hammer-seed"));
        if (flags.getBool("hammer-mitigate")) {
            config.dram.withHammerMitigation(
                static_cast<std::uint32_t>(
                    flags.getInt("hammer-tracker-capacity")),
                static_cast<std::uint64_t>(
                    flags.getInt("hammer-mitigate-threshold")));
        }
    }
}

/**
 * Declare the DRAM power-management knobs.  Energy metering is always
 * on (and timing-neutral); these flags opt the per-rank low-power
 * state machine in, which does change timing, so everything defaults
 * to off and figure output stays bit-for-bit without a flag.
 */
inline void
declarePowerFlags(Flags &flags)
{
    flags.declare("power", "false",
                  "enable the per-rank low-power state machine "
                  "(powerdown/self-refresh with exit penalties)");
    flags.declare("power-pd-idle", "96",
                  "idle cycles before a rank enters fast-exit "
                  "powerdown");
    flags.declare("power-slow-idle", "1024",
                  "idle cycles before it drops to slow-exit powerdown");
    flags.declare("power-sr-idle", "8192",
                  "idle cycles before it enters self-refresh");
}

/** Apply the power flags to @p config's DRAM subsystem. */
inline void
applyPowerFlags(const Flags &flags, SystemConfig &config)
{
    if (flags.getBool("power")) {
        config.dram.withPowerManagement(
            static_cast<Cycle>(flags.getInt("power-pd-idle")),
            static_cast<Cycle>(flags.getInt("power-slow-idle")),
            static_cast<Cycle>(flags.getInt("power-sr-idle")));
    }
}

/**
 * Declare the observability knobs shared by every bench.  All
 * default off: with no flag given the bench emits nothing extra and
 * its figure output is bit-identical to an uninstrumented build.
 */
inline void
declareObservabilityFlags(Flags &flags)
{
    flags.declare("trace", "",
                  "write a Chrome trace-event / Perfetto JSON of the "
                  "run to this path");
    flags.declare("stats-json", "",
                  "write the schema-versioned stats document to this "
                  "path");
    flags.declare("stats-csv", "",
                  "write the epoch time-series CSV to this path");
    flags.declare("epoch", "0",
                  "cycles between stats time-series samples "
                  "(0 = final snapshot only)");
    flags.declare("quiet", "false",
                  "suppress warn()/inform() chatter on stderr/stdout");
}

/**
 * Build the observability config from the parsed flags and apply the
 * --quiet verbosity side effect.
 */
inline ObservabilityConfig
observabilityFromFlags(const Flags &flags)
{
    ObservabilityConfig o;
    o.tracePath = flags.getString("trace");
    o.statsJsonPath = flags.getString("stats-json");
    o.statsCsvPath = flags.getString("stats-csv");
    o.epoch = static_cast<Cycle>(flags.getInt("epoch"));
    if (flags.getBool("quiet"))
        setLogVerbosity(LogVerbosity::Quiet);
    return o;
}

/**
 * Apply the observability flags.  When a bench runs several
 * configurations, the trace/stats paths are overwritten by each run;
 * the files left behind describe the last mix executed (baseline
 * alone-IPC runs never write — see simulateAloneIpc).
 */
inline void
applyObservabilityFlags(const Flags &flags, SystemConfig &config)
{
    config.observe = observabilityFromFlags(flags);
}

/** Apply the robustness flags to @p config's DRAM subsystem. */
inline void
applyRobustnessFlags(const Flags &flags, SystemConfig &config)
{
    if (flags.getBool("refresh"))
        config.dram.withRefresh();
    config.dram.checkerEnabled = flags.getBool("checker");
    if (flags.getBool("faults")) {
        FaultConfig &f = config.dram.faults;
        f.enabled = true;
        f.seed = static_cast<std::uint64_t>(flags.getInt("fault-seed"));
        f.busStallProbability = flags.getDouble("bus-stall-prob");
        f.busStallCycles =
            static_cast<Cycle>(flags.getInt("bus-stall-cycles"));
        f.readErrorProbability = flags.getDouble("read-error-prob");
        f.enqueueDelayProbability =
            flags.getDouble("enqueue-delay-prob");
        f.enqueueDelayMax =
            static_cast<Cycle>(flags.getInt("enqueue-delay-max"));
    }
    if (flags.getBool("ecc")) {
        EccConfig &e = config.dram.ecc;
        e.enabled = true;
        e.checkOverheadCycles =
            static_cast<Cycle>(flags.getInt("ecc-overhead"));
        e.correctableProbability =
            flags.getDouble("ecc-correctable-prob");
        e.uncorrectableProbability =
            flags.getDouble("ecc-uncorrectable-prob");
        e.scrubInterval =
            static_cast<Cycle>(flags.getInt("scrub-interval"));
        e.scrubBurst =
            static_cast<std::uint32_t>(flags.getInt("scrub-burst"));
    }
}

/**
 * Declare the parallel-execution flags shared by every sweep bench.
 * --jobs 0 (the default) means "one worker per hardware thread";
 * --jobs 1 runs every job serially.  Results are byte-identical
 * for every value — see ParallelExperimentRunner.
 */
inline void
declareParallelFlags(Flags &flags)
{
    flags.declare("jobs", "0",
                  "worker threads for the sweep (0 = one per hardware "
                  "thread, 1 = serial)");
    flags.declare("bench-json", "",
                  "write serial-vs-parallel wall-clock timings of the "
                  "sweep as JSON to this path");
}

/** Worker count from --jobs, resolving 0 to hardware concurrency. */
inline unsigned
jobsFromFlags(const Flags &flags)
{
    const std::int64_t v = flags.getInt("jobs");
    fatal_if(v < 0, "--jobs must be >= 0");
    return v == 0 ? ThreadPool::defaultWorkers()
                  : static_cast<unsigned>(v);
}

/** Instruction budgets and seed from the parsed common flags. */
inline ExperimentParams
paramsFromFlags(const Flags &flags)
{
    applyKernelFlag(flags);
    ExperimentParams p;
    p.measureInsts = static_cast<std::uint64_t>(flags.getInt("insts"));
    p.warmupInsts = static_cast<std::uint64_t>(flags.getInt("warmup"));
    p.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    return p;
}

/** Build the sweep runner from the common + parallel flags. */
inline ParallelExperimentRunner
runnerFromFlags(const Flags &flags)
{
    return ParallelExperimentRunner(paramsFromFlags(flags),
                                    jobsFromFlags(flags));
}

/**
 * Write the --bench-json throughput document: wall-clock seconds for
 * the same sweep executed serially and with @p jobs workers.
 */
inline void
writeThroughputJson(const std::string &path, const std::string &bench,
                    unsigned jobs, std::size_t simulations,
                    double serial_seconds, double parallel_seconds)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write --bench-json file '%s'", path.c_str());
        return;
    }
    const double speedup =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"smtdram-bench-throughput\",\n"
                 "  \"version\": 1,\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"jobs\": %u,\n"
                 "  \"simulations\": %zu,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"parallel_seconds\": %.6f,\n"
                 "  \"speedup\": %.3f\n"
                 "}\n",
                 bench.c_str(), jobs, simulations, serial_seconds,
                 parallel_seconds, speedup);
    std::fclose(f);
}

/** The figure's workload set, optionally overridden by --mixes. */
inline std::vector<std::string>
mixesFromFlags(const Flags &flags,
               const std::vector<std::string> &default_mixes)
{
    const std::string csv = flags.getString("mixes");
    if (csv.empty())
        return default_mixes;
    return splitList(csv);
}

/** Print the standard bench banner. */
inline void
banner(const std::string &figure, const std::string &what,
       const std::string &paper_claim)
{
    std::printf("== %s: %s ==\n", figure.c_str(), what.c_str());
    std::printf("paper: %s\n\n", paper_claim.c_str());
}

/**
 * One incremental progress line on stdout, suppressed by --quiet.
 * Benches must route per-epoch/per-run chatter through here rather
 * than a bare printf, so --quiet output is exactly the result tables
 * (an audit of current benches found none printing unconditionally;
 * this helper keeps it that way).
 */
template <typename... Args>
inline void
progress(const char *fmt, Args... args)
{
    if (logVerbosity() == LogVerbosity::Quiet)
        return;
    std::printf(fmt, args...);
    std::printf("\n");
    std::fflush(stdout);
}

/** Row-major results table printed with workloads as rows. */
class ResultTable
{
  public:
    explicit ResultTable(std::vector<std::string> column_names)
        : columns_(std::move(column_names))
    {
    }

    void
    addRow(const std::string &name, std::vector<double> values)
    {
        rows_.push_back({name, std::move(values)});
    }

    /** Print with a printf format for each value, e.g. "%8.3f". */
    void
    print(const char *value_fmt = "%10.3f") const
    {
        std::printf("%-10s", "workload");
        for (const auto &c : columns_)
            std::printf("  %13s", c.c_str());
        std::printf("\n");
        for (const auto &row : rows_) {
            std::printf("%-10s", row.name.c_str());
            for (double v : row.values) {
                char cell[64];
                std::snprintf(cell, sizeof(cell), value_fmt, v);
                std::printf("  %13s", cell);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    const std::vector<std::string> &columns() const { return columns_; }

  private:
    struct Row {
        std::string name;
        std::vector<double> values;
    };

    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/** All nine Table 2 mixes. */
inline std::vector<std::string>
allMixNames()
{
    std::vector<std::string> names;
    for (const auto &m : table2Mixes())
        names.push_back(m.name);
    return names;
}

/** The MEM and MIX mixes (memory-sensitive figures skip ILP). */
inline std::vector<std::string>
memAndMixNames()
{
    return {"2-MIX", "2-MEM", "4-MIX", "4-MEM", "8-MIX", "8-MEM"};
}

} // namespace smtdram::bench

#endif // SMTDRAM_BENCH_BENCH_UTIL_HH
