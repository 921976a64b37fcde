/**
 * @file
 * Figure 13 (beyond the paper): latency blame breakdown and
 * inter-thread interference under every scheduling policy.
 *
 * The source paper compares schedulers end-to-end (fig10) but never
 * shows *where* a read's latency goes or *which* thread caused it.
 * This bench decomposes mean demand-read latency into the eleven
 * conservation-checked blame components (see src/dram/blame.hh) for
 * all seven schedulers across 1/2/4-thread memory-bound mixes, and
 * optionally emits the who-stalled-whom interference matrix as CSV.
 *
 * The per-component shares always sum to 100%: the attribution engine
 * guarantees sum(blame) == readLatencyHist.sum() exactly, which this
 * bench re-verifies per run.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"

using namespace smtdram;
using namespace smtdram::bench;

namespace
{

/** Fixed CSV width: the widest default mix has four threads. */
constexpr std::uint32_t kCsvThreadCols = 4;

/** Everything fig13 reports about one mix x scheduler cell. */
struct BlameCell {
    LatencyBlame blame;
    double latencySum = 0.0;
    InterferenceMatrix interference;
    std::uint32_t threads = 0;
};

/** One full sweep's results plus the work it actually did. */
struct SweepResult {
    std::vector<std::vector<BlameCell>> cells;  ///< [mix][scheduler]
    std::size_t simulations = 0;
};

/**
 * Table 2 starts at two threads; fig13's single-thread anchor runs
 * mcf alone, where every queueing cycle is self-inflicted (the matrix
 * row has only self and system columns populated).
 */
const WorkloadMix &
mixFor(const std::string &name)
{
    static const WorkloadMix kOneMem{"1-MEM", {"mcf"}};
    if (name == kOneMem.name)
        return kOneMem;
    return mixByName(name);
}

SweepResult
runSweep(const Flags &flags, const std::vector<std::string> &mixes,
         unsigned jobs)
{
    ParallelExperimentRunner runner(paramsFromFlags(flags), jobs);

    std::vector<std::vector<std::size_t>> ids;
    for (const std::string &mix_name : mixes) {
        const WorkloadMix &mix = mixFor(mix_name);
        const auto threads =
            static_cast<std::uint32_t>(mix.apps.size());

        ids.emplace_back();
        for (SchedulerKind scheduler : allSchedulerKindsExtended()) {
            SystemConfig config = SystemConfig::paperDefault(threads);
            config.scheduler = scheduler;
            applyRobustnessFlags(flags, config);
            applyPowerFlags(flags, config);
            applyHammerFlags(flags, config);
            applyObservabilityFlags(flags, config);
            ids.back().push_back(runner.submitMix(config, mix));
        }
    }
    runner.run();

    SweepResult out;
    for (std::size_t m = 0; m < ids.size(); ++m) {
        out.cells.emplace_back();
        for (std::size_t id : ids[m]) {
            const ControllerStats &dram =
                runner.mixResult(id).run.dram;
            BlameCell cell;
            cell.blame = dram.blameTotals;
            cell.latencySum =
                static_cast<double>(dram.readLatencyHist.sum());
            cell.interference = dram.interference;
            cell.threads = static_cast<std::uint32_t>(
                mixFor(mixes[m]).apps.size());
            fatal_if(static_cast<double>(cell.blame.sum()) !=
                         cell.latencySum,
                     "blame does not reconcile with read latency for "
                     "%s (sum %llu vs %.0f)",
                     mixes[m].c_str(),
                     (unsigned long long)cell.blame.sum(),
                     cell.latencySum);
            out.cells.back().push_back(std::move(cell));
        }
        progress("fig13: %s done (%zu schedulers)", mixes[m].c_str(),
                 ids[m].size());
    }
    out.simulations = runner.submitted() + runner.baselineSimulations();
    return out;
}

/** mix,scheduler,blocked,system,t0..t3,total — one row per thread. */
void
writeMatrixCsv(const std::string &path,
               const std::vector<std::string> &mixes,
               const SweepResult &result)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write --matrix-csv file '%s'", path.c_str());
        return;
    }
    std::fprintf(f, "mix,scheduler,blocked_thread,system");
    for (std::uint32_t j = 0; j < kCsvThreadCols; ++j)
        std::fprintf(f, ",t%u", j);
    std::fprintf(f, ",total\n");
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto &kinds = allSchedulerKindsExtended();
        for (std::size_t s = 0; s < kinds.size(); ++s) {
            const BlameCell &cell = result.cells[m][s];
            for (std::uint32_t i = 0; i < cell.threads; ++i) {
                const auto blocked = static_cast<ThreadId>(i);
                std::fprintf(f, "%s,%s,%u,%llu", mixes[m].c_str(),
                             schedulerName(kinds[s]).c_str(), i,
                             (unsigned long long)cell.interference.at(
                                 blocked, kThreadNone));
                for (std::uint32_t j = 0; j < kCsvThreadCols; ++j) {
                    std::fprintf(
                        f, ",%llu",
                        (unsigned long long)cell.interference.at(
                            blocked, static_cast<ThreadId>(j)));
                }
                std::fprintf(f, ",%llu\n",
                             (unsigned long long)
                                 cell.interference.rowSum(blocked));
            }
        }
    }
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    declarePowerFlags(flags);
    declareHammerFlags(flags);
    declareRobustnessFlags(flags);
    declareObservabilityFlags(flags);
    declareParallelFlags(flags);
    flags.declare("matrix-csv", "",
                  "write the inter-thread interference matrix "
                  "(cycles thread i lost to thread j) as CSV to this "
                  "path");
    flags.parse(argc, argv,
                "Figure 13: demand-read latency blame breakdown per "
                "scheduler (enable --refresh/--ecc/--faults/--power/"
                "--hammer to see their components claim cycles)");

    const auto mixes =
        mixesFromFlags(flags, {"1-MEM", "2-MEM", "4-MEM"});
    const unsigned jobs = jobsFromFlags(flags);
    const std::string bench_json = flags.getString("bench-json");
    const std::string matrix_csv = flags.getString("matrix-csv");

    banner("Figure 13",
           "share of demand-read latency per blame component (%), by "
           "scheduler",
           "beyond the paper: queueing dominates memory-bound mixes "
           "and grows with thread count; thread-aware schedulers "
           "shift cycles between queueing and scheduler-deferral "
           "rather than shrinking intrinsic cost");

    SweepResult result;
    if (!bench_json.empty()) {
        // Same double-sweep protocol as fig10: serial then parallel,
        // wall-clock ratio lands in the JSON, output is from the last
        // (byte-identical) sweep.
        using clock = std::chrono::steady_clock;
        const auto s0 = clock::now();
        result = runSweep(flags, mixes, 1);
        const auto s1 = clock::now();
        result = runSweep(flags, mixes, jobs);
        const auto s2 = clock::now();
        const std::chrono::duration<double> serial = s1 - s0;
        const std::chrono::duration<double> parallel = s2 - s1;
        writeThroughputJson(bench_json, "fig13_blame", jobs,
                            result.simulations, serial.count(),
                            parallel.count());
    } else {
        result = runSweep(flags, mixes, jobs);
    }

    std::vector<std::string> cols;
    for (std::size_t c = 0; c < kNumBlameComponents; ++c)
        cols.push_back(blameComponentName(static_cast<BlameComponent>(c)));

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::printf("-- %s --\n", mixes[m].c_str());
        ResultTable table(cols);
        const auto &kinds = allSchedulerKindsExtended();
        for (std::size_t s = 0; s < kinds.size(); ++s) {
            const BlameCell &cell = result.cells[m][s];
            std::vector<double> shares;
            for (std::uint64_t v : cell.blame.cycles) {
                shares.push_back(cell.latencySum > 0.0
                                     ? 100.0 * v / cell.latencySum
                                     : 0.0);
            }
            table.addRow(schedulerName(kinds[s]), shares);
        }
        table.print("%10.2f");
    }

    if (!matrix_csv.empty())
        writeMatrixCsv(matrix_csv, mixes, result);
    return 0;
}
