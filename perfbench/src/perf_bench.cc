/**
 * @file
 * The simulator's end-to-end and per-layer benchmark.
 *
 *   perf_bench --workload mem4_sched|ilp4_fetch|numa2_place
 *              --seed N --seconds S --trace 0|1 [--trace-out PATH]
 *              [--insts N --warmup N]
 *   perf_bench --selftest
 *
 * A workload is a figure sweep run through ParallelExperimentRunner
 * under four workload seeds drawn from --seed.  --trace 0 repeats it
 * until S seconds have passed and reports host-side end-to-end metrics
 * (medians over the repeats).  --trace 1 runs it once through the
 * runner, once simulation by simulation, once through the traced
 * driver (traced_machine.hh), and reports per-layer metrics.  Both
 * check the simulated results (see README.md) and print one
 * fingerprint line per simulation before the final JSON line.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu/fetch_policy.hh"
#include "host.hh"
#include "layer_profile.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/smt_system.hh"
#include "topology/numa_system.hh"
#include "traced_machine.hh"
#include "workload/spec2000.hh"

using namespace smtdram;
using namespace perfbench;

namespace
{

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One mix simulation of a sweep. */
struct Cell {
    std::string label;
    SystemConfig config;
    WorkloadMix mix;
};

/** A figure sweep: its cells and its runner's worker count. */
struct Workload {
    std::string name;
    std::vector<Cell> cells;
    unsigned jobs = 1;
};

/** One simulation the sweep performs: a mix cell or an alone run. */
struct Job {
    std::string label;
    SystemConfig config;
    WorkloadMix mix;
    bool baseline = false;
};

KernelMode
otherKernel(KernelMode k)
{
    return k == KernelMode::PerCycle ? KernelMode::EventDriven
                                     : KernelMode::PerCycle;
}

Workload
makeWorkload(const std::string &name, unsigned parallel_jobs)
{
    Workload w;
    w.name = name;
    if (name == "mem4_sched") {
        // Fig 10 on 4-MEM: DRAM scheduling under pointer-chasing
        // reads (mcf, ammp) beside streaming writebacks (swim, lucas).
        const WorkloadMix &mix = mixByName("4-MEM");
        for (SchedulerKind k : allSchedulerKindsExtended()) {
            SystemConfig c = SystemConfig::paperDefault(4);
            c.scheduler = k;
            w.cells.push_back({"4-MEM/" + schedulerName(k), c, mix});
        }
    } else if (name == "ilp4_fetch") {
        // Fig 2 on 4-ILP: core front end and workload generation;
        // DRAM nearly idle.
        const WorkloadMix &mix = mixByName("4-ILP");
        for (FetchPolicyKind k : allFetchPolicyKinds()) {
            SystemConfig c = SystemConfig::paperDefault(4);
            c.core.fetchPolicy = k;
            w.cells.push_back(
                {"4-ILP/" + std::string(fetchPolicyName(k)), c, mix});
        }
    } else if (name == "numa2_place") {
        // Fig 14 defaults: 2 sockets x 1 core x 2 SMT ways, every page
        // homed on socket 0, on the event-driven kernel, in parallel.
        const std::vector<WorkloadMix> mixes = {
            {"n4-MIX", {"mcf", "equake", "gzip", "bzip2"}},
            {"n4-MEM", {"mcf", "ammp", "equake", "swim"}},
        };
        for (const WorkloadMix &mix : mixes) {
            for (PlacementPolicy p :
                 {PlacementPolicy::Packed, PlacementPolicy::RoundRobin,
                  PlacementPolicy::MemoryAware}) {
                SystemConfig c = SystemConfig::paperDefault(4);
                c.kernel = KernelMode::EventDriven;
                c.topology.enabled = true;
                c.topology.sockets = 2;
                c.topology.coresPerSocket = 1;
                c.topology.smtWays = 2;
                c.topology.placement = p;
                c.topology.home = HomePolicy::Loader;
                c.topology.hopLatency = 40;
                c.topology.linkOccupancy = 4;
                w.cells.push_back(
                    {mix.name + "/" + placementPolicyName(p), c, mix});
            }
        }
        w.jobs = parallel_jobs;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

/**
 * Every simulation of the sweep: the cells, then one alone-IPC
 * baseline per distinct app on the runner's reference machine
 * (SystemConfig::paperDefault(1)), built the way simulateAloneIpc
 * builds it.
 */
std::vector<Job>
jobsOf(const Workload &w)
{
    std::vector<Job> jobs;
    std::set<std::string> seen;
    std::vector<std::string> apps;
    for (const Cell &c : w.cells) {
        jobs.push_back({c.label, c.config, c.mix, false});
        for (const std::string &a : c.mix.apps) {
            if (seen.insert(a).second)
                apps.push_back(a);
        }
    }
    for (const std::string &a : apps) {
        jobs.push_back({"alone/" + a, SystemConfig::paperDefault(1),
                        WorkloadMix{"alone", {a}}, true});
    }
    return jobs;
}

// ---------------------------------------------------------------------
// Running and checking simulations
// ---------------------------------------------------------------------

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

RunResult
runJob(const Job &job, const ExperimentParams &p, KernelMode kernel)
{
    SystemConfig c = job.config;
    c.kernel = kernel;
    return runSystem(c, profilesForMix(job.mix), p.seed, p.measureInsts,
                     p.warmupInsts);
}

/** A simulation that finished sanely (not yet compared to others). */
bool
sane(const Fingerprint &f, const ExperimentParams &p)
{
    if (f.measuredCycles == 0 || f.ipc.size() != f.committed.size())
        return false;
    for (std::size_t t = 0; t < f.ipc.size(); ++t) {
        if (f.committed[t] < p.measureInsts || !std::isfinite(f.ipc[t]) ||
            f.ipc[t] <= 0.0)
            return false;
    }
    return true;
}

/** Result checks made, and failed, in this process. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one check of one simulation's result. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perf_bench: check failed: %s\n",
                         what.c_str());
        }
    }
};

/** Results of one pass of the sweep through the runner. */
struct SweepPass {
    double wallS = 0.0;
    std::vector<Fingerprint> cells;
    std::vector<double> ws;
    std::size_t submitted = 0;
    std::size_t baselineSims = 0;
};

/** The sweep through the runner with @p jobs workers. */
SweepPass
runSweep(const Workload &w, const ExperimentParams &p, unsigned jobs)
{
    ParallelExperimentRunner runner(p, jobs);
    std::vector<std::size_t> ids;
    for (const Cell &c : w.cells)
        ids.push_back(runner.submitMix(c.config, c.mix));
    const std::int64_t t0 = nowNs();
    runner.run();
    SweepPass out;
    out.wallS = seconds(nowNs() - t0);
    for (std::size_t id : ids) {
        const MixRun &m = runner.mixResult(id);
        out.cells.push_back(fingerprintOf(m.run));
        out.ws.push_back(m.weightedSpeedup);
    }
    out.submitted = runner.submitted();
    out.baselineSims = runner.baselineSimulations();
    return out;
}

/**
 * The sweep under every workload seed; @p wall_s gets their host wall
 * time.  A parallel sweep already occupies every core, so those run
 * one after another.  Serial sweeps (one runner worker each) run side
 * by side, one thread per seed pinned to its own physical core.
 */
std::vector<SweepPass>
runSweeps(const Workload &w, const std::vector<ExperimentParams> &seeds,
          const std::vector<int> &cores, double &wall_s)
{
    std::vector<SweepPass> out(seeds.size());
    const std::int64_t t0 = nowNs();
    if (w.jobs > 1 || cores.empty()) {
        for (std::size_t k = 0; k < seeds.size(); ++k)
            out[k] = runSweep(w, seeds[k], w.jobs);
    } else {
        std::vector<std::exception_ptr> errors(seeds.size());
        {
            std::vector<std::jthread> threads;
            for (std::size_t k = 0; k < seeds.size(); ++k) {
                threads.emplace_back([&, k] {
                    pinTo({cores[k % cores.size()]});
                    try {
                        out[k] = runSweep(w, seeds[k], 1);
                    } catch (...) {
                        errors[k] = std::current_exception();
                    }
                });
            }
        }  // jthreads join here, on every path
        for (const std::exception_ptr &e : errors) {
            if (e)
                std::rethrow_exception(e);
        }
    }
    wall_s = seconds(nowNs() - t0);
    return out;
}

/** Host seconds to construct (and pre-warm) every machine of @p jobs. */
double
timeConstruction(const std::vector<Job> &jobs, const ExperimentParams &p)
{
    std::int64_t total = 0;
    for (const Job &job : jobs) {
        const std::vector<AppProfile> apps = profilesForMix(job.mix);
        const std::int64_t t0 = nowNs();
        if (job.config.topology.active()) {
            NumaSystem machine(job.config, apps, p.seed);
            total += nowNs() - t0;
        } else {
            SmtSystem machine(job.config, apps, p.seed);
            total += nowNs() - t0;
        }
    }
    return seconds(total);
}

/** Weighted speedup of cell @p c from per-app alone IPCs. */
double
weightedSpeedup(const Cell &c, const Fingerprint &f,
                const std::map<std::string, double> &alone)
{
    // Same summation order as ParallelExperimentRunner::runMixJob.
    double ws = 0.0;
    for (std::size_t i = 0; i < c.mix.apps.size(); ++i)
        ws += f.ipc[i] / alone.at(c.mix.apps[i]);
    return ws;
}

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Print the fingerprint lines and their FNV-1a hash. */
void
printFingerprints(const Workload &w, const ExperimentParams &p,
                  const std::vector<Job> &jobs,
                  const std::vector<Fingerprint> &fps,
                  const std::vector<double> &ws)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string line = jobs[i].label + " " + fps[i].str();
        if (i < ws.size())
            line += " ws=" + formatDouble(ws[i]);
        for (unsigned char ch : line) {
            hash ^= ch;
            hash *= 1099511628211ULL;
        }
        std::printf("fingerprint %s seed=%llu %s\n", w.name.c_str(),
                    (unsigned long long)p.seed, line.c_str());
    }
    std::printf("fingerprint_hash %s seed=%llu %016llx\n",
                w.name.c_str(), (unsigned long long)p.seed,
                (unsigned long long)hash);
}

// ---------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += tally.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(tally.attempted);
    s += ", \"failed\": " + std::to_string(tally.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             formatDouble(v) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

int
runEndToEnd(const Workload &w, const std::vector<ExperimentParams> &seeds,
            const std::vector<int> &cores, std::uint64_t seed,
            double budget_s)
{
    const std::vector<Job> jobs = jobsOf(w);
    const std::size_t n_cells = w.cells.size();
    Tally tally;

    // One repeat: set-up timing, then the sweep under every seed.
    std::vector<double> setup, wall;
    std::vector<SweepPass> first;
    const std::int64_t start = nowNs();
    do {
        double setup_s = 0.0, wall_s = 0.0;
        for (const ExperimentParams &p : seeds)
            setup_s += timeConstruction(jobs, p);
        const bool is_first = first.empty();
        std::vector<SweepPass> passes = runSweeps(w, seeds, cores, wall_s);
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            SweepPass &pass = passes[k];
            for (std::size_t i = 0; i < n_cells; ++i) {
                const bool ok =
                    sane(pass.cells[i], seeds[k]) &&
                    std::isfinite(pass.ws[i]) && pass.ws[i] > 0 &&
                    (is_first || (pass.cells[i] == first[k].cells[i] &&
                                  pass.ws[i] == first[k].ws[i]));
                tally.check(ok, w.cells[i].label + " repeat " +
                                    std::to_string(wall.size() + 1));
            }
            if (is_first)
                first.push_back(std::move(pass));
        }
        setup.push_back(setup_s);
        wall.push_back(wall_s);
        std::fprintf(stderr, "perf_bench: repeat %zu: set-up %.4f s, "
                             "sweep %.4f s\n",
                     wall.size(), setup_s, wall_s);
    } while (seconds(nowNs() - start) < budget_s);

    // Untimed checks.  Baselines run directly on both kernels must
    // agree, and must reproduce every weighted speedup of the sweep,
    // which checks the baselines the runner simulated.
    double sweep_cycles = 0.0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
        const ExperimentParams &p = seeds[k];
        std::map<std::string, double> alone;
        std::vector<Fingerprint> fps(first[k].cells);
        for (std::size_t j = n_cells; j < jobs.size(); ++j) {
            const Fingerprint f =
                fingerprintOf(runJob(jobs[j], p, jobs[j].config.kernel));
            const Fingerprint g = fingerprintOf(
                runJob(jobs[j], p, otherKernel(jobs[j].config.kernel)));
            tally.check(sane(f, p), jobs[j].label);
            tally.check(f == g, jobs[j].label + " other kernel");
            alone[jobs[j].mix.apps[0]] = f.ipc[0];
            fps.push_back(f);
        }
        for (std::size_t i = 0; i < n_cells; ++i) {
            tally.check(weightedSpeedup(w.cells[i], first[k].cells[i],
                                        alone) == first[k].ws[i],
                        w.cells[i].label + " weighted speedup");
        }
        // Simulated cycles of the sweep: its cells plus the baselines
        // the runner simulated alongside them.
        for (const Fingerprint &f : fps)
            sweep_cycles += static_cast<double>(f.measuredCycles);
        printFingerprints(w, p, jobs, fps, first[k].ws);
    }
    // Dual-kernel identity on one cell, chosen by seed so that runs
    // over many seeds cover them all; the traced run checks every cell.
    const std::size_t pick = seed % (seeds.size() * n_cells);
    const std::size_t k = pick / n_cells, i = pick % n_cells;
    tally.check(fingerprintOf(runJob(jobs[i], seeds[k],
                                     otherKernel(jobs[i].config.kernel))) ==
                    first[k].cells[i],
                w.cells[i].label + " other kernel");

    std::fprintf(stderr,
                 "perf_bench: %s: %zu timed repeats of %zu simulations "
                 "x %zu seeds\n",
                 w.name.c_str(), wall.size(), jobs.size(), seeds.size());
    const double ok = 1.0 - ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted));
    printResult(tally, {
                           {"sim_cycles_per_s", sweep_cycles / median(wall),
                            "1/s"},
                           {"wall_s", median(wall), "s"},
                           {"setup_s", median(setup), "s"},
                           {"peak_rss_mb", peakRssMb(), "MiB"},
                           {"sim_ok_frac", ok, "ratio"},
                       });
    return 0;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

/** DRAM and topology model counters summed over RunResults. */
struct ModelCounts {
    ControllerStats dram;
    double channelCycles = 0.0;
    NumaStats numa;

    void
    add(const RunResult &r, const SystemConfig &c)
    {
        dram.reads += r.dram.reads;
        dram.writes += r.dram.writes;
        dram.rowHits += r.dram.rowHits;
        dram.rowEmpty += r.dram.rowEmpty;
        dram.rowConflicts += r.dram.rowConflicts;
        dram.busBusyCycles += r.dram.busBusyCycles;
        dram.readLatencyHist.merge(r.dram.readLatencyHist);
        dram.blameTotals.merge(r.dram.blameTotals);
        const double sockets =
            c.topology.active() ? c.topology.sockets : 1.0;
        channelCycles += sockets * c.dram.logicalChannels() *
                         static_cast<double>(r.measuredCycles);
        numa.remoteReads += r.numa.remoteReads;
        numa.localReads += r.numa.localReads;
        numa.linkTransfers += r.numa.linkTransfers;
        numa.linkQueueCycles += r.numa.linkQueueCycles;
        numa.migrations += r.numa.migrations;
    }
};

int
runTraced(const Workload &w, const std::vector<ExperimentParams> &seeds,
          const std::vector<int> &cores, const std::string &trace_out)
{
    const std::vector<Job> jobs = jobsOf(w);
    const std::size_t n_cells = w.cells.size();
    const std::size_t n_seeds = seeds.size();
    const bool driver = !w.cells[0].config.topology.active();
    Tally tally;

    // A: the sweeps through the runner, as the untraced run times them.
    double sweep_s = 0.0;
    std::vector<SweepPass> sweep;
    {
        CoarseTimer t("runner sweeps", "runner");
        sweep = runSweeps(w, seeds, cores, sweep_s);
    }
    std::size_t runner_sims = 0, baseline_sims = 0;
    for (const SweepPass &pass : sweep) {
        runner_sims += pass.submitted + pass.baselineSims;
        baseline_sims += pass.baselineSims;
    }
    // Workers busy during A: the runner's pool, or one thread per seed.
    const double workers =
        w.jobs > 1 || cores.empty()
            ? w.jobs
            : static_cast<double>(std::min(seeds.size(), cores.size()));
    // B: each job alone, untraced, on its own kernel: the SmtSystem /
    // NumaSystem reference fingerprints and the per-job host seconds.
    std::vector<std::vector<Fingerprint>> ref(n_seeds);
    ModelCounts mc;
    double jobs_s = 0.0;
    for (std::size_t k = 0; k < n_seeds; ++k) {
        std::map<std::string, double> alone;
        for (const Job &job : jobs) {
            const std::int64_t t0 = nowNs();
            RunResult r;
            {
                CoarseTimer t("job " + job.label, "runner");
                r = runJob(job, seeds[k], job.config.kernel);
            }
            jobs_s += seconds(nowNs() - t0);
            mc.add(r, job.config);
            ref[k].push_back(fingerprintOf(r));
            if (job.baseline)
                alone[job.mix.apps[0]] = ref[k].back().ipc[0];
        }
        for (std::size_t i = 0; i < n_cells; ++i) {
            tally.check(sane(ref[k][i], seeds[k]) &&
                            ref[k][i] == sweep[k].cells[i],
                        w.cells[i].label + " runner vs direct");
            tally.check(weightedSpeedup(w.cells[i], ref[k][i], alone) ==
                            sweep[k].ws[i],
                        w.cells[i].label + " weighted speedup");
        }
    }

    // Untraced reference for the trace-overhead ratio: for the driver,
    // the same simulations run directly (B); for the parallel sweep,
    // the runner again with one worker.
    double untraced_s = jobs_s;
    double traced_s = jobs_s;
    DriverCounts counts;
    LayerTotals layers{};
    if (driver) {
        // C: every job through the traced driver.
        const std::int64_t t0 = nowNs();
        for (std::size_t k = 0; k < n_seeds; ++k) {
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                CoarseTimer t("traced " + jobs[j].label, "sim");
                TracedMachine m(jobs[j].config, profilesForMix(jobs[j].mix),
                                seeds[k].seed);
                const Fingerprint f = m.run(seeds[k].measureInsts,
                                            seeds[k].warmupInsts, counts);
                tally.check(f == ref[k][j],
                            jobs[j].label + " driver vs SmtSystem");
            }
        }
        traced_s = seconds(nowNs() - t0);
        layers = g_layers;  // before step D adds its own spans
    } else {
        untraced_s = 0.0;
        for (const ExperimentParams &p : seeds) {
            CoarseTimer t("runner sweep (jobs=1)", "runner");
            untraced_s += runSweep(w, p, 1).wallS;
        }
    }
    // D: dual-kernel identity, untimed.
    for (std::size_t k = 0; k < n_seeds; ++k) {
        const ExperimentParams &p = seeds[k];
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const KernelMode other = otherKernel(jobs[j].config.kernel);
            Fingerprint f;
            CoarseTimer t("other kernel " + jobs[j].label, "sim");
            if (driver) {
                SystemConfig c = jobs[j].config;
                c.kernel = other;
                DriverCounts scratch;
                TracedMachine m(c, profilesForMix(jobs[j].mix), p.seed);
                f = m.run(p.measureInsts, p.warmupInsts, scratch);
            } else {
                f = fingerprintOf(runJob(jobs[j], p, other));
            }
            tally.check(f == ref[k][j], jobs[j].label + " other kernel");
        }
        printFingerprints(w, p, jobs, ref[k], sweep[k].ws);
    }

    const LayerTotals &L = layers;
    const DriverCounts &c = counts;
    const double kcycles = static_cast<double>(c.loopCycles) / 1000.0;
    auto ns = [&L](Layer l) { return static_cast<double>(L.selfNs(l)); };
    auto allocs = [&L, kcycles](std::initializer_list<Layer> ls) {
        double n = 0;
        for (Layer l : ls)
            n += static_cast<double>(L.allocsOf(l));
        return ratio(n, kcycles);
    };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const ControllerStats &dr = mc.dram;
    const double blame = d(dr.blameTotals.sum());
    const double row_total = d(dr.rowHits + dr.rowEmpty + dr.rowConflicts);
    const bool has_lat = dr.readLatencyHist.total() > 0;

    std::vector<Metric> m = {
        {"workload.next_ns", ns(Layer::Workload), "ns"},
        {"workload.ops", d(c.workloadOps), "count"},
        {"workload.allocs", allocs({Layer::Workload}), "allocs/kcycle"},
        {"cpu.self_ns", ns(Layer::Cpu), "ns"},
        {"cpu.committed_insts", d(c.committed), "count"},
        {"cpu.fetched_insts", d(c.fetched), "count"},
        {"cpu.wasted_fetch_frac",
         c.fetched ? 1.0 - ratio(d(c.committed), d(c.fetched)) : 0.0,
         "ratio"},
        {"cpu.mispredict_rate", ratio(d(c.mispredicts), d(c.branches)),
         "ratio"},
        {"cpu.int_issue_active_frac",
         ratio(d(c.intIssueActiveCycles), d(c.measuredCycles)), "ratio"},
        {"cpu.allocs", allocs({Layer::Cpu}), "allocs/kcycle"},
        {"cache.tick_ns", ns(Layer::CacheTick), "ns"},
        {"cache.fill_ns", ns(Layer::CacheFill), "ns"},
        {"cache.prewarm_ns", ns(Layer::CachePrewarm), "ns"},
        {"cache.l1d_miss_rate", ratio(d(c.l1dMisses), d(c.l1dAccesses)),
         "ratio"},
        {"cache.l2_miss_rate", ratio(d(c.l2Misses), d(c.l2Accesses)),
         "ratio"},
        {"cache.l3_miss_rate", ratio(d(c.l3Misses), d(c.l3Accesses)),
         "ratio"},
        {"cache.mshr_coalesced", d(c.mshrCoalesced), "count"},
        {"cache.blocked_accesses", d(c.blockedAccesses), "count"},
        {"cache.prefetch_useful_frac",
         ratio(d(c.prefetchesUseful), d(c.prefetchesIssued)), "ratio"},
        {"cache.dram_reads", d(c.dramReadsIssued), "count"},
        {"cache.dram_writes", d(c.dramWritesIssued), "count"},
        {"cache.allocs",
         allocs({Layer::CacheTick, Layer::CacheFill}), "allocs/kcycle"},
        {"dram.tick_ns", ns(Layer::DramTick), "ns"},
        {"dram.port_ns", ns(Layer::DramPort), "ns"},
        {"dram.port_calls", d(c.portCalls), "count"},
        {"dram.port_reject_frac", ratio(d(c.portRejects), d(c.portCalls)),
         "ratio"},
        {"dram.reads", d(dr.reads), "count"},
        {"dram.writes", d(dr.writes), "count"},
        {"dram.row_hit_frac", ratio(d(dr.rowHits), row_total), "ratio"},
        {"dram.bus_busy_frac", ratio(d(dr.busBusyCycles), mc.channelCycles),
         "ratio"},
        {"dram.read_latency_p50",
         has_lat ? dr.readLatencyHist.p50() : 0.0, "cycles"},
        {"dram.read_latency_p99",
         has_lat ? dr.readLatencyHist.p99() : 0.0, "cycles"},
        {"dram.blame.queueing_frac",
         ratio(d(dr.blameTotals[BlameComponent::Queueing]), blame),
         "ratio"},
        {"dram.blame.bank_conflict_frac",
         ratio(d(dr.blameTotals[BlameComponent::BankConflict]), blame),
         "ratio"},
        {"dram.blame.bus_contention_frac",
         ratio(d(dr.blameTotals[BlameComponent::BusContention]), blame),
         "ratio"},
        {"dram.allocs", allocs({Layer::DramTick, Layer::DramPort}),
         "allocs/kcycle"},
        {"topology.remote_read_frac", mc.numa.remoteReadFrac(), "ratio"},
        {"topology.link_transfers", d(mc.numa.linkTransfers), "count"},
        {"topology.link_queue_cycles", d(mc.numa.linkQueueCycles),
         "cycles"},
        {"topology.migrations", d(mc.numa.migrations), "count"},
        {"sim.loop_self_ns", ns(Layer::SimLoop), "ns"},
        {"sim.construct_ns", ns(Layer::SimConstruct), "ns"},
        {"sim.runner.sims", d(runner_sims), "count"},
        {"sim.runner.baseline_sims", d(baseline_sims), "count"},
        {"sim.runner.efficiency", ratio(jobs_s, workers * sweep_s),
         "ratio"},
        {"trace_overhead_frac", ratio(traced_s - untraced_s, untraced_s),
         "ratio"},
    };

    if (driver) {
        std::fprintf(stderr,
                     "perf_bench: cache lookups made inside "
                     "SmtCore::cycle count in cpu.self_ns\n");
    } else {
        std::fprintf(stderr,
                     "perf_bench: %s builds its machines inside "
                     "NumaSystem, so the traced driver's host times and "
                     "workload/cpu/cache/port counters read 0\n",
                     w.name.c_str());
    }
    if (!trace_out.empty() && !writeChromeTrace(trace_out)) {
        std::fprintf(stderr, "perf_bench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }
    printResult(tally, m);
    return 0;
}

// ---------------------------------------------------------------------
// --selftest: the benchmark's own checks at a tiny length
// ---------------------------------------------------------------------

int
runSelftest()
{
    const ExperimentParams p{2000, 1000, 42};
    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    // The traced driver reproduces SmtSystem::run on every scheduler
    // under both kernels.
    const WorkloadMix &mix = mixByName("4-MEM");
    LayerTotals start = g_layers;
    std::int64_t driver_ns = 0;
    for (SchedulerKind k : allSchedulerKindsExtended()) {
        for (KernelMode kernel :
             {KernelMode::PerCycle, KernelMode::EventDriven}) {
            SystemConfig c = SystemConfig::paperDefault(4);
            c.scheduler = k;
            c.kernel = kernel;
            SmtSystem sys(c, profilesForMix(mix), p.seed);
            const Fingerprint want = fingerprintOf(
                sys.run(p.measureInsts, p.warmupInsts));
            DriverCounts counts;
            // Timed from construction to the end of run(); teardown
            // opens no span, so it stays outside the window.
            std::optional<TracedMachine> m;
            const std::int64_t t0 = nowNs();
            m.emplace(c, profilesForMix(mix), p.seed);
            const Fingerprint got =
                m->run(p.measureInsts, p.warmupInsts, counts);
            driver_ns += nowNs() - t0;
            m.reset();
            expect(got == want,
                   "driver == SmtSystem: " + schedulerName(k) + " " +
                       (kernel == KernelMode::PerCycle ? "cycle"
                                                       : "event"));
        }
    }

    // Layer self times (sim.loop_self_ns included) account for the
    // driver's wall time: what is left is the driver's own glue.
    std::int64_t self_sum = 0;
    for (std::size_t l = 1; l < kLayers; ++l) {
        self_sum += g_layers.selfNs(static_cast<Layer>(l)) -
                    start.selfNs(static_cast<Layer>(l));
    }
    const double share = static_cast<double>(self_sum) /
                         static_cast<double>(driver_ns);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "layer self times = %.4f of traced wall time", share);
    expect(share > 0.95 && share <= 1.0 + 1e-9, buf);
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

constexpr std::uint64_t kSubSeeds = 4;

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    int trace = 0;
    std::string traceOut;
    std::uint64_t insts = 20000;
    std::uint64_t warmup = 10000;
    bool selftest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else if (k == "--trace-out")
            a.traceOut = v;
        else if (k == "--insts")
            a.insts = std::stoull(v);
        else if (k == "--warmup")
            a.warmup = std::stoull(v);
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (!a.selftest && a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (a.insts == 0 || a.seconds < 0)
        throw std::invalid_argument("--insts and --seconds must be > 0");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_bench: %s\n", e.what());
        return 2;
    }
    if (args.selftest)
        return runSelftest();

    const std::vector<int> cores = physicalCoreCpus();
    const unsigned parallel = static_cast<unsigned>(std::clamp<std::size_t>(
        cores.empty() ? std::thread::hardware_concurrency() : cores.size(),
        1, 4));
    Workload w;
    try {
        w = makeWorkload(args.workload, parallel);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_bench: %s\n", e.what());
        return 2;
    }
    // Runner workers inherit this mask of one CPU per physical core;
    // runSweeps pins its per-seed threads to one core each.
    if (!pinTo(cores))
        std::fprintf(stderr, "perf_bench: CPU pinning refused; "
                             "running unpinned\n");

    // The workload is its sweep under kSubSeeds workload seeds drawn
    // from --seed: host cost per sweep differs by up to 1.7x between
    // seeds, so one seed per run would make runs at different seeds
    // disagree by more than any useful bound.
    std::vector<ExperimentParams> seeds;
    for (std::uint64_t k = 0; k < kSubSeeds; ++k)
        seeds.push_back({args.insts, args.warmup, args.seed * kSubSeeds + k});
    return args.trace ? runTraced(w, seeds, cores, args.traceOut)
                      : runEndToEnd(w, seeds, cores, args.seed,
                                    args.seconds);
}
