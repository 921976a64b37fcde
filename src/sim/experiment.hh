/**
 * @file
 * High-level experiment helpers shared by the benches, examples, and
 * integration tests: single-thread baselines, weighted speedup, and
 * the CPI-breakdown methodology of Section 4.2.
 */

#ifndef SMTDRAM_SIM_EXPERIMENT_HH
#define SMTDRAM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/smt_system.hh"
#include "sim/system_config.hh"
#include "workload/spec2000.hh"

namespace smtdram
{

/** Result of running one workload mix on one configuration. */
struct MixRun {
    RunResult run;
    /** Weighted speedup = sum_i IPC_mix,i / IPC_alone,i  [28]. */
    double weightedSpeedup = 0.0;

    // --- Reliability summary (copied out of run.dram so sweeps can
    //     tabulate error outcomes without digging through stats) ---
    /** Reads delivered after a transparent SECDED fix-up. */
    std::uint64_t correctedErrors = 0;
    /** Reads delivered poisoned (detected uncorrectable error). */
    std::uint64_t uncorrectableErrors = 0;
    /** ECC patrol-scrub transactions executed. */
    std::uint64_t scrubReads = 0;
    /** Reads whose fault-injection retry budget ran out. */
    std::uint64_t retriesExhausted = 0;
    /** Rowhammer bit flips landed on victim rows (run.hammer). */
    std::uint64_t victimFlips = 0;
    /** Graphene-triggered preventive refreshes issued. */
    std::uint64_t preventiveRefreshes = 0;

    // --- Latency-distribution summary (from the always-on log
    //     histogram; means alone hide queueing-tail differences) ---
    std::uint64_t readLatencyP50 = 0;
    std::uint64_t readLatencyP99 = 0;

    // --- Energy summary (always metered; see run.power for the
    //     full breakdown) ---
    /** Total DRAM energy over the measurement window, nJ. */
    double totalEnergyNj = 0.0;
    /** Average DRAM power over the measurement window, mW. */
    double avgPowerMw = 0.0;
};

/** Instruction budgets and seed shared by a sweep's simulations. */
struct ExperimentParams {
    std::uint64_t measureInsts = 200'000;
    std::uint64_t warmupInsts = 50'000;
    std::uint64_t seed = 42;
};

/**
 * Run one simulation of @p apps on an SmtSystem built from @p config
 * (shaped by config.topology, 1x1 by default).  Pure: no caching,
 * safe to call from any thread.
 */
RunResult runSystem(const SystemConfig &config,
                    const std::vector<AppProfile> &apps,
                    std::uint64_t seed, std::uint64_t measure_insts,
                    std::uint64_t warmup_insts);

/**
 * Run @p app alone (one hardware thread) on @p config's memory
 * system and return its IPC.  Observability outputs are disabled so
 * baseline runs never clobber a mix run's trace/stats files.  Pure:
 * no caching, safe to call from any thread.
 */
double simulateAloneIpc(const std::string &app,
                        const SystemConfig &config,
                        const ExperimentParams &params);

/**
 * Run @p mix on @p config and fill every MixRun field *except*
 * weightedSpeedup (which needs baseline IPCs the caller supplies —
 * see ExperimentContext::runMix and ParallelExperimentRunner).
 * Pure: no caching, safe to call from any thread.
 */
MixRun simulateMixRun(const SystemConfig &config,
                      const WorkloadMix &mix,
                      const ExperimentParams &params);

/**
 * Shared measurement context: instruction budgets and the cache of
 * single-thread baseline IPCs (measured on the paper's default
 * machine so weighted speedups stay comparable across memory
 * configurations, as in the paper's normalized figures).
 *
 * Serial: the baseline cache is not synchronized.  Sweeps that want
 * to use every core go through ParallelExperimentRunner instead,
 * which shares these exact per-run primitives.
 */
class ExperimentContext
{
  public:
    explicit ExperimentContext(std::uint64_t measure_insts = 200'000,
                               std::uint64_t warmup_insts = 50'000,
                               std::uint64_t seed = 42);

    explicit ExperimentContext(const ExperimentParams &params)
        : ExperimentContext(params.measureInsts, params.warmupInsts,
                            params.seed)
    {
    }

    /** Single-thread IPC of @p app on the reference machine. */
    double aloneIpc(const std::string &app);

    /**
     * Single-thread IPC of @p app on @p config's memory system
     * (cached by configuration signature).  Used when weighted
     * speedups must be comparable across machine configurations with
     * per-configuration baselines, as in the paper's Figure 3.
     */
    double aloneIpcOn(const std::string &app,
                      const SystemConfig &config);

    /**
     * Run @p mix on @p config and compute its weighted speedup.
     * @param per_config_baselines divide by each application's
     *        single-thread IPC on this same configuration instead of
     *        the reference machine.
     */
    MixRun runMix(const SystemConfig &config, const WorkloadMix &mix,
                  bool per_config_baselines = false);

    /** Convenience: build the config for a mix and run it. */
    MixRun runMix(const std::string &mix_name);

    std::uint64_t measureInsts() const { return measureInsts_; }
    std::uint64_t warmupInsts() const { return warmupInsts_; }
    std::uint64_t seed() const { return seed_; }

    ExperimentParams
    params() const
    {
        return {measureInsts_, warmupInsts_, seed_};
    }

  private:
    std::uint64_t measureInsts_;
    std::uint64_t warmupInsts_;
    std::uint64_t seed_;
    std::map<std::string, double> aloneIpc_;
};

/** Stable cache key describing a configuration's memory system. */
std::string configSignature(const SystemConfig &config);

/** CPI split per the Section 4.2 methodology. */
struct CpiBreakdown {
    double overall = 0.0;  ///< real machine
    double proc = 0.0;     ///< infinite L1s
    double l2 = 0.0;       ///< infinite L2 minus infinite L1
    double l3 = 0.0;       ///< infinite L3 minus infinite L2
    double mem = 0.0;      ///< real minus infinite L3
};

/**
 * Measure the four-system CPI breakdown of one application running
 * alone (Figure 1).  @p observe applies to the real-machine run only;
 * the three infinite-cache reference runs stay dark so they don't
 * overwrite its outputs.
 */
CpiBreakdown measureCpiBreakdown(
    const std::string &app, std::uint64_t measure_insts,
    std::uint64_t warmup_insts, std::uint64_t seed,
    const ObservabilityConfig &observe = {});

/** Build per-thread profiles for a mix. */
std::vector<AppProfile> profilesForMix(const WorkloadMix &mix);

} // namespace smtdram

#endif // SMTDRAM_SIM_EXPERIMENT_HH
