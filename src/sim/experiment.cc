#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "sim/smt_system.hh"
#include "workload/hammer_workload.hh"

namespace smtdram
{

RunResult
runSystem(const SystemConfig &config,
          const std::vector<AppProfile> &apps, std::uint64_t seed,
          std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    SmtSystem system(config, apps, seed);
    return system.run(measure_insts, warmup_insts);
}

std::vector<AppProfile>
profilesForMix(const WorkloadMix &mix)
{
    std::vector<AppProfile> apps;
    apps.reserve(mix.apps.size());
    for (const std::string &name : mix.apps) {
        // Hostile mixes (hostileMix()) splice adversarial hammer
        // threads in alongside the SPEC names.
        if (isHammerProfileName(name))
            apps.push_back(hammerProfile(name));
        else
            apps.push_back(specProfile(name));
    }
    return apps;
}

ExperimentContext::ExperimentContext(std::uint64_t measure_insts,
                                     std::uint64_t warmup_insts,
                                     std::uint64_t seed)
    : measureInsts_(measure_insts),
      warmupInsts_(warmup_insts),
      seed_(seed)
{
}

std::string
configSignature(const SystemConfig &config)
{
    // Built as a growing std::string: a fixed snprintf buffer would
    // silently truncate once enough fields accrue, aliasing cache
    // keys for distinct configurations.
    const DramConfig &d = config.dram;
    std::string sig = d.label();
    sig += d.mapping == MappingScheme::XorPermute ? "-xor" : "-page";
    sig += d.pageMode == PageMode::Open ? "-open" : "-close";
    sig += "-" + schedulerName(config.scheduler);
    sig += config.hierarchy.l3.infinite ? "-l3inf" : "-l3real";
    sig += "-pf" + std::to_string(
                       (config.hierarchy.prefetchNextLine ? 1 : 0) +
                       (d.channelInterleave == ChannelInterleave::Page
                            ? 2
                            : 0));
    if (d.refreshEnabled()) {
        sig += "-ref" + std::to_string(d.timing.refreshInterval) +
               "x" + std::to_string(d.timing.refreshCycles);
    }
    if (d.ecc.enabled) {
        // ECC changes burst timing and adds scrub traffic; baselines
        // cached for a non-ECC machine must not be reused.
        char ebuf[96];
        std::snprintf(ebuf, sizeof(ebuf),
                      "-ecc%llu,%g,%g,%llu,%u,%u",
                      (unsigned long long)d.ecc.checkOverheadCycles,
                      d.ecc.correctableProbability,
                      d.ecc.uncorrectableProbability,
                      (unsigned long long)d.ecc.scrubInterval,
                      d.ecc.scrubBurst, d.ecc.scrubRegionRows);
        sig += ebuf;
    }
    if (d.power.active()) {
        // Only the state machine changes timing; the electrical
        // currents are metering-only and deliberately excluded, so a
        // non-default datasheet never splinters the baseline cache.
        char pbuf[96];
        std::snprintf(pbuf, sizeof(pbuf),
                      "-pwr%llu,%llu,%llu,%llu,%llu,%llu",
                      (unsigned long long)d.power.powerdownIdle,
                      (unsigned long long)d.power.slowExitIdle,
                      (unsigned long long)d.power.selfRefreshIdle,
                      (unsigned long long)d.power.exitFast,
                      (unsigned long long)d.power.exitSlow,
                      (unsigned long long)d.power.exitSelfRefresh);
        sig += pbuf;
    }
    if (d.faults.active()) {
        // Alone-IPC baselines under fault injection depend on every
        // knob and on the seed; spell them all out.
        char fbuf[96];
        std::snprintf(fbuf, sizeof(fbuf),
                      "-flt%g,%llu,%g,%u,%llu,%g,%llu,s%llu",
                      d.faults.busStallProbability,
                      (unsigned long long)d.faults.busStallCycles,
                      d.faults.readErrorProbability, d.faults.maxRetries,
                      (unsigned long long)d.faults.retryBackoff,
                      d.faults.enqueueDelayProbability,
                      (unsigned long long)d.faults.enqueueDelayMax,
                      (unsigned long long)d.faults.seed);
        sig += fbuf;
    }
    if (d.hammer.active()) {
        // The disturbance model changes victim-read outcomes and (with
        // mitigation) injects preventive-refresh traffic; every knob
        // and the dedicated seed are timing- or outcome-relevant.
        char hbuf[96];
        std::snprintf(hbuf, sizeof(hbuf),
                      "-ham%llu,%g,%u,s%llu",
                      (unsigned long long)d.hammer.hammerThreshold,
                      d.hammer.flipProbability, d.hammer.blastRadius,
                      (unsigned long long)d.hammer.seed);
        sig += hbuf;
        if (d.hammer.mitigates()) {
            std::snprintf(hbuf, sizeof(hbuf), "-mit%u,%llu",
                          d.hammer.trackerCapacity,
                          (unsigned long long)
                              d.hammer.mitigationThreshold);
            sig += hbuf;
        }
    }
    const TopologyConfig &t = config.topology;
    if (t.active()) {
        // Only a multi-core topology gets a suffix: the 1x1 machine
        // keeps the paper machine's signature (and cached baselines).
        char tbuf[96];
        std::snprintf(tbuf, sizeof(tbuf),
                      "-numa%ux%uw%u-%s-%s-hop%lluq%llu", t.sockets,
                      t.coresPerSocket, t.smtWays,
                      placementPolicyName(t.placement),
                      homePolicyName(t.home),
                      (unsigned long long)t.hopLatency,
                      (unsigned long long)t.linkOccupancy);
        sig += tbuf;
        if (t.placement == PlacementPolicy::Migrate &&
            t.migrationEpoch > 0) {
            std::snprintf(tbuf, sizeof(tbuf), "-mig%lluc%llu",
                          (unsigned long long)t.migrationEpoch,
                          (unsigned long long)t.migrationCost);
            sig += tbuf;
        }
        if (!t.pinned.empty()) {
            sig += "-pin";
            for (size_t i = 0; i < t.pinned.size(); ++i) {
                if (i)
                    sig += ",";
                sig += std::to_string(t.pinned[i]);
            }
        }
    }
    return sig;
}

double
simulateAloneIpc(const std::string &app, const SystemConfig &config,
                 const ExperimentParams &params)
{
    SystemConfig alone = config;
    alone.core.numThreads = 1;
    // Baseline runs share the mix's config but must not clobber its
    // observability outputs (same file paths) — run them dark.
    alone.observe = ObservabilityConfig{};
    // A pin map is sized for the mix, not for one thread; the alone
    // run places its single thread by policy instead.
    alone.topology.pinned.clear();
    const AppProfile &profile =
        isHammerProfileName(app) ? hammerProfile(app) : specProfile(app);
    const RunResult r = runSystem(alone, {profile}, params.seed,
                                  params.measureInsts,
                                  params.warmupInsts);
    return r.ipc.at(0);
}

MixRun
simulateMixRun(const SystemConfig &config, const WorkloadMix &mix,
               const ExperimentParams &params)
{
    fatal_if(config.core.numThreads != mix.apps.size(),
             "config has %u threads but mix '%s' has %zu apps",
             config.core.numThreads, mix.name.c_str(),
             mix.apps.size());

    MixRun out;
    out.run = runSystem(config, profilesForMix(mix), params.seed,
                        params.measureInsts, params.warmupInsts);
    out.correctedErrors = out.run.dram.correctedErrors;
    out.uncorrectableErrors = out.run.dram.uncorrectableErrors;
    out.scrubReads = out.run.dram.scrubReads;
    out.retriesExhausted = out.run.dram.retriesExhausted;
    if (out.run.dram.readLatencyHist.total() > 0) {
        out.readLatencyP50 = static_cast<std::uint64_t>(
            out.run.dram.readLatencyHist.p50());
        out.readLatencyP99 = static_cast<std::uint64_t>(
            out.run.dram.readLatencyHist.p99());
    }
    out.victimFlips = out.run.hammer.victimFlips;
    out.preventiveRefreshes = out.run.hammer.mitigationsIssued;
    out.totalEnergyNj = out.run.power.totalEnergy;
    out.avgPowerMw = out.run.power.averagePowerMw(
        config.dram.timing.cpuMhz, out.run.measuredCycles);
    return out;
}

double
ExperimentContext::aloneIpc(const std::string &app)
{
    return aloneIpcOn(app, SystemConfig::paperDefault(1));
}

double
ExperimentContext::aloneIpcOn(const std::string &app,
                              const SystemConfig &config)
{
    const std::string key = app + "@" + configSignature(config);
    auto it = aloneIpc_.find(key);
    if (it != aloneIpc_.end())
        return it->second;

    const double ipc = simulateAloneIpc(app, config, params());
    aloneIpc_.emplace(key, ipc);
    return ipc;
}

MixRun
ExperimentContext::runMix(const SystemConfig &config,
                          const WorkloadMix &mix,
                          bool per_config_baselines)
{
    MixRun out = simulateMixRun(config, mix, params());
    for (size_t i = 0; i < mix.apps.size(); ++i) {
        const double alone =
            per_config_baselines ? aloneIpcOn(mix.apps[i], config)
                                 : aloneIpc(mix.apps[i]);
        out.weightedSpeedup += out.run.ipc[i] / alone;
    }
    return out;
}

MixRun
ExperimentContext::runMix(const std::string &mix_name)
{
    const WorkloadMix &mix = mixByName(mix_name);
    const SystemConfig config = SystemConfig::paperDefault(
        static_cast<std::uint32_t>(mix.apps.size()));
    return runMix(config, mix);
}

CpiBreakdown
measureCpiBreakdown(const std::string &app,
                    std::uint64_t measure_insts,
                    std::uint64_t warmup_insts, std::uint64_t seed,
                    const ObservabilityConfig &observe)
{
    auto cpi_on = [&](bool inf_l1, bool inf_l2, bool inf_l3) {
        SystemConfig config = SystemConfig::paperDefault(1);
        config.hierarchy.l1i.infinite = inf_l1;
        config.hierarchy.l1d.infinite = inf_l1;
        config.hierarchy.l2.infinite = inf_l2;
        config.hierarchy.l3.infinite = inf_l3;
        if (!inf_l1 && !inf_l2 && !inf_l3)
            config.observe = observe;
        const RunResult r = runSystem(config, {specProfile(app)},
                                      seed, measure_insts,
                                      warmup_insts);
        return 1.0 / r.ipc.at(0);
    };

    // Section 4.2: CPI_overall (real), CPI_pL3 (infinite L3),
    // CPI_pL2 (infinite L2), CPI_proc (infinite L1s).
    const double overall = cpi_on(false, false, false);
    const double p_l3 = cpi_on(false, false, true);
    const double p_l2 = cpi_on(false, true, true);
    const double proc = cpi_on(true, true, true);

    CpiBreakdown b;
    b.overall = overall;
    b.proc = proc;
    b.l2 = std::max(0.0, p_l2 - proc);
    b.l3 = std::max(0.0, p_l3 - p_l2);
    b.mem = std::max(0.0, overall - p_l3);
    return b;
}

} // namespace smtdram
