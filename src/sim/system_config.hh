/**
 * @file
 * Top-level system configuration bundling core, hierarchy, and DRAM
 * parameters.  Defaults reproduce Table 1 of the paper.
 */

#ifndef SMTDRAM_SIM_SYSTEM_CONFIG_HH
#define SMTDRAM_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/cache_config.hh"
#include "cpu/cpu_config.hh"
#include "dram/dram_config.hh"
#include "dram/scheduler.hh"
#include "topology/topology_config.hh"

namespace smtdram
{

/**
 * Observation outputs of one run — trace, stats documents, epoch
 * sampling.  Everything defaults off; none of it affects simulated
 * timing, so it is deliberately excluded from configSignature() and
 * the golden figures are bit-identical whatever is set here.
 */
struct ObservabilityConfig {
    /** Chrome trace-event / Perfetto JSON output path; "" = off. */
    std::string tracePath;
    /** Schema-versioned stats JSON output path; "" = off. */
    std::string statsJsonPath;
    /** Epoch time-series CSV output path; "" = off. */
    std::string statsCsvPath;
    /** Cycles between stats time-series samples; 0 = final only. */
    Cycle epoch = 0;

    bool
    traceEnabled() const
    {
        return !tracePath.empty();
    }

    bool
    statsEnabled() const
    {
        return !statsJsonPath.empty() || !statsCsvPath.empty();
    }

    bool
    any() const
    {
        return traceEnabled() || statsEnabled();
    }
};

/**
 * Main-loop flavor.  PerCycle ticks every simulated cycle; EventDriven
 * computes the global min next-event cycle across the core, the event
 * queue, and the DRAM system and jumps straight there.  The two are
 * proven byte-identical by the differential kernel equivalence suite,
 * so — like ObservabilityConfig — the knob is deliberately excluded
 * from configSignature() and golden figures gate both settings.
 */
enum class KernelMode : std::uint8_t {
    PerCycle,
    EventDriven,
};

/** Everything needed to instantiate one simulated machine. */
struct SystemConfig {
    CoreConfig core;
    HierarchyConfig hierarchy;
    DramConfig dram = DramConfig::ddrSdram(2);
    SchedulerKind scheduler = SchedulerKind::HitFirst;
    ObservabilityConfig observe;
    /**
     * Which main loop drives the run.  The SMTDRAM_KERNEL environment
     * variable ("cycle" / "event"), read once per process, overrides
     * this so whole harnesses (goldens, benches) can be flipped for a
     * CI leg without plumbing a flag through every call site.
     */
    KernelMode kernel = KernelMode::PerCycle;
    /**
     * Multi-socket NUMA topology and OS placement.  The default 1x1
     * topology is the paper's single-socket machine.
     */
    TopologyConfig topology;
    /**
     * Forward-progress watchdog: every thread must commit something
     * within this many cycles or the run aborts with a state dump
     * (a silent hang is always a simulator bug).  0 disables it.
     */
    Cycle progressWindow = 3'000'000;

    /**
     * The paper's default evaluation system (Section 5): 2-channel
     * DDR SDRAM, open page, XOR mapping, hit-first scheduling, DWarn
     * fetch policy, and Table 1 core/cache parameters.
     */
    static SystemConfig
    paperDefault(std::uint32_t num_threads)
    {
        SystemConfig c;
        c.core.numThreads = num_threads;
        c.core.fetchPolicy = FetchPolicyKind::DWarn;
        c.dram = DramConfig::ddrSdram(2);
        c.dram.mapping = MappingScheme::XorPermute;
        c.dram.pageMode = PageMode::Open;
        c.scheduler = SchedulerKind::HitFirst;
        return c;
    }

    /** Same machine with an infinitely large L3 (Figure 3 reference). */
    SystemConfig
    withInfiniteL3() const
    {
        SystemConfig c = *this;
        c.hierarchy.l3.infinite = true;
        return c;
    }
};

} // namespace smtdram

#endif // SMTDRAM_SIM_SYSTEM_CONFIG_HH
