/**
 * @file
 * Micron/DRAMPower-style current-based DRAM energy model.
 *
 * Every command the controller already issues — precharge, activate,
 * read/write burst, refresh, patrol scrub — is metered from datasheet
 * currents (IDDx) and the device supply voltage, and background energy
 * accrues per rank per power state.  The math is the standard
 * datasheet decomposition:
 *
 *     E_cycle(I)  = VDD * I / f_core                      [nJ/cycle]
 *     E_act       = (IDD0  - IDD3N) * VDD/f * tRCD        per ACT
 *     E_pre       = (IDD0  - IDD2N) * VDD/f * tRP         per PRE
 *     E_rd        = (IDD4R - IDD3N) * VDD/f * tBurst      per read
 *     E_wr        = (IDD4W - IDD3N) * VDD/f * tBurst      per write
 *     E_ref       = (IDD5  - IDD3N) * VDD/f * tRFC        per refresh
 *     E_bg(state) = E_cycle(IDD_state) per rank-cycle
 *
 * Accounting is always on and strictly timing-neutral: metering is
 * pure arithmetic on events that already happen, so enabling it can
 * never change a simulated cycle (the golden figures pin this).
 * Every component add is mirrored into a running total, which is what
 * the energy-conservation property test checks.
 */

#ifndef SMTDRAM_DRAM_POWER_MODEL_HH
#define SMTDRAM_DRAM_POWER_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_config.hh"
#include "dram/power_state.hh"

namespace smtdram
{

/** Aggregated energy/power statistics of one logical channel. */
struct PowerStats {
    // --- energy breakdown, nanojoules ---
    double backgroundEnergy = 0.0; ///< standby/powerdown/self-refresh
    double activateEnergy = 0.0;   ///< demand ACT + PRE command energy
    double readEnergy = 0.0;       ///< demand read bursts
    double writeEnergy = 0.0;      ///< write bursts
    double refreshEnergy = 0.0;    ///< auto-refresh commands
    double scrubEnergy = 0.0;      ///< patrol-scrub ACT/PRE/bursts
    /** Rowhammer preventive refreshes (ACT+PRE per command). */
    double mitigationEnergy = 0.0;
    /** Running total, incremented in lockstep with every component
     *  add; the conservation property test asserts it equals the
     *  component sum. */
    double totalEnergy = 0.0;

    // --- low-power state machine counters ---
    std::uint64_t powerdownEntries = 0; ///< episodes reaching powerdown
    std::uint64_t powerdownExits = 0;
    std::uint64_t selfRefreshEntries = 0; ///< episodes reaching self-refresh
    std::uint64_t selfRefreshExits = 0;
    /** Exit-latency cycles charged to waking commands. */
    std::uint64_t exitPenaltyCycles = 0;
    /** tREFI deadlines absorbed because the rank was in self-refresh. */
    std::uint64_t refreshesSuppressed = 0;
    /** Rows closed by precharge-powerdown entry. */
    std::uint64_t entryPrecharges = 0;

    // --- state residency, rank-cycles ---
    std::uint64_t activeCycles = 0;
    std::uint64_t powerdownFastCycles = 0;
    std::uint64_t powerdownSlowCycles = 0;
    std::uint64_t selfRefreshCycles = 0;

    /** Length of each completed low-power episode, cycles. */
    LogHistogram lowPowerSpanHist;

    /** Fold @p o (another channel or socket) into this aggregate. */
    void
    merge(const PowerStats &o)
    {
        backgroundEnergy += o.backgroundEnergy;
        activateEnergy += o.activateEnergy;
        readEnergy += o.readEnergy;
        writeEnergy += o.writeEnergy;
        refreshEnergy += o.refreshEnergy;
        scrubEnergy += o.scrubEnergy;
        mitigationEnergy += o.mitigationEnergy;
        totalEnergy += o.totalEnergy;
        powerdownEntries += o.powerdownEntries;
        powerdownExits += o.powerdownExits;
        selfRefreshEntries += o.selfRefreshEntries;
        selfRefreshExits += o.selfRefreshExits;
        exitPenaltyCycles += o.exitPenaltyCycles;
        refreshesSuppressed += o.refreshesSuppressed;
        entryPrecharges += o.entryPrecharges;
        activeCycles += o.activeCycles;
        powerdownFastCycles += o.powerdownFastCycles;
        powerdownSlowCycles += o.powerdownSlowCycles;
        selfRefreshCycles += o.selfRefreshCycles;
        lowPowerSpanHist.merge(o.lowPowerSpanHist);
    }

    /** Component sum (cross-check against totalEnergy). */
    double
    componentEnergy() const
    {
        return backgroundEnergy + activateEnergy + readEnergy +
               writeEnergy + refreshEnergy + scrubEnergy +
               mitigationEnergy;
    }

    /** Average power over @p cycles core cycles at @p cpu_mhz, mW. */
    double
    averagePowerMw(double cpu_mhz, Cycle cycles) const
    {
        return cycles ? totalEnergy * cpu_mhz /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Energy accumulator of one logical channel: precomputed per-command
 * energies plus per-rank attribution.
 */
class PowerModel
{
  public:
    explicit PowerModel(const DramConfig &config);

    /** nJ one core cycle at @p idd_ma milliamps costs. */
    double energyPerCycleNj(double idd_ma) const;

    /**
     * Meter one bank access: ACT/PRE command energy by row outcome
     * plus the burst.  Scrub reads attribute everything to the scrub
     * component so demand energy keeps its meaning.
     */
    void meterAccess(std::uint32_t rank, bool is_write, bool scrub,
                     bool row_hit, bool bank_was_idle);

    /** Meter one per-bank auto-refresh command. */
    void meterRefresh(std::uint32_t rank);

    /** Meter one rowhammer preventive refresh: an ACT+PRE row cycle
     *  on the victim row, no data burst. */
    void meterPreventiveRefresh(std::uint32_t rank);

    /** Meter the precharges implied by powerdown entry. */
    void meterEntryPrecharges(std::uint32_t rank,
                              std::uint32_t closed_rows);

    /** Meter @p cycles rank-cycles of background in state @p s. */
    void meterBackground(std::uint32_t rank, PowerState s,
                         Cycle cycles);

    /** Record a materialized low-power episode (at wake). */
    void noteEpisode(PowerState deepest, Cycle span_cycles,
                     Cycle penalty);

    /** Record one refresh deadline absorbed by self-refresh. */
    void noteRefreshSuppressed() { ++stats_.refreshesSuppressed; }

    const PowerStats &stats() const { return stats_; }

    /** Total energy attributed to one rank, nJ. */
    double
    rankEnergy(std::uint32_t rank) const
    {
        return rankEnergy_[rank];
    }

    std::uint32_t
    ranks() const
    {
        return static_cast<std::uint32_t>(rankEnergy_.size());
    }

    /** Stats boundary: zero all accumulators. */
    void reset();

  private:
    void
    add(double &component, double nj, std::uint32_t rank)
    {
        component += nj;
        stats_.totalEnergy += nj;
        rankEnergy_[rank] += nj;
    }

    PowerStats stats_;
    std::vector<double> rankEnergy_;

    /** VDD / f_core: nJ one core cycle of 1 mA costs. */
    double vddOverMhz_;

    // Precomputed per-command energies, nJ.
    double actNj_;
    double preNj_;
    double readBurstNj_;
    double writeBurstNj_;
    double refreshNj_;
    // Background energy per rank-cycle by state, nJ.
    double bgActiveNj_;
    double bgPowerdownFastNj_;
    double bgPowerdownSlowNj_;
    double bgSelfRefreshNj_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_POWER_MODEL_HH
