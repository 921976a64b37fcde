/**
 * @file
 * Per-channel rowhammer disturbance model and Graphene-style
 * aggressor tracker.
 *
 * Two cooperating mechanisms, both driven by the memory controller's
 * ACT stream:
 *
 * 1. Disturbance model (exact, per-bank).  Every activation bumps the
 *    activated row's count for the current refresh window; a victim
 *    row's *pressure* is the sum of its neighbors' counts (within
 *    `blastRadius`) minus any pressure already relieved by a
 *    preventive refresh of that victim.  Once pressure passes
 *    `hammerThreshold`, each further aggressor ACT runs one Bernoulli
 *    trial (FaultInjector's dedicated hammer stream) that may flip
 *    one more bit in the victim.  Flips accumulate as *data
 *    corruption*: a refresh restores charge (resetting pressure) but
 *    cannot unflip bits — only an ECC-correcting read or a data write
 *    to the row repairs them.  On the next read of the victim, one
 *    outstanding flip is SECDED-corrected; two or more are a detected
 *    uncorrectable error; with ECC off the read is silently corrupt.
 *
 * 2. Graphene tracker (approximate, bounded).  A Misra-Gries
 *    frequent-item summary per bank — `trackerCapacity` (row, count)
 *    entries plus a spillover counter — guarantees any row activated
 *    more than `spillover` times is in the table, so no aggressor
 *    reaching `mitigationThreshold` estimated ACTs can hide.  When an
 *    entry's count reaches the threshold, the tracker requests
 *    *preventive refreshes* of the aggressor's neighbors and resets
 *    the entry; the controller turns each request into a maintenance
 *    command that queues, competes with demand/scrub under the
 *    configured scheduler, occupies the bank for a full row cycle,
 *    and is metered by the power model.
 *
 * Both structures reset on the bank's auto-refresh (this model
 * refreshes a whole bank per tREFI command), mirroring Graphene's
 * per-refresh-window epoch.
 */

#ifndef SMTDRAM_DRAM_ROW_HAMMER_HH
#define SMTDRAM_DRAM_ROW_HAMMER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "dram/dram_config.hh"

namespace smtdram
{

class FaultInjector;

/** Per-channel statistics of the disturbance model and mitigation. */
struct HammerStats {
    std::uint64_t activations = 0;    ///< ACTs observed by the model
    /** Victim-row trials run past the hammer threshold. */
    std::uint64_t thresholdCrossings = 0;
    std::uint64_t victimFlips = 0;    ///< bits flipped in victim rows
    /** Victim reads whose single flip SECDED fixed (and scrubbed). */
    std::uint64_t victimCorrected = 0;
    /** Victim reads with >= 2 flips: detected uncorrectable. */
    std::uint64_t victimUncorrectable = 0;
    /** Corrupt victim reads delivered with ECC off (audit only). */
    std::uint64_t silentCorruptions = 0;
    /** Flips repaired by a data write overwriting the victim row. */
    std::uint64_t flipsScrubbed = 0;
    std::uint64_t windowResets = 0;   ///< bank refreshes seen
    /** Preventive refreshes the tracker asked for. */
    std::uint64_t mitigationsRequested = 0;
    /** Preventive-refresh commands the controller executed. */
    std::uint64_t mitigationsIssued = 0;
    /** Bank-busy cycles spent executing them. */
    std::uint64_t mitigationCycles = 0;
    /** Misra-Gries spillover increments (tracker at capacity). */
    std::uint64_t trackerEvictions = 0;

    /** Fold @p o (another channel or socket) into this aggregate. */
    void
    merge(const HammerStats &o)
    {
        activations += o.activations;
        thresholdCrossings += o.thresholdCrossings;
        victimFlips += o.victimFlips;
        victimCorrected += o.victimCorrected;
        victimUncorrectable += o.victimUncorrectable;
        silentCorruptions += o.silentCorruptions;
        flipsScrubbed += o.flipsScrubbed;
        windowResets += o.windowResets;
        mitigationsRequested += o.mitigationsRequested;
        mitigationsIssued += o.mitigationsIssued;
        mitigationCycles += o.mitigationCycles;
        trackerEvictions += o.trackerEvictions;
    }
};

/** A preventive refresh the tracker wants the controller to issue. */
struct MitigationRequest {
    std::uint32_t bank = 0;
    std::uint32_t row = 0;
};

/** One logical channel's disturbance state (owned by the controller,
 *  like FaultInjector). */
class RowHammerModel
{
  public:
    RowHammerModel(const HammerConfig &config, std::uint32_t banks,
                   std::uint32_t rowsPerBank);

    bool active() const { return config_.active(); }
    bool mitigates() const { return config_.mitigates(); }

    /**
     * Observe one row activation.  Runs the disturbance trials for
     * the neighbors whose pressure is past the hammer threshold
     * (drawing from @p injector's hammer stream) and, when mitigation
     * is on, updates the Misra-Gries table — appending any triggered
     * preventive refreshes to @p out.
     */
    void recordActivation(std::uint32_t bank, std::uint32_t row,
                          FaultInjector &injector,
                          std::vector<MitigationRequest> &out);

    /** Bank auto-refresh: charge restored everywhere, so activation
     *  counts, relief baselines, and the tracker epoch all reset.
     *  Outstanding flips persist — corruption survives refresh. */
    void onBankRefresh(std::uint32_t bank);

    /** A preventive refresh of (bank, row) executed: record the
     *  victim's current raw pressure as relieved. */
    void onPreventiveRefresh(std::uint32_t bank, std::uint32_t row);

    /** Outstanding flipped bits in (bank, row). */
    std::uint32_t flipsOn(std::uint32_t bank, std::uint32_t row) const;

    /** Repair the row's flips (ECC correction writeback, data write,
     *  or scrub read).  Counts into @p scrubbed when asked. */
    void clearFlips(std::uint32_t bank, std::uint32_t row,
                    bool countAsScrubbed);

    /** Rows of this channel with at least one outstanding flip. */
    std::uint64_t flippedRows() const;

    HammerStats &stats() { return stats_; }
    const HammerStats &stats() const { return stats_; }
    void resetStats() { stats_ = HammerStats(); }

  private:
    /** One Misra-Gries counter entry. */
    struct TrackerEntry {
        std::uint32_t row = 0;
        std::uint64_t count = 0;
    };

    /** Per-bank disturbance + tracker state. */
    struct BankState {
        /** ACTs per row since the bank's last refresh. */
        std::unordered_map<std::uint32_t, std::uint64_t> actCount;
        /** Victim row -> raw neighbor pressure already relieved by a
         *  preventive refresh this window. */
        std::unordered_map<std::uint32_t, std::uint64_t> relieved;
        /** Victim row -> outstanding flipped bits (persists across
         *  refresh windows; cleared only by repair). */
        std::unordered_map<std::uint32_t, std::uint32_t> flips;
        /** Misra-Gries summary. */
        std::vector<TrackerEntry> table;
        std::uint64_t spillover = 0;
    };

    /** Raw neighbor-ACT sum around victim @p row (no relief). */
    std::uint64_t rawPressure(const BankState &bank,
                              std::uint32_t row) const;

    void updateTracker(BankState &bank, std::uint32_t bankIdx,
                       std::uint32_t row,
                       std::vector<MitigationRequest> &out);

    HammerConfig config_;
    std::uint32_t rowsPerBank_;
    std::vector<BankState> banks_;
    HammerStats stats_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_ROW_HAMMER_HH
