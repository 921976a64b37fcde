/**
 * @file
 * Memory access scheduling policies (Sections 3 and 5.5).
 *
 * Single-thread-era policies:
 *  - FCFS: arrival order (reads already bypass writes at the
 *    controller level, matching the paper's reference point);
 *  - Hit-first: row-buffer hits before misses, reads before writes,
 *    then arrival order;
 *  - Age-based: hit-first, but when more than eight requests are
 *    queued, the oldest request is served first.
 *
 * Thread-aware policies (the paper's contribution) keep hit-first and
 * read-first as the leading criteria, then break ties with thread
 * state piggybacked on each request:
 *  - Request-based: fewest outstanding memory requests first;
 *  - ROB-based: most reorder-buffer entries held first;
 *  - IQ-based: most integer issue-queue entries held first.
 *
 * Every policy is one row of a lexicographic priority-key table
 * (keyOf in scheduler.cc); pickCandidate() takes the minimum.
 */

#ifndef SMTDRAM_DRAM_SCHEDULER_HH
#define SMTDRAM_DRAM_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_types.hh"

namespace smtdram
{

/** Identifiers for the built-in scheduling policies. */
enum class SchedulerKind : std::uint8_t {
    Fcfs,
    HitFirst,
    AgeBased,
    RequestBased,
    RobBased,
    IqBased,
    /**
     * Criticality-based (Section 3.1): requests carrying a word the
     * processor is waiting on (demand loads / instruction fetches)
     * outrank non-critical traffic (store fills, prefetches) within
     * their hit/read class.  Listed by the paper among known
     * single-thread policies; not part of Figure 10's sweep.
     */
    CriticalityBased,
};

/** The Figure 10 policies, in the paper's order. */
const std::vector<SchedulerKind> &allSchedulerKinds();

/** Every policy, including extensions beyond Figure 10. */
const std::vector<SchedulerKind> &allSchedulerKindsExtended();

/** Short name used in bench output ("FCFS", "Hit-first", ...). */
std::string schedulerName(SchedulerKind kind);

/** Parse a scheduler name (case-insensitive); fatal()s on garbage. */
SchedulerKind schedulerFromName(const std::string &name);

/** Controller queue a candidate was gathered from. */
enum class CandidateSource : std::uint8_t {
    ReadQueue,
    WriteQueue,
    ScrubQueue,
    /** Rowhammer preventive refreshes (maintenance commands). */
    MitigationQueue,
};

/** Rows of the controller's queue table, one per CandidateSource. */
inline constexpr std::size_t kNumCandidateSources = 4;

/** View of a queued request the scheduler may rank. */
struct SchedCandidate {
    const DramRequest *req = nullptr;
    bool rowHit = false;    ///< would hit the currently open row
    bool bankIdle = false;  ///< bank precharged, no conflict
    /** Where the request sits, so the winner is removed by position
     *  instead of re-scanning every queue for its id. */
    CandidateSource source = CandidateSource::ReadQueue;
    std::uint32_t sourceIndex = 0;  ///< index within that queue
};

/**
 * Choose which of @p candidates (never empty) the channel serves next
 * under policy @p kind.  Every policy is one lexicographic priority
 * key over the same candidate fields, so the pick is a total order:
 * it does not depend on the order of @p candidates.
 * @param queued total requests queued at this channel, used by the
 *        age-based pressure rule.
 * @return index into @p candidates.
 */
size_t pickCandidate(SchedulerKind kind,
                     const std::vector<SchedCandidate> &candidates,
                     size_t queued);

} // namespace smtdram

#endif // SMTDRAM_DRAM_SCHEDULER_HH
