/**
 * @file
 * Plain data types exchanged between the processor side and the DRAM
 * subsystem.
 */

#ifndef SMTDRAM_DRAM_DRAM_TYPES_HH
#define SMTDRAM_DRAM_DRAM_TYPES_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/blame.hh"

namespace smtdram
{

/** Direction of a main-memory transaction. */
enum class MemOp : std::uint8_t { Read, Write };

/**
 * Thread state piggybacked on a memory request when the cache miss is
 * discovered (Section 3 of the paper).  The memory controller never
 * queries the core directly; it sees the state as of enqueue time,
 * which the paper argues is precise enough for heuristics.
 */
struct ThreadSnapshot {
    /** Outstanding main-memory requests of the thread, incl. this. */
    std::uint32_t outstandingRequests = 0;
    /** Reorder-buffer entries the thread currently holds. */
    std::uint32_t robOccupancy = 0;
    /** Integer issue-queue entries the thread currently holds. */
    std::uint32_t iqOccupancy = 0;
};

/** Decomposed DRAM location of a physical address. */
struct DramCoord {
    std::uint32_t channel = 0;  ///< logical channel index
    std::uint32_t bank = 0;     ///< bank index within the channel
    std::uint32_t row = 0;      ///< row (page) within the bank
    std::uint32_t column = 0;   ///< line-sized column within the row
};

/** One line-sized main-memory transaction. */
struct DramRequest {
    std::uint64_t id = 0;
    MemOp op = MemOp::Read;
    Addr addr = kAddrInvalid;
    /** Owning hardware thread; kThreadNone for writebacks. */
    ThreadId thread = kThreadNone;
    /** Issuing core: the topology router routes the reply back to
     *  it.  Always 0 on a single-core machine. */
    std::uint32_t core = 0;
    Cycle arrival = 0;
    ThreadSnapshot snap;
    DramCoord coord;
    /** True if the processor is stalled on this line's critical word. */
    bool critical = false;
    /**
     * Earliest cycle the controller may issue this request; normally
     * 0 (immediately), pushed out by fault injection (enqueue delay,
     * retry backoff) or by the socket interconnect transit.
     */
    Cycle notBefore = 0;
    /** Cycle the request reaches its home socket's controller after
     *  crossing the interconnect; 0 for local traffic.  Cycles in
     *  [arrival, remoteUntil) are blamed on RemoteAccess. */
    Cycle remoteUntil = 0;
    /** Transient-read-error retries already taken (fault injection). */
    std::uint32_t retries = 0;
    /** True for ECC patrol-scrub reads (background maintenance
     *  traffic; never delivered through the read callback). */
    bool scrub = false;
    /** True for rowhammer preventive-refresh commands: a maintenance
     *  ACT+PRE on a victim row that restores its charge.  Moves no
     *  data, never delivered through the read callback. */
    bool mitigation = false;

    /**
     * Where every cycle since arrival went (see blame.hh).  Maintained
     * by the controller at event points; conservation
     * `blame.sum() == completion - arrival` holds once the request is
     * fully accounted (launch) and is asserted by the shadow checker.
     */
    LatencyBlame blame;
    /** Cycle up to which this request's lifetime has been attributed.
     *  Monotone; intervals before it are never re-accounted. */
    Cycle blameUpTo = 0;

    // --- Filled in by the controller when the transaction executes ---
    Cycle issueTime = 0;      ///< cycle the transaction left the queue
    Cycle completion = 0;     ///< cycle data is back at the controller
    bool rowHit = false;      ///< column access hit the open row
    bool bankWasIdle = false; ///< bank had no open row (no conflict)
    /** Single-bit error found and fixed transparently by SECDED. */
    bool corrected = false;
    /** Detected uncorrectable error: the line is delivered poisoned
     *  so the consumer sees the failure instead of silent data. */
    bool poisoned = false;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_DRAM_TYPES_HH
