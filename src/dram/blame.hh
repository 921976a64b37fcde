/**
 * @file
 * Latency blame taxonomy for DRAM requests.
 *
 * Every cycle between a request's arrival at the memory controller and
 * its completion is attributed to exactly one BlameComponent, so the
 * per-request breakdown obeys the conservation invariant
 *
 *     sum(blame components) == completion - arrival
 *
 * which the shadow ConservationChecker asserts on every retirement.
 * Attribution is pure bookkeeping: it never feeds back into timing, and
 * it is computed from analytic timestamps at event points (enqueue,
 * launch, refresh, retire) rather than by per-cycle ticking, so the
 * per-cycle and event-driven kernels produce byte-identical blame.
 */

#ifndef SMTDRAM_DRAM_BLAME_HH
#define SMTDRAM_DRAM_BLAME_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace smtdram
{

/** Where a waiting (or in-service) DRAM request cycle went. */
enum class BlameComponent : std::uint8_t
{
    /** Waiting for a bank held busy by another request's data phase. */
    Queueing,
    /** Schedulable but not picked (arbitration loss, write drain,
     *  watermark latch, scrub deprioritisation, enqueue-to-first-tick
     *  alignment).  The residual category: any gap between accounted
     *  resource windows. */
    SchedulerDeferral,
    /** Precharge + activate cycles paid because the row buffer missed
     *  (or the bank was idle with no open row). */
    BankConflict,
    /** Data ready but the shared channel bus was still draining an
     *  earlier burst. */
    BusContention,
    /** Bank unavailable because a refresh was in progress. */
    RefreshStall,
    /** Bank held by a background ECC scrub request. */
    ScrubInterference,
    /** Retry backoff after a corrupted read, plus injected bus-stall
     *  windows from the fault injector. */
    FaultRetry,
    /** ECC check/correct pipeline cycles appended to the burst. */
    EccOverhead,
    /** Exit latency paid waking a rank out of a low-power state. */
    PowerExit,
    /** Bank held by a rowhammer neighbour-refresh mitigation. */
    HammerMitigation,
    /** Cycles spent crossing the socket interconnect (request hop
     *  plus, accounted at delivery, the reply hop) because the line's
     *  home memory is on another socket.  Always zero on a
     *  single-socket machine. */
    RemoteAccess,
    /** Unavoidable CAS + data burst + controller overhead. */
    Intrinsic,
};

inline constexpr std::size_t kNumBlameComponents = 12;

/** Stable lower-case identifier used in stats JSON, CSVs and dumps. */
inline const char *
blameComponentName(BlameComponent c)
{
    switch (c) {
      case BlameComponent::Queueing: return "queueing";
      case BlameComponent::SchedulerDeferral: return "sched_deferral";
      case BlameComponent::BankConflict: return "bank_conflict";
      case BlameComponent::BusContention: return "bus_contention";
      case BlameComponent::RefreshStall: return "refresh_stall";
      case BlameComponent::ScrubInterference: return "scrub";
      case BlameComponent::FaultRetry: return "fault_retry";
      case BlameComponent::EccOverhead: return "ecc_overhead";
      case BlameComponent::PowerExit: return "power_exit";
      case BlameComponent::HammerMitigation: return "hammer_mitigation";
      case BlameComponent::RemoteAccess: return "remote_access";
      case BlameComponent::Intrinsic: return "intrinsic";
    }
    return "?";
}

/**
 * Trace counter-track name of a component: "blame_" + its
 * blameComponentName().  Built once in static storage, because
 * Tracer::counter keeps the pointer until the trace is written.
 */
inline const char *
blameCounterName(BlameComponent c)
{
    static const auto names = [] {
        std::array<std::string, kNumBlameComponents> n;
        for (std::size_t i = 0; i < kNumBlameComponents; ++i) {
            n[i] = std::string("blame_") +
                   blameComponentName(static_cast<BlameComponent>(i));
        }
        return n;
    }();
    return names[static_cast<std::size_t>(c)].c_str();
}

/** Per-request (or accumulated) latency breakdown, in cycles. */
struct LatencyBlame
{
    std::array<std::uint64_t, kNumBlameComponents> cycles{};

    void
    add(BlameComponent c, std::uint64_t n)
    {
        cycles[static_cast<std::size_t>(c)] += n;
    }

    std::uint64_t
    operator[](BlameComponent c) const
    {
        return cycles[static_cast<std::size_t>(c)];
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t c : cycles)
            total += c;
        return total;
    }

    /** Accumulate another breakdown into this one. */
    void
    merge(const LatencyBlame &other)
    {
        for (std::size_t i = 0; i < kNumBlameComponents; ++i)
            cycles[i] += other.cycles[i];
    }
};

/**
 * Cycles thread i (row) spent stalled on a resource occupied by
 * thread j (column).  Column 0 is the "system" blocker — refresh,
 * scrub, writebacks, hammer mitigations and anything else with no
 * owning thread — and column j + 1 is thread j.  Only demand-read
 * wait cycles whose cause is another request's occupancy (queueing,
 * refresh, scrub, hammer mitigation) land here; service-phase and
 * arbitration cycles do not, so row sums equal the sum of those four
 * components over the row thread's completed demand reads once the
 * controller has drained.
 */
class InterferenceMatrix
{
  public:
    void
    add(ThreadId blocked, ThreadId blocker, std::uint64_t cycles)
    {
        if (blocked == kThreadNone || cycles == 0)
            return;
        const std::size_t row = blocked;
        const std::size_t col =
            blocker == kThreadNone ? 0 : std::size_t{blocker} + 1;
        if (rows_.size() <= row)
            rows_.resize(row + 1);
        if (rows_[row].size() <= col)
            rows_[row].resize(col + 1, 0);
        rows_[row][col] += cycles;
    }

    /** Rows present (max blocked thread id + 1). */
    std::size_t threads() const { return rows_.size(); }

    /** Widest row (system column + max blocker thread id + 1). */
    std::size_t
    columns() const
    {
        std::size_t cols = 0;
        for (const std::vector<std::uint64_t> &row : rows_)
            if (row.size() > cols)
                cols = row.size();
        return cols;
    }

    /** Cycles thread @p blocked lost to @p blocker (kThreadNone ==
     *  system column). */
    std::uint64_t
    at(ThreadId blocked, ThreadId blocker) const
    {
        if (std::size_t{blocked} >= rows_.size())
            return 0;
        const std::size_t col =
            blocker == kThreadNone ? 0 : std::size_t{blocker} + 1;
        const std::vector<std::uint64_t> &row = rows_[blocked];
        return col < row.size() ? row[col] : 0;
    }

    /** Total interference cycles suffered by thread @p blocked. */
    std::uint64_t
    rowSum(ThreadId blocked) const
    {
        if (std::size_t{blocked} >= rows_.size())
            return 0;
        std::uint64_t total = 0;
        for (std::uint64_t c : rows_[blocked])
            total += c;
        return total;
    }

    void
    merge(const InterferenceMatrix &other)
    {
        for (std::size_t row = 0; row < other.rows_.size(); ++row)
            for (std::size_t col = 0; col < other.rows_[row].size();
                 ++col)
                if (other.rows_[row][col] != 0)
                    add(static_cast<ThreadId>(row),
                        col == 0 ? kThreadNone
                                 : static_cast<ThreadId>(col - 1),
                        other.rows_[row][col]);
    }

  private:
    /** rows_[blocked][0] = system blocker; rows_[blocked][j + 1] =
     *  thread j.  Rows/columns grow lazily on first contribution. */
    std::vector<std::vector<std::uint64_t>> rows_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_BLAME_HH
