/**
 * @file
 * The simultaneous-multithreading out-of-order core.
 *
 * Structure follows the extended Sim-Alpha model of Section 4.1:
 * every active thread has its own PC, fetch buffer, ROB, and return
 * stack; threads share fetch/dispatch/issue/commit bandwidth, the
 * issue queues, physical registers, LSQ, functional units, and the
 * whole cache hierarchy.
 *
 * Stage order inside cycle():
 *   commit -> complete -> issue -> dispatch -> fetch
 * so an instruction spends at least one cycle in each structure.
 *
 * Branch handling uses the standard stream-driven simplification:
 * mispredicted branches stall their thread's fetch until the branch
 * resolves plus the 9-cycle redirect penalty, instead of fetching a
 * wrong path that a synthetic stream cannot supply.  The cost model
 * (lost fetch slots proportional to resolution depth) matches the
 * squash-based one.
 */

#ifndef SMTDRAM_CPU_SMT_CORE_HH
#define SMTDRAM_CPU_SMT_CORE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/bounded_fifo.hh"
#include "common/stats.hh"
#include "common/trace_event.hh"
#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/completion_wheel.hh"
#include "cpu/cpu_config.hh"
#include "cpu/fetch_policy.hh"
#include "cpu/instruction.hh"

namespace smtdram
{

/** Aggregated per-thread performance counters. */
struct ThreadPerf {
    std::uint64_t committedInsts = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
};

/** The SMT processor core. */
class SmtCore
{
  public:
    SmtCore(const CoreConfig &config, Hierarchy &hierarchy);

    /** Attach thread @p tid's instruction source (not owned).
     *  nullptr parks the slot: fetch stops, in-flight work drains. */
    void bindStream(ThreadId tid, InstStream *stream);

    /**
     * True when slot @p tid holds no architectural state worth
     * moving: empty ROB and fetch queue, no stashed op, no
     * unresolved branch.  A parked thread (stream unbound) drains to
     * this state in bounded time; the OS migration engine waits for
     * it before rebinding the thread on another core.
     */
    bool quiescent(ThreadId tid) const;

    /**
     * Land a migrated thread on this core: bind @p stream to slot
     * @p tid and hold fetch until @p resume_at (the migration cost —
     * the pipeline-refill the move costs on a real machine).  The
     * slot must be quiescent.
     */
    void migrateIn(ThreadId tid, InstStream *stream, Cycle resume_at);

    /** Simulate one cycle at time @p now. */
    void cycle(Cycle now);

    /**
     * Earliest cycle > @p now at which cycle() could do anything
     * beyond bumping the rotation counters, assuming no external
     * input (cache-fill events, DRAM completions) arrives first —
     * those are covered by the system-level event sources.  Returns
     * now + 1 whenever any stage has actionable work next cycle
     * (committable ROB head, issuable IQ entry — including a blocked
     * load replay, dispatchable or fetchable thread, pending write
     * buffer); otherwise the min over the future wake-ups the core
     * itself knows (FU completions, decode readyAt, redirect
     * fetchResumeAt); kCycleNever if it is fully quiescent.  Cycles
     * in between are provably no-ops except the rotation counters,
     * which skipCycles() replays exactly.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account @p count skipped no-op cycles: advances cyclesRun_ and
     * the fetch/dispatch/commit rotation counters exactly as @p count
     * idle cycle() calls would have, so round-robin tie-breaking
     * after the skip is bit-identical to the per-cycle kernel.
     */
    void skipCycles(std::uint64_t count);

    const CoreConfig &config() const { return config_; }

    const ThreadPerf &perf(ThreadId tid) const { return perf_[tid]; }

    /**
     * Commits across all threads, maintained incrementally at commit
     * so per-cycle progress checks need not sum per-thread counters.
     */
    std::uint64_t totalCommittedInsts() const { return totalCommitted_; }

    /** ROB entries currently held by @p tid. */
    std::uint32_t
    robOccupancy(ThreadId tid) const
    {
        return robOcc_[tid];
    }

    /** Integer issue-queue entries currently held by @p tid. */
    std::uint32_t
    intIqOccupancy(ThreadId tid) const
    {
        return intIqOcc_[tid];
    }

    /** Thread state piggybacked on DRAM requests (Section 3). */
    ThreadSnapshot snapshot(ThreadId tid) const;

    const BranchPredictor &predictor() const { return predictor_; }

    /** Cycles in which at least one integer instruction issued. */
    std::uint64_t intIssueActiveCycles() const
    {
        return intIssueActiveCycles_;
    }

    std::uint64_t cyclesRun() const { return cyclesRun_; }

    /** Largest ROB occupancy @p tid ever reached. */
    std::uint32_t robHighWater(ThreadId tid) const
    {
        return robHighWater_[tid];
    }

    /** Largest integer-IQ occupancy @p tid ever reached. */
    std::uint32_t intIqHighWater(ThreadId tid) const
    {
        return intIqHighWater_[tid];
    }

    /** Reset the high-water marks (measurement boundary). */
    void resetHighWater();

    /**
     * Attach a tracer (not owned; nullptr detaches): emits one async
     * span per thread covering every window in which fetch cannot
     * take that thread (I-cache miss, unresolved mispredict, redirect
     * penalty, full fetch queue).
     */
    void setTracer(Tracer *tracer);

  private:
    /** Unit tests deliver completions by hand to pin that their
     *  order within a cycle does not matter. */
    friend struct SmtCoreTestPeer;

    // ------------------------------------------------------------------
    /** A fetched instruction waiting in the decode pipe. */
    struct FetchedInst {
        MicroOp op;
        InstSeq seq = 0;
        Cycle readyAt = 0;        ///< earliest dispatch cycle
        bool mispredicted = false;
    };

    /** In-flight instruction state (ROB slot).  After dispatch the
     *  core reads only the op's class and address, so the slot keeps
     *  just those two fields of it. */
    struct DynInst {
        Addr effAddr = 0;
        InstSeq seq = 0;
        /** Head of the chain of IQ operands waiting on this value
         *  (link = 2 * entry + operand + 1; 0 ends the chain). */
        std::uint32_t wakeHead = 0;
        OpClass cls = OpClass::IntAlu;
        enum class State : std::uint8_t {
            Empty,
            Waiting,   ///< in the issue queue
            Issued,    ///< executing / waiting on memory
            Completed,
        };
        State state = State::Empty;
        bool mispredicted = false;
    };

    /** Per-thread architectural state. */
    struct ThreadState {
        InstStream *stream = nullptr;
        BoundedFifo<FetchedInst> fetchQueue;
        InstSeq nextSeq = 0;      ///< next fetch sequence number
        InstSeq robHead = 0;      ///< oldest in-flight seq
        InstSeq robTail = 0;      ///< next seq to dispatch
        std::vector<DynInst> rob; ///< ring buffer, robPerThread slots

        /** Fetch gates. */
        bool icacheBlocked = false;
        Cycle fetchResumeAt = 0;
        /** Set when fetch stalled behind an unresolved mispredict. */
        bool awaitingBranch = false;
        InstSeq awaitedBranchSeq = 0;
        /** Last I-cache line fetched (avoid re-probing per inst). */
        Addr lastFetchLine = kAddrInvalid;
        /** Op generated but not fetched due to a structural stall. */
        MicroOp stashedOp;
        bool stashedOpValid = false;
    };

    // --- pipeline stages ---------------------------------------------
    void commitStage(Cycle now);
    void completeStage(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);
    void fetchStage(Cycle now);
    void drainWriteBuffer(Cycle now);

    /** Fetch's per-thread gate: bound, not waiting on the I-cache or
     *  a mispredict, past any redirect, with fetch-queue room. */
    bool
    canFetch(const ThreadState &t, Cycle now) const
    {
        return t.stream != nullptr && !t.icacheBlocked &&
               !t.awaitingBranch && now >= t.fetchResumeAt &&
               t.fetchQueue.size() < config_.fetchQueueCap;
    }

    /** Fetch up to @p budget instructions from thread @p tid. */
    std::uint32_t fetchFromThread(ThreadId tid, std::uint32_t budget,
                                  Cycle now);

    DynInst &robSlot(ThreadId tid, InstSeq seq);
    const DynInst &robSlot(ThreadId tid, InstSeq seq) const;

    /** The completion-wheel id of (@p tid, @p seq)'s ROB slot. */
    std::uint32_t
    completionId(ThreadId tid, InstSeq seq) const
    {
        return tid * config_.robPerThread +
               static_cast<std::uint32_t>(seq & (config_.robPerThread - 1));
    }

    void markCompleted(ThreadId tid, InstSeq seq, Cycle now);

    void onMissComplete(ThreadId tid, InstSeq seq, AccessKind kind,
                        Cycle when);

    // ------------------------------------------------------------------
    CoreConfig config_;
    Hierarchy &hierarchy_;
    BranchPredictor predictor_;

    std::vector<ThreadState> threads_;
    std::vector<ThreadPerf> perf_;
    /** Sum of perf_[*].committedInsts, updated at commit. */
    std::uint64_t totalCommitted_ = 0;

    /** One issue-queue entry.  ROB rings never reallocate, so `slot`
     *  stays valid for the entry's whole residency.  `pending` counts
     *  operands whose producer was in flight at dispatch and has not
     *  completed; each such operand is linked through `next` into its
     *  producer's wake chain. */
    struct IqEntry {
        DynInst *slot;
        InstSeq seq;
        std::uint64_t stamp;      ///< global dispatch order
        ThreadId tid;
        std::uint32_t pending;
        std::uint32_t next[2];    ///< wake-chain link per operand
    };

    /** One issue queue over its share of iqFile_: the free entries,
     *  and the dep-ready ones in dispatch (age) order. */
    struct IssueQueue {
        std::vector<std::uint32_t> free;
        std::vector<std::uint32_t> ready;
    };

    /** Chain operand @p operand of IQ entry @p id onto the producer
     *  @p dist back from @p seq, if that producer is still in flight
     *  (dispatched, value-producing, not completed). */
    void waitOnProducer(ThreadId tid, InstSeq seq, std::uint8_t dist,
                        std::uint32_t id, unsigned operand);

    /** intIqSize int entries, then fpIqSize fp entries. */
    std::vector<IqEntry> iqFile_;
    IssueQueue intIq_;
    IssueQueue fpIq_;
    std::uint64_t nextStamp_ = 0;
    std::vector<std::uint32_t> intIqOcc_;
    std::vector<std::uint32_t> fpIqOcc_;
    std::vector<std::uint32_t> robOcc_;

    std::uint32_t freeIntRegs_;
    std::uint32_t freeFpRegs_;
    std::uint32_t lqUsed_ = 0;
    std::uint32_t sqUsed_ = 0;

    /** FU completions, by ROB slot (tid * robPerThread + ring index);
     *  a load that misses completes through the fill callback. */
    CompletionWheel completions_;

    /** Retired stores on their way to the L1D. */
    struct PendingStore {
        ThreadId tid;
        Addr vaddr;
    };
    BoundedFifo<PendingStore> writeBuffer_;

    /** Commit stage gate: set by a pass that commits nothing, which
     *  stays fruitless until a head completes (markCompleted) or the
     *  write buffer frees a slot for a store head. */
    bool commitIdle_ = false;

    /** Dispatch stage gate: after a pass that dispatches nothing, the
     *  earliest cycle a stalled front finishes decoding.  Lowered by
     *  fetch into an empty queue; reset to 0 when commit or issue
     *  frees a structural resource. */
    Cycle dispatchWakeAt_ = 0;

    std::uint64_t fetchRotation_ = 0;
    std::uint64_t commitRotation_ = 0;
    std::uint64_t dispatchRotation_ = 0;
    std::uint64_t cyclesRun_ = 0;
    std::uint64_t intIssueActiveCycles_ = 0;

    std::vector<std::uint32_t> robHighWater_;
    std::vector<std::uint32_t> intIqHighWater_;

    Tracer *tracer_ = nullptr;
    /** Cycle each thread's current fetch-stall span opened, or
     *  kCycleNever when the thread is fetchable (trace-only state). */
    std::vector<Cycle> fetchStallSince_;

    // --- Per-cycle stage scratch.  Members (not locals) so the
    //     fetch/dispatch loops never allocate at steady state; each
    //     stage fully rewrites its buffer before reading it.  Member
    //     (not function-static) because the parallel runner ticks one
    //     SmtCore per worker thread. ---
    /** dispatchStage: threads that already stalled this cycle. */
    std::vector<std::uint8_t> dispatchStalled_;
    /** fetchStage: per-thread policy inputs rebuilt each cycle. */
    std::vector<FetchThreadState> fetchStates_;
    /** fetchStage: thread pick order from the fetch policy. */
    std::vector<ThreadId> fetchOrder_;
};

} // namespace smtdram

#endif // SMTDRAM_CPU_SMT_CORE_HH
