/**
 * @file
 * The complete simulated machine, plus the run loop and the samplers
 * behind Figures 4 and 5.
 *
 * The machine is sockets x cores.  Each socket owns a DramSystem;
 * each core is an SmtCore whose cache Hierarchy reaches the home
 * socket's DRAM through the SocketRouter; an OS scheduler layer
 * places (and optionally migrates) threads.  The default 1x1
 * topology is the paper's machine: every access is local and the
 * router is a pass-through.  All hierarchies share one PageTables, so
 * a migrated thread keeps its pages, and every core has a context per
 * OS thread (the SMT-way limit is a placement policy), so per-thread
 * bookkeeping keeps one global thread id across migrations.
 */

#ifndef SMTDRAM_SIM_SMT_SYSTEM_HH
#define SMTDRAM_SIM_SMT_SYSTEM_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "common/trace_event.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"
#include "dram/power_model.hh"
#include "dram/row_hammer.hh"
#include "sim/system_config.hh"
#include "topology/numa_stats.hh"
#include "topology/placement.hh"
#include "topology/socket_router.hh"
#include "workload/spec2000.hh"
#include "workload/synthetic_stream.hh"

namespace smtdram
{

/** Everything a bench needs from one simulation run. */
struct RunResult {
    Cycle measuredCycles = 0;
    /** Per-thread IPC over the measurement window. */
    std::vector<double> ipc;
    std::vector<std::uint64_t> committed;

    // --- DRAM-side measurements, summed over sockets ---
    ControllerStats dram;
    /** Energy/power over the measurement window (always metered). */
    PowerStats power;
    /** Rowhammer disturbance/mitigation counters (zero when off). */
    HammerStats hammer;
    double rowMissRate = 0.0;
    /** Main-memory accesses (reads) per 100 committed instructions. */
    double memAccessPer100 = 0.0;
    /** Figure 4: outstanding requests while the DRAM is busy. */
    Histogram outstandingHist{{1, 4, 8, 16}};
    /** Figure 5: threads contributing when >=2 requests pending. */
    Histogram threadsHist{{1, 2, 3, 4, 5, 6, 7}};
    /** Fraction of cycles a core issued at least one integer
     *  instruction, averaged over cores. */
    double intIssueActiveFrac = 0.0;
    double branchMispredictRate = 0.0;

    // --- Observability-layer distribution views ---
    /** Demand reads delivered per thread over the window. */
    std::vector<std::uint64_t> perThreadReads;
    /** Per-thread DRAM bandwidth share, in percent (one sample per
     *  thread); p-queries answer "how skewed was service?". */
    LogHistogram bandwidthShareHist;

    /** Topology-layer counters.  On a 1x1 machine every access is
     *  local, so only localReads/localWrites move; the remote, link
     *  and migration counters stay zero. */
    NumaStats numa;
};

/** One simulated machine executing a set of application profiles. */
class SmtSystem
{
  public:
    /**
     * @param config machine parameters; config.topology shapes the
     *               machine (1x1 by default).
     * @param apps one profile per OS thread; size must equal
     *             config.core.numThreads.
     * @param seed workload randomness seed (thread i uses seed + i).
     */
    SmtSystem(const SystemConfig &config,
              const std::vector<AppProfile> &apps, std::uint64_t seed);
    ~SmtSystem();

    /**
     * Warm up (unmeasured) then measure.
     *
     * The run ends when every thread has committed @p measure_insts
     * instructions inside the measurement window; each thread's IPC
     * uses the cycle at which *it* reached the budget, so early
     * finishers are not distorted by stragglers (the standard
     * multi-program methodology).
     */
    RunResult run(std::uint64_t measure_insts,
                  std::uint64_t warmup_insts);

    /**
     * Dump per-thread commit counts and the full DRAM-side state —
     * the diagnostic payload printed when the forward-progress
     * watchdog fires.
     */
    void dumpState(std::ostream &os) const;

    /** Stats registry, or nullptr when no stats output is configured. */
    const StatsRegistry *statsRegistry() const { return registry_.get(); }

    /**
     * Write the configured observability outputs (stats JSON/CSV,
     * trace file) for the current state.  Runs at the end of run()
     * and, through the panic hook, when the watchdog or an invariant
     * kills the process, so a wedge leaves a post-mortem.
     */
    void exportObservability();

  private:
    /** Advance the machine one cycle. */
    void stepCycle();

    /**
     * Event-driven kernel: jump the clock to just before the next
     * event of any component, clamped to @p clamp (epoch, migration
     * and watchdog deadlines are always real-stepped).  Returns the
     * number of provably no-op cycles skipped; the caller then
     * stepCycle()s the event cycle itself.
     */
    std::uint64_t skipToNextEvent(Cycle clamp);

    /** Register every component's stats into registry_. */
    void registerStats();

    /** Epoch boundary: sample the registry and emit trace counters. */
    void sampleEpoch();

    /** Structural cache warm-up (see .cc for the methodology). */
    void prewarmCaches(const std::vector<AppProfile> &apps);

    /** Bring every socket's lazy energy accounting up to now_. */
    void syncPower();

    /** Sum one DramSystem::aggregate*Stats over the sockets. */
    template <class S>
    S sumSockets(S (DramSystem::*aggregate)() const) const;
    /** Summed DRAM stats plus the links' interference cycles. */
    ControllerStats aggDramStats() const;
    std::uint32_t totalChannels() const;
    std::uint64_t committedOf(ThreadId tid) const;
    std::uint64_t grandCommitted() const;
    bool dramBusy() const;
    std::size_t dramOutstanding() const;
    std::uint32_t distinctThreadsOutstanding() const;
    std::vector<std::uint64_t> perThreadReads() const;

    // --- OS scheduler: epoch migration engine ----------------------
    void considerMigration();
    void serviceMigrations();

    /** One in-flight thread move (or half of a swap). */
    struct PendingMigration {
        Migration move;
        Cycle since = 0;
    };

    SystemConfig config_;
    EventQueue events_;
    std::unique_ptr<NumaFrameAllocator> alloc_;
    std::unique_ptr<PageTables> pageTables_;
    std::vector<std::unique_ptr<DramSystem>> drams_;
    std::unique_ptr<SocketRouter> router_;
    std::vector<std::unique_ptr<SocketPort>> ports_;
    std::vector<std::unique_ptr<Hierarchy>> hierarchies_;
    std::vector<std::unique_ptr<SmtCore>> cores_;
    std::vector<std::unique_ptr<SyntheticStream>> streams_;
    /** Core currently running each OS thread. */
    std::vector<std::uint32_t> threadCore_;
    Cycle now_ = 0;

    std::vector<PendingMigration> pendingMigrations_;
    Cycle lastMigrateAt_ = 0;
    /** Remote-read counters snapshotted at the last migration epoch. */
    std::vector<std::uint64_t> remoteBase_;
    std::vector<std::vector<std::uint64_t>> toSocketBase_;

    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<StatsRegistry> registry_;
    Cycle lastEpochAt_ = 0;
    /** Cycle the measurement window opened; average power uses it. */
    Cycle statsResetAt_ = 0;
    PanicHookHandle panicHook_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_SIM_SMT_SYSTEM_HH
