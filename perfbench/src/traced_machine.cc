#include "traced_machine.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/watchdog.hh"
#include "layer_profile.hh"

using namespace smtdram;

namespace perfbench
{

std::string
Fingerprint::str() const
{
    std::string s = "cycles=" + std::to_string(measuredCycles) +
                    " committed=";
    for (std::size_t i = 0; i < committed.size(); ++i)
        s += (i ? "," : "") + std::to_string(committed[i]);
    s += " ipc=";
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                      ipc[i]);
        s += buf;
    }
    s += " dram_reads=" + std::to_string(dramReads) +
         " dram_writes=" + std::to_string(dramWrites) +
         " row_hits=" + std::to_string(rowHits);
    return s;
}

Fingerprint
fingerprintOf(const RunResult &r)
{
    Fingerprint f;
    f.measuredCycles = r.measuredCycles;
    f.committed = r.committed;
    f.ipc = r.ipc;
    f.dramReads = r.dram.reads;
    f.dramWrites = r.dram.writes;
    f.rowHits = r.dram.rowHits;
    return f;
}

void
DriverCounts::add(const DriverCounts &o)
{
    loopCycles += o.loopCycles;
    measuredCycles += o.measuredCycles;
    committed += o.committed;
    fetched += o.fetched;
    branches += o.branches;
    mispredicts += o.mispredicts;
    intIssueActiveCycles += o.intIssueActiveCycles;
    l1dAccesses += o.l1dAccesses;
    l1dMisses += o.l1dMisses;
    l2Accesses += o.l2Accesses;
    l2Misses += o.l2Misses;
    l3Accesses += o.l3Accesses;
    l3Misses += o.l3Misses;
    mshrCoalesced += o.mshrCoalesced;
    blockedAccesses += o.blockedAccesses;
    prefetchesIssued += o.prefetchesIssued;
    prefetchesUseful += o.prefetchesUseful;
    dramReadsIssued += o.dramReadsIssued;
    dramWritesIssued += o.dramWritesIssued;
    workloadOps += o.workloadOps;
    portCalls += o.portCalls;
    portRejects += o.portRejects;
}

MicroOp
TimedStream::next()
{
    Span span(Layer::Workload);
    ++ops_;
    return inner_.next();
}

bool
TimedPort::canAccept(Addr addr, MemOp op) const
{
    Span span(Layer::DramPort);
    ++calls_;
    const bool ok = inner_.canAccept(addr, op);
    if (!ok)
        ++rejects_;
    return ok;
}

std::uint64_t
TimedPort::enqueueRead(Addr addr, ThreadId thread,
                       const ThreadSnapshot &snap, Cycle now,
                       bool critical)
{
    Span span(Layer::DramPort);
    ++calls_;
    return inner_.enqueueRead(addr, thread, snap, now, critical);
}

std::uint64_t
TimedPort::enqueueWrite(Addr addr, Cycle now)
{
    Span span(Layer::DramPort);
    ++calls_;
    return inner_.enqueueWrite(addr, now);
}

void
TimedPort::setReadCallback(ReadCallback cb)
{
    inner_.setReadCallback([cb = std::move(cb)](const DramRequest &req) {
        Span span(Layer::CacheFill);
        cb(req);
    });
}

TracedMachine::TracedMachine(const SystemConfig &config,
                             const std::vector<AppProfile> &apps,
                             std::uint64_t seed)
    : config_(config)
{
    fatal_if(config_.topology.active(),
             "the traced driver models the single-socket machine only");
    fatal_if(apps.size() != config_.core.numThreads,
             "%zu application profiles for %u hardware threads",
             apps.size(), config_.core.numThreads);
    CoarseTimer coarse("construct", "sim");
    {
        Span span(Layer::SimConstruct);
        dram_ = std::make_unique<DramSystem>(config_.dram,
                                             config_.scheduler);
        port_ = std::make_unique<TimedPort>(*dram_);
        hierarchy_ = std::make_unique<Hierarchy>(
            config_.hierarchy, *port_, events_,
            config_.core.numThreads);
        core_ = std::make_unique<SmtCore>(config_.core, *hierarchy_);
        streams_.reserve(apps.size());
        for (std::size_t i = 0; i < apps.size(); ++i) {
            // Same per-thread seed derivation as SmtSystem.
            streams_.push_back(std::make_unique<TimedStream>(
                apps[i], seed + i * 0x1000'0001ULL));
            core_->bindStream(static_cast<ThreadId>(i),
                              streams_.back().get());
        }
    }
    Span span(Layer::CachePrewarm);
    prewarmCaches(apps);
}

void
TracedMachine::prewarmCaches(const std::vector<AppProfile> &apps)
{
    // A copy of SmtSystem::prewarmCaches (private there): address
    // spaces laid out region by region, then hot sets into the L1D
    // and the L3-sized slice of each cold set into L2/L3, threads
    // interleaved page by page.
    const std::uint64_t line = config_.hierarchy.l1d.lineBytes;
    const std::uint64_t chunk = config_.hierarchy.pageBytes;
    const std::uint64_t cold_cap = config_.hierarchy.l3.sizeBytes;

    auto cold_prewarm_bytes = [cold_cap](const AppProfile &a) {
        if (a.coldBytes > cold_cap &&
            (a.coldPattern == AccessPattern::Streaming ||
             a.coldPattern == AccessPattern::Strided ||
             a.coldPattern == AccessPattern::RowHammer)) {
            return std::uint64_t{0};
        }
        return std::min<std::uint64_t>(a.coldBytes, cold_cap);
    };

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        const AppProfile &a = apps[i];
        hierarchy_->preallocate(tid, SyntheticStream::kCodeBase,
                                a.codeBytes);
        hierarchy_->preallocate(tid, SyntheticStream::kHotBase,
                                a.hotBytes);
        hierarchy_->preallocate(tid, SyntheticStream::kColdBase,
                                a.coldBytes);
    }

    std::uint64_t max_bytes = 0;
    for (const AppProfile &a : apps) {
        max_bytes = std::max(max_bytes, a.hotBytes);
        max_bytes = std::max(max_bytes, cold_prewarm_bytes(a));
    }

    for (std::uint64_t base = 0; base < max_bytes; base += chunk) {
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const auto tid = static_cast<ThreadId>(i);
            const AppProfile &a = apps[i];
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, a.hotBytes);
                 off += line) {
                hierarchy_->prewarmLine(
                    tid, SyntheticStream::kHotBase + off, true);
            }
            const std::uint64_t cold_limit = cold_prewarm_bytes(a);
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, cold_limit);
                 off += line) {
                hierarchy_->prewarmLine(
                    tid, SyntheticStream::kColdBase + off, false);
            }
        }
    }
}

void
TracedMachine::stepCycle()
{
    ++now_;
    {
        Span span(Layer::CacheFill);
        events_.runUntil(now_);
    }
    {
        Span span(Layer::DramTick);
        dram_->tick(now_);
    }
    {
        Span span(Layer::CacheTick);
        hierarchy_->tick(now_);
    }
    Span span(Layer::Cpu);
    core_->cycle(now_);
}

std::uint64_t
TracedMachine::skipToNextEvent(Cycle clamp)
{
    // SmtSystem::skipToNextEvent, step for step.
    Cycle next = core_->nextEventAt(now_);
    if (next > now_ + 1 && hierarchy_->pendingWritebacks() > 0)
        next = now_ + 1;
    if (next > now_ + 1)
        next = std::min(next, events_.nextEventAt());
    if (next > now_ + 1)
        next = std::min(next, dram_->nextEventAt(now_));
    if (next <= now_ + 1)
        return 0;
    panic_if(next == kCycleNever && clamp == kCycleNever,
             "traced driver: no pending event at cycle %llu",
             (unsigned long long)now_);
    next = std::min(next, clamp);
    if (next <= now_ + 1)
        return 0;
    const std::uint64_t skipped = next - now_ - 1;
    core_->skipCycles(skipped);
    now_ = next - 1;
    return skipped;
}

Fingerprint
TracedMachine::run(std::uint64_t measure_insts,
                   std::uint64_t warmup_insts, DriverCounts &counts)
{
    Span loop_span(Layer::SimLoop);
    const std::uint32_t n = config_.core.numThreads;

    auto all_committed = [this, n](std::uint64_t target,
                                   std::uint64_t grand_base,
                                   const std::vector<std::uint64_t>
                                       &base) {
        if (core_->totalCommittedInsts() - grand_base <
            static_cast<std::uint64_t>(n) * target)
            return false;
        for (ThreadId t = 0; t < n; ++t) {
            if (core_->perf(t).committedInsts - base[t] < target)
                return false;
        }
        return true;
    };

    Watchdog watchdog(config_.progressWindow, "commit progress");
    watchdog.kick(now_);
    const auto dump = [this] { dram_->dumpState(std::cerr); };
    const bool event_driven =
        config_.kernel == KernelMode::EventDriven;
    const auto watchdog_clamp = [&watchdog] {
        return watchdog.bound() > 0
                   ? watchdog.lastProgressAt() + watchdog.bound() + 1
                   : kCycleNever;
    };

    const Cycle loop_start = now_;
    std::vector<std::uint64_t> zero(n, 0);
    std::uint64_t last_total = core_->totalCommittedInsts();
    {
        CoarseTimer warm("warm-up", "sim");
        while (!all_committed(warmup_insts, 0, zero)) {
            if (event_driven)
                skipToNextEvent(watchdog_clamp());
            stepCycle();
            const std::uint64_t total = core_->totalCommittedInsts();
            if (total != last_total) {
                last_total = total;
                watchdog.kick(now_);
            }
            watchdog.checkOrDie(now_, dump);
        }
    }

    hierarchy_->resetStats();
    dram_->resetStats(now_);
    core_->resetHighWater();

    std::vector<std::uint64_t> base(n);
    std::uint64_t base_branches = 0, base_mispredicts = 0;
    for (ThreadId t = 0; t < n; ++t) {
        base[t] = core_->perf(t).committedInsts;
        base_branches += core_->perf(t).branches;
        base_mispredicts += core_->perf(t).mispredicts;
    }
    const std::uint64_t grand_base = core_->totalCommittedInsts();
    const Cycle start = now_;
    const std::uint64_t int_issue_base = core_->intIssueActiveCycles();

    // Figures 4 and 5 samplers, kept so the loop does SmtSystem's work.
    Histogram outstanding_hist{{1, 4, 8, 16}};
    Histogram threads_hist{{1, 2, 3, 4, 5, 6, 7}};
    std::vector<Cycle> finish(n, 0);

    {
        CoarseTimer measure("measure", "sim");
        while (!all_committed(measure_insts, grand_base, base)) {
            if (event_driven) {
                const std::uint64_t skipped =
                    skipToNextEvent(watchdog_clamp());
                if (skipped > 0 && dram_->busy()) {
                    const std::size_t outstanding =
                        dram_->outstandingRequests();
                    outstanding_hist.sample(outstanding, skipped);
                    if (outstanding >= 2) {
                        threads_hist.sample(
                            dram_->distinctThreadsOutstanding(),
                            skipped);
                    }
                }
            }
            stepCycle();

            if (dram_->busy()) {
                const std::size_t outstanding =
                    dram_->outstandingRequests();
                outstanding_hist.sample(outstanding);
                if (outstanding >= 2)
                    threads_hist.sample(
                        dram_->distinctThreadsOutstanding());
            }

            const std::uint64_t total = core_->totalCommittedInsts();
            if (total != last_total) {
                last_total = total;
                for (ThreadId t = 0; t < n; ++t) {
                    if (finish[t] == 0 &&
                        core_->perf(t).committedInsts - base[t] >=
                            measure_insts)
                        finish[t] = now_;
                }
                watchdog.kick(now_);
            }
            watchdog.checkOrDie(now_, dump);
        }
    }

    Fingerprint f;
    f.measuredCycles = now_ - start;
    f.committed.assign(n, 0);
    f.ipc.assign(n, 0.0);
    DriverCounts c;
    for (ThreadId t = 0; t < n; ++t) {
        if (finish[t] == 0)
            finish[t] = now_;
        f.committed[t] = core_->perf(t).committedInsts - base[t];
        f.ipc[t] = static_cast<double>(measure_insts) /
                   static_cast<double>(finish[t] - start);
        // Whole-loop totals: instructions fetched in warm-up commit in
        // the measured window, so windowed counts do not compare.
        c.committed += core_->perf(t).committedInsts;
        c.fetched += core_->perf(t).fetchedInsts;
        c.branches += core_->perf(t).branches;
        c.mispredicts += core_->perf(t).mispredicts;
    }
    const ControllerStats dram = dram_->aggregateStats();
    f.dramReads = dram.reads;
    f.dramWrites = dram.writes;
    f.rowHits = dram.rowHits;

    c.loopCycles = now_ - loop_start;
    c.measuredCycles = f.measuredCycles;
    c.branches -= base_branches;
    c.mispredicts -= base_mispredicts;
    c.intIssueActiveCycles =
        core_->intIssueActiveCycles() - int_issue_base;
    const Hierarchy &h = *hierarchy_;
    c.l1dAccesses = h.l1d().demandStats().total();
    c.l1dMisses = h.l1d().demandStats().misses();
    c.l2Accesses = h.l2().demandStats().total();
    c.l2Misses = h.l2().demandStats().misses();
    c.l3Accesses = h.l3().demandStats().total();
    c.l3Misses = h.l3().demandStats().misses();
    c.mshrCoalesced = h.coalescedTargets();
    c.blockedAccesses = h.blockedAccesses();
    c.prefetchesIssued = h.prefetchesIssued();
    c.prefetchesUseful = h.prefetchesUseful();
    c.dramReadsIssued = h.dramReadsIssued();
    c.dramWritesIssued = h.dramWritesIssued();
    for (const auto &s : streams_)
        c.workloadOps += s->ops();
    c.portCalls = port_->calls();
    c.portRejects = port_->rejects();
    counts.add(c);
    return f;
}

} // namespace perfbench
