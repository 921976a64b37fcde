#include "cache/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

void
HierarchyConfig::validate() const
{
    fatal_if(l1i.lineBytes != l1d.lineBytes ||
                 l1d.lineBytes != l2.lineBytes ||
                 l2.lineBytes != l3.lineBytes,
             "all cache levels must share one line size");
    fatal_if(!isPowerOfTwo(pageBytes), "page size must be a power of 2");
}

Hierarchy::Hierarchy(const HierarchyConfig &config, MemoryPort &dram,
                     EventQueue &events, std::uint32_t num_threads)
    : config_(config),
      dram_(dram),
      events_(events),
      pageTables_(config.pageBytes, num_threads),
      itlb_(config.tlbEntries, config.tlbMissPenalty),
      dtlb_(config.tlbEntries, config.tlbMissPenalty),
      l1i_(config.l1i, "L1I"),
      l1d_(config.l1d, "L1D"),
      l2_(config.l2, "L2"),
      l3_(config.l3, "L3"),
      pendingL1d_(num_threads, 0),
      pendingBeyondL2_(num_threads, 0),
      pendingDram_(num_threads, 0)
{
    config_.validate();
    // Every live entry holds an L1 MSHR or a prefetch MSHR, so this
    // is the most lines that can ever be in flight at once.
    mshrs_.resize(config.l1i.mshrs + config.l1d.mshrs +
                  config.prefetchMshrs);
    mshrLines_.resize(mshrs_.size());
    dram_.setReadCallback([this](const DramRequest &req) {
        scheduleFill(req.addr,
                     std::max(req.completion + config_.dramReturnOverhead,
                              events_.now()));
    });
}

Hierarchy::Mshr *
Hierarchy::findMshr(Addr line_addr)
{
    const auto live = mshrLines_.begin() + mshrsLive_;
    const auto it = std::find(mshrLines_.begin(), live, line_addr);
    return it == live ? nullptr : &mshrs_[it - mshrLines_.begin()];
}

Hierarchy::Mshr &
Hierarchy::allocateMshr(Addr line_addr, MissSource source)
{
    panic_if(mshrsLive_ == mshrs_.size(),
             "MSHR file of %zu entries overflowed", mshrs_.size());
    mshrLines_[mshrsLive_] = line_addr;
    Mshr &m = mshrs_[mshrsLive_++];
    m.source = source;
    m.fillL1i = m.fillL1d = m.dirtyOnFill = m.prefetch = false;
    m.targets.clear();
    return m;
}

void
Hierarchy::addTarget(Mshr &m, AccessKind kind, ThreadId tid, InstSeq seq)
{
    m.targets.push_back(Target{seq, tid, kind});
    if (kind != AccessKind::InstFetch)
        ++pendingL1d_[tid];
    if (kind == AccessKind::Store)
        m.dirtyOnFill = true;
    if (m.source != MissSource::L2)
        ++pendingBeyondL2_[tid];
    if (m.source == MissSource::Dram)
        ++pendingDram_[tid];
}

void
Hierarchy::scheduleFill(Addr line_addr, Cycle when)
{
    events_.schedule(when, [this, line_addr] { handleFill(line_addr); });
}

AccessResult
Hierarchy::access(AccessKind kind, ThreadId tid, InstSeq seq, Addr vaddr,
                  Cycle now)
{
    const bool is_fetch = kind == AccessKind::InstFetch;
    Tlb &tlb = is_fetch ? itlb_ : dtlb_;
    const TlbTranslation xlate = tlb.translate(tid, vaddr, *pt_);
    const Cycle tlb_penalty = xlate.penalty;
    const Addr line = lineAlign(xlate.paddr);

    CacheArray &l1 = is_fetch ? l1i_ : l1d_;
    std::uint32_t &l1_mshr_used = is_fetch ? mshrUsedL1i_ : mshrUsedL1d_;

    AccessResult res;

    // Each level is searched once: a miss is recorded later from the
    // slot found here, and no tag array changes in between.
    const CacheArray::Slot at_l1 = l1.find(line);
    if (at_l1.hit) {
        l1.record(at_l1, kind == AccessKind::Store);
        res.status = AccessResult::Status::Hit;
        res.latency = l1.config().latency + tlb_penalty;
        return res;
    }

    // --- L1 miss: coalesce into an in-flight line if possible ------
    if (Mshr *inflight = findMshr(line)) {
        Mshr &m = *inflight;
        const bool needs_l1_slot =
            is_fetch ? !m.fillL1i : !m.fillL1d;
        if (needs_l1_slot && l1_mshr_used >= l1.config().mshrs) {
            ++blockedAccesses_;
            return res;  // Blocked
        }
        if (needs_l1_slot) {
            ++l1_mshr_used;
            (is_fetch ? m.fillL1i : m.fillL1d) = true;
        }
        l1.record(at_l1, false);  // the demand miss
        addTarget(m, kind, tid, seq);
        ++coalescedTargets_;
        res.status = AccessResult::Status::Pending;
        return res;
    }

    // --- New miss: classify, check resources, then commit ----------
    const CacheArray::Slot at_l2 = l2_.find(line);
    const CacheArray::Slot at_l3 =
        at_l2.hit ? CacheArray::Slot{} : l3_.find(line);
    const MissSource source = at_l2.hit   ? MissSource::L2
                              : at_l3.hit ? MissSource::L3
                                          : MissSource::Dram;

    if (l1_mshr_used >= l1.config().mshrs) {
        ++blockedAccesses_;
        return res;
    }
    if (source != MissSource::L2 && mshrUsedL2_ >= l2_.config().mshrs) {
        ++blockedAccesses_;
        return res;
    }
    if (source == MissSource::Dram) {
        if (mshrUsedL3_ >= l3_.config().mshrs ||
            !dram_.canAccept(line, MemOp::Read)) {
            ++blockedAccesses_;
            return res;
        }
    }

    // Committed: record demand stats from the searches above.
    l1.record(at_l1, false);
    l2_.record(at_l2, false);
    if (source != MissSource::L2)
        l3_.record(at_l3, false);

    if (auto it_pf = prefetchedLines_.find(line);
        it_pf != prefetchedLines_.end()) {
        ++prefetchesUseful_;
        prefetchedLines_.erase(it_pf);
    }

    Mshr &m = allocateMshr(line, source);
    (is_fetch ? m.fillL1i : m.fillL1d) = true;
    addTarget(m, kind, tid, seq);

    ++l1_mshr_used;
    if (source != MissSource::L2)
        ++mshrUsedL2_;
    if (source == MissSource::Dram)
        ++mshrUsedL3_;

    switch (source) {
      case MissSource::L2:
        scheduleFill(line, now + l1.config().latency +
                               l2_.config().latency);
        break;
      case MissSource::L3:
        scheduleFill(line, now + l1.config().latency +
                               l2_.config().latency +
                               l3_.config().latency);
        break;
      case MissSource::Dram: {
        ThreadSnapshot snap;
        if (snapshotProvider_)
            snap = snapshotProvider_(tid);
        // "including this one" — the counter was bumped above, but a
        // provider computing from its own state may not know yet.
        snap.outstandingRequests =
            std::max(snap.outstandingRequests, pendingDram_[tid]);
        // The processor waits on loads and fetches; store fills are
        // not critical (criticality-based scheduling input).
        dram_.enqueueRead(line, tid, snap, now,
                          kind != AccessKind::Store);
        ++dramReadsIssued_;
        if (config_.prefetchNextLine)
            maybePrefetch(tid, line, now);
        break;
      }
    }

    res.status = AccessResult::Status::Pending;
    return res;
}

void
Hierarchy::maybePrefetch(ThreadId tid, Addr demand_line, Cycle now)
{
    const Addr line = demand_line + config_.l1d.lineBytes;
    if (mshrUsedPrefetch_ >= config_.prefetchMshrs)
        return;
    if (findMshr(line) || l2_.probe(line) || l3_.probe(line))
        return;
    if (!dram_.canAccept(line, MemOp::Read))
        return;

    allocateMshr(line, MissSource::Dram).prefetch = true;
    ++mshrUsedPrefetch_;

    ThreadSnapshot snap;
    if (snapshotProvider_)
        snap = snapshotProvider_(tid);
    dram_.enqueueRead(line, tid, snap, now, /* critical */ false);
    ++prefetchesIssued_;
    if (prefetchedLines_.size() > 65536)
        prefetchedLines_.clear();
    prefetchedLines_.insert(line);
}

void
Hierarchy::writebackInto(CacheArray &level, Addr line_addr, Cycle now)
{
    // A present line absorbs the writeback; an absent one is installed.
    const CacheArray::Victim victim = level.fill(line_addr, true);
    if (!victim.valid || !victim.dirty)
        return;
    if (&level == &l2_) {
        writebackInto(l3_, victim.lineAddr, now);
    } else {
        panic_if(&level != &l3_, "writeback into unexpected level");
        queueDramWrite(victim.lineAddr, now);
    }
}

void
Hierarchy::queueDramWrite(Addr line_addr, Cycle now)
{
    if (pendingWritebacks_.empty() &&
        dram_.canAccept(line_addr, MemOp::Write)) {
        dram_.enqueueWrite(line_addr, now);
        ++dramWritesIssued_;
    } else {
        pendingWritebacks_.push_back(line_addr);
    }
}

void
Hierarchy::handleFill(Addr line_addr)
{
    const Cycle now = events_.now();
    Mshr *found = findMshr(line_addr);
    panic_if(!found, "fill for unknown line %#llx",
             (unsigned long long)line_addr);
    // Release the entry: the last live entry takes its place, and it
    // moves just past the live ones, where it stays intact until the
    // next allocation (nothing below allocates).
    const size_t freed = found - mshrs_.data();
    const size_t last = --mshrsLive_;
    std::swap(mshrs_[freed], mshrs_[last]);
    mshrLines_[freed] = mshrLines_[last];
    Mshr &m = mshrs_[last];

    // Install outermost-first so inner victims can land outward.
    if (m.source == MissSource::Dram) {
        const CacheArray::Victim v = l3_.fill(line_addr, false);
        if (v.valid && v.dirty)
            queueDramWrite(v.lineAddr, now);
    }
    if (m.source != MissSource::L2) {
        const CacheArray::Victim v = l2_.fill(line_addr, false);
        if (v.valid && v.dirty)
            writebackInto(l3_, v.lineAddr, now);
    }
    if (m.fillL1i)
        l1i_.fill(line_addr, false);  // instruction lines are never dirty
    if (m.fillL1d) {
        const CacheArray::Victim v = l1d_.fill(line_addr, m.dirtyOnFill);
        if (v.valid && v.dirty)
            writebackInto(l2_, v.lineAddr, now);
    }

    // Release MSHRs.
    if (m.prefetch) {
        panic_if(mshrUsedPrefetch_ == 0, "prefetch MSHR underflow");
        --mshrUsedPrefetch_;
    }
    if (m.fillL1i) {
        panic_if(mshrUsedL1i_ == 0, "L1I MSHR underflow");
        --mshrUsedL1i_;
    }
    if (m.fillL1d) {
        panic_if(mshrUsedL1d_ == 0, "L1D MSHR underflow");
        --mshrUsedL1d_;
    }
    if (!m.prefetch) {
        if (m.source != MissSource::L2) {
            panic_if(mshrUsedL2_ == 0, "L2 MSHR underflow");
            --mshrUsedL2_;
        }
        if (m.source == MissSource::Dram) {
            panic_if(mshrUsedL3_ == 0, "L3 MSHR underflow");
            --mshrUsedL3_;
        }
    }

    // Complete every coalesced target.
    for (const Target &t : m.targets) {
        if (t.kind != AccessKind::InstFetch) {
            panic_if(pendingL1d_[t.tid] == 0, "pendingL1d underflow");
            --pendingL1d_[t.tid];
        }
        if (m.source != MissSource::L2) {
            panic_if(pendingBeyondL2_[t.tid] == 0,
                     "pendingBeyondL2 underflow");
            --pendingBeyondL2_[t.tid];
        }
        if (m.source == MissSource::Dram) {
            panic_if(pendingDram_[t.tid] == 0, "pendingDram underflow");
            --pendingDram_[t.tid];
        }
        if (missCallback_)
            missCallback_(t.tid, t.seq, t.kind, now);
    }
}

void
Hierarchy::preallocate(ThreadId tid, Addr vstart, std::uint64_t bytes)
{
    const Addr page = Addr{1} << pt_->pageShift();
    for (Addr v = vstart; v < vstart + bytes; v += page)
        (void)pt_->translate(tid, v);
}

void
Hierarchy::prewarmLine(ThreadId tid, Addr vaddr, bool into_l1)
{
    const Addr line = lineAlign(pt_->translate(tid, vaddr));
    l3_.fill(line, false);
    l2_.fill(line, false);
    if (into_l1)
        l1d_.fill(line, false);
}

void
Hierarchy::tick(Cycle now)
{
    while (!pendingWritebacks_.empty() &&
           dram_.canAccept(pendingWritebacks_.front(), MemOp::Write)) {
        dram_.enqueueWrite(pendingWritebacks_.front(), now);
        ++dramWritesIssued_;
        pendingWritebacks_.pop_front();
    }
}

void
Hierarchy::resetStats()
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    l3_.resetStats();
    itlb_.resetStats();
    dtlb_.resetStats();
    dramReadsIssued_ = 0;
    dramWritesIssued_ = 0;
    blockedAccesses_ = 0;
    coalescedTargets_ = 0;
    prefetchesIssued_ = 0;
    prefetchesUseful_ = 0;
}

} // namespace smtdram
