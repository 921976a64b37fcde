#include "cpu/smt_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

void
CoreConfig::validate() const
{
    fatal_if(numThreads == 0, "need at least one hardware thread");
    fatal_if(fetchThreadsPerCycle == 0 || fetchWidth == 0,
             "fetch width parameters must be non-zero");
    fatal_if(robPerThread == 0 || !isPowerOfTwo(robPerThread),
             "ROB size per thread must be a power of 2");
    // Dependency distances are 8-bit, so a producer is always still
    // inside the ring when its consumer enters.
    fatal_if(robPerThread < 256,
             "ROB per thread must be at least 256 to cover 8-bit "
             "dependency distances");
    fatal_if(intRegs <= archRegsPerThread * numThreads ||
                 fpRegs <= archRegsPerThread * numThreads,
             "physical registers do not cover architectural state "
             "of %u threads", numThreads);
}

SmtCore::SmtCore(const CoreConfig &config, Hierarchy &hierarchy)
    : config_(config),
      hierarchy_(hierarchy),
      predictor_(BranchPredictorConfig{}, config.numThreads),
      threads_(config.numThreads),
      perf_(config.numThreads),
      intIqOcc_(config.numThreads, 0),
      fpIqOcc_(config.numThreads, 0),
      robOcc_(config.numThreads, 0),
      freeIntRegs_(config.intRegs -
                   config.archRegsPerThread * config.numThreads),
      freeFpRegs_(config.fpRegs -
                  config.archRegsPerThread * config.numThreads),
      robHighWater_(config.numThreads, 0),
      intIqHighWater_(config.numThreads, 0),
      fetchStallSince_(config.numThreads, kCycleNever)
{
    config_.validate();
    for (auto &t : threads_) {
        t.rob.resize(config_.robPerThread);
        t.fetchQueue.init(config_.fetchQueueCap);
    }
    writeBuffer_.init(config_.writeBufferCap);
    intIq_.reserve(config_.intIqSize);
    fpIq_.reserve(config_.fpIqSize);

    hierarchy_.setMissCallback(
        [this](ThreadId tid, InstSeq seq, AccessKind kind, Cycle when) {
            onMissComplete(tid, seq, kind, when);
        });
    hierarchy_.setSnapshotProvider(
        [this](ThreadId tid) { return snapshot(tid); });
}

void
SmtCore::resetHighWater()
{
    // The marks restart from the live occupancy, not zero: a ROB
    // that never drains below 100 entries has a high-water of at
    // least 100 over any window.
    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        robHighWater_[tid] = robOcc_[tid];
        intIqHighWater_[tid] = intIqOcc_[tid];
    }
}

void
SmtCore::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (!tracer_)
        return;
    tracer_->nameProcess(kTracePidCpu, "cpu");
    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        tracer_->nameThread(kTracePidCpu, tid,
                            "thread" + std::to_string(tid));
    }
}

void
SmtCore::bindStream(ThreadId tid, InstStream *stream)
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    ThreadState &t = threads_[tid];
    t.stream = stream;
    // Parking must discard a stashed (fetched-but-blocked) op: only a
    // fetch retry can consume it, a parked slot never fetches, and
    // quiescence requires the stash to be empty — keeping it would
    // wedge the migration waiting on this slot forever.
    if (stream == nullptr)
        t.stashedOpValid = false;
}

bool
SmtCore::quiescent(ThreadId tid) const
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    const ThreadState &t = threads_[tid];
    return robOcc_[tid] == 0 && t.fetchQueue.empty() &&
           !t.stashedOpValid && !t.awaitingBranch;
}

void
SmtCore::migrateIn(ThreadId tid, InstStream *stream, Cycle resume_at)
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    panic_if(!quiescent(tid),
             "thread %u migrated onto a non-quiescent slot", tid);
    ThreadState &t = threads_[tid];
    t.stream = stream;
    t.fetchResumeAt = std::max(t.fetchResumeAt, resume_at);
    // The new core's I-cache knows nothing about this thread; drop
    // the line-reuse shortcut so the first fetch probes for real.
    t.lastFetchLine = kAddrInvalid;
}

ThreadSnapshot
SmtCore::snapshot(ThreadId tid) const
{
    ThreadSnapshot s;
    s.outstandingRequests = hierarchy_.pendingDramReads(tid);
    s.robOccupancy = robOcc_[tid];
    s.iqOccupancy = intIqOcc_[tid];
    return s;
}

SmtCore::DynInst &
SmtCore::robSlot(ThreadId tid, InstSeq seq)
{
    return threads_[tid].rob[seq & (config_.robPerThread - 1)];
}

const SmtCore::DynInst &
SmtCore::robSlot(ThreadId tid, InstSeq seq) const
{
    return threads_[tid].rob[seq & (config_.robPerThread - 1)];
}

const SmtCore::DynInst *
SmtCore::resolveProducer(ThreadId tid, InstSeq seq, std::uint8_t dist,
                         InstSeq &pseq_out) const
{
    pseq_out = 0;
    if (dist == 0)
        return nullptr;
    if (static_cast<InstSeq>(dist) > seq)
        return nullptr;  // producer precedes the measured stream
    const InstSeq pseq = seq - dist;
    if (pseq < threads_[tid].robHead)
        return nullptr;  // producer already committed
    const DynInst &p = robSlot(tid, pseq);
    panic_if(p.seq != pseq, "ROB ring corrupted (seq %llu vs %llu)",
             (unsigned long long)p.seq, (unsigned long long)pseq);
    if (!producesValue(p.op.cls))
        return nullptr;
    pseq_out = pseq;
    return &p;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
SmtCore::commitStage(Cycle now)
{
    (void)now;
    std::uint32_t budget = config_.commitWidth;
    const std::uint32_t n = config_.numThreads;
    const std::uint64_t start = commitRotation_++;

    for (std::uint32_t i = 0; i < n && budget > 0; ++i) {
        const ThreadId tid = static_cast<ThreadId>((start + i) % n);
        ThreadState &t = threads_[tid];
        while (budget > 0 && t.robHead < t.robTail) {
            DynInst &slot = robSlot(tid, t.robHead);
            panic_if(slot.seq != t.robHead, "commit ring mismatch");
            if (slot.state != DynInst::State::Completed)
                break;
            if (slot.op.cls == OpClass::Store) {
                if (writeBuffer_.size() >= config_.writeBufferCap)
                    break;  // this thread's commit stalls
                writeBuffer_.push_back(
                    PendingStore{tid, slot.op.effAddr});
            }
            if (producesValue(slot.op.cls)) {
                if (slot.isFp)
                    ++freeFpRegs_;
                else
                    ++freeIntRegs_;
            }
            if (slot.op.cls == OpClass::Load) {
                panic_if(lqUsed_ == 0, "LQ underflow");
                --lqUsed_;
            }
            if (slot.op.cls == OpClass::Store) {
                panic_if(sqUsed_ == 0, "SQ underflow");
                --sqUsed_;
            }
            slot.state = DynInst::State::Empty;
            panic_if(robOcc_[tid] == 0, "ROB occupancy underflow");
            --robOcc_[tid];
            ++t.robHead;
            ++perf_[tid].committedInsts;
            ++totalCommitted_;
            --budget;
        }
    }
}

// --------------------------------------------------------------------
// Complete
// --------------------------------------------------------------------

void
SmtCore::markCompleted(ThreadId tid, InstSeq seq, Cycle now)
{
    ThreadState &t = threads_[tid];
    if (seq < t.robHead)
        return;  // already committed (should not happen)
    DynInst &slot = robSlot(tid, seq);
    if (slot.seq != seq || slot.state == DynInst::State::Completed ||
        slot.state == DynInst::State::Empty) {
        return;
    }
    slot.state = DynInst::State::Completed;
    issueScanNeeded_ = true;   // dependents may be ready now
    depRecheckNeeded_ = true;  // existing ready bits may be stale

    if (slot.mispredicted && t.awaitingBranch &&
        t.awaitedBranchSeq == seq) {
        // Redirect: fetch restarts after the fixed front-end penalty.
        t.awaitingBranch = false;
        t.fetchResumeAt = now + config_.mispredictPenalty;
    }
}

void
SmtCore::completeStage(Cycle now)
{
    while (!completions_.empty() && completions_.top().when <= now) {
        const Completion c = completions_.top();
        completions_.pop();
        markCompleted(c.tid, c.seq, now);
    }
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

void
SmtCore::issueStage(Cycle now)
{
    // Readiness is monotone: a waiting instruction's producers only
    // ever move toward Completed (markCompleted is the sole Waiting/
    // Issued -> Completed transition, and commit requires Completed
    // first, so advancing robHead never newly enables a consumer).
    // A full scan that found nothing dep-ready therefore stays
    // fruitless until a completion lands or dispatch inserts a new
    // entry — both set issueScanNeeded_.  Skipping those cycles is
    // stat-identical: a fruitless scan issues nothing and touches no
    // counters.
    if (!issueScanNeeded_ || (intIq_.empty() && fpIq_.empty()))
        return;

    std::uint32_t alu = config_.intAluUnits;
    std::uint32_t mult = config_.intMultUnits;
    std::uint32_t ports = config_.cachePorts;
    std::uint32_t int_budget = config_.intIssueWidth;
    std::uint32_t issued_int = 0;

    // True when some dep-ready entry was left unissued (width, unit,
    // or port pressure, or a blocked cache probe): resources reset
    // next cycle, so the scan must re-run even with no new event.
    bool leftover_ready = false;

    // Ready bits are exact except after a completion: dispatch
    // computes them on insert, and only markCompleted can flip a
    // producer under an existing entry.  On recheck-free cycles a
    // non-ready entry is skipped without touching its producers.
    const bool recheck = depRecheckNeeded_;
    // A budget early-out leaves tail entries un-rechecked (their bits
    // may still be stale), so the flag only clears on a full pass
    // over both queues.
    bool full_scan = true;

    auto issue_from = [&](std::vector<IqRef> &iq, bool is_fp,
                          std::uint32_t &budget,
                          std::uint32_t &fu_a, std::uint32_t &fu_b) {
        size_t keep = 0;
        for (size_t i = 0; i < iq.size(); ++i) {
            // Once the width or both functional units are exhausted
            // nothing further can issue, so the tail survives as-is:
            // compact it in one pass instead of re-testing per entry.
            if (budget == 0 || (fu_a == 0 && fu_b == 0)) {
                leftover_ready = true;  // unknown tail: rescan
                full_scan = false;
                if (keep == i) {
                    keep = iq.size();
                } else {
                    for (; i < iq.size(); ++i)
                        iq[keep++] = iq[i];
                }
                break;
            }
            IqRef ref = iq[i];
            bool issued = false;
            if (budget > 0) {
                DynInst &slot = *ref.slot;
                panic_if(slot.seq != ref.seq, "IQ ring mismatch");
                panic_if(slot.state != DynInst::State::Waiting,
                         "non-waiting inst in IQ");
                bool deps_ok = ref.ready;
                if (!deps_ok && recheck) {
                    deps_ok = producerDone(ref.p1, ref.p1seq) &&
                              producerDone(ref.p2, ref.p2seq);
                    ref.ready = deps_ok;
                }
                if (deps_ok) {
                    const OpClass cls = slot.op.cls;
                    std::uint32_t *fu = nullptr;
                    bool needs_port = false;
                    if (is_fp) {
                        fu = (cls == OpClass::FpAlu) ? &fu_a : &fu_b;
                    } else if (cls == OpClass::IntMult) {
                        fu = &fu_b;
                    } else {
                        fu = &fu_a;
                        needs_port = cls == OpClass::Load;
                    }
                    if (*fu > 0 && (!needs_port || ports > 0)) {
                        if (cls == OpClass::Load) {
                            AccessResult r = hierarchy_.access(
                                AccessKind::Load, ref.tid, ref.seq,
                                slot.op.effAddr, now);
                            if (r.status ==
                                AccessResult::Status::Blocked) {
                                // Structural hazard: replay later.
                                leftover_ready = true;
                                iq[keep++] = ref;
                                continue;
                            }
                            --ports;
                            if (r.status ==
                                AccessResult::Status::Hit) {
                                completions_.push(Completion{
                                    now + execLatency(cls) + r.latency,
                                    ref.tid, ref.seq});
                            }
                            ++perf_[ref.tid].loads;
                        } else {
                            completions_.push(Completion{
                                now + execLatency(cls), ref.tid,
                                ref.seq});
                            if (cls == OpClass::Store)
                                ++perf_[ref.tid].stores;
                        }
                        --*fu;
                        --budget;
                        slot.state = DynInst::State::Issued;
                        slot.dispatchedAt = now;
                        if (is_fp) {
                            --fpIqOcc_[ref.tid];
                        } else {
                            --intIqOcc_[ref.tid];
                            ++issued_int;
                        }
                        issued = true;
                    } else {
                        leftover_ready = true;  // ready, no unit/port
                    }
                }
            }
            if (!issued) {
                // ready is the only field the scan mutates; skip the
                // full struct store when nothing moved.
                if (keep != i)
                    iq[keep] = ref;
                else
                    iq[i].ready = ref.ready;
                ++keep;
            }
        }
        iq.resize(keep);
    };

    issue_from(intIq_, false, int_budget, alu, mult);

    std::uint32_t fp_budget = config_.fpIssueWidth;
    std::uint32_t fp_alu = config_.fpAluUnits;
    std::uint32_t fp_mult = config_.fpMultUnits;
    issue_from(fpIq_, true, fp_budget, fp_alu, fp_mult);

    if (issued_int > 0)
        ++intIssueActiveCycles_;

    issueScanNeeded_ = leftover_ready;
    if (recheck && full_scan)
        depRecheckNeeded_ = false;
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
SmtCore::dispatchStage(Cycle now)
{
    std::uint32_t budget = config_.dispatchWidth;
    const std::uint32_t n = config_.numThreads;
    const std::uint64_t start = dispatchRotation_++;

    // Nothing decoded and ready anywhere: skip the scratch setup and
    // the round-robin scan (the rotation above already advanced).
    bool any_ready = false;
    for (std::uint32_t i = 0; i < n; ++i) {
        const ThreadState &t = threads_[i];
        if (!t.fetchQueue.empty() &&
            t.fetchQueue.front().readyAt <= now) {
            any_ready = true;
            break;
        }
    }
    if (!any_ready)
        return;

    bool progress = true;
    std::vector<std::uint8_t> &stalled = dispatchStalled_;
    stalled.assign(n, 0);
    while (budget > 0 && progress) {
        progress = false;
        for (std::uint32_t i = 0; i < n && budget > 0; ++i) {
            const ThreadId tid = static_cast<ThreadId>((start + i) % n);
            if (stalled[tid])
                continue;
            ThreadState &t = threads_[tid];
            if (t.fetchQueue.empty() ||
                t.fetchQueue.front().readyAt > now) {
                stalled[tid] = 1;
                continue;
            }
            const FetchedInst &f = t.fetchQueue.front();
            const bool is_fp = isFpClass(f.op.cls);

            // Structural checks: ROB, IQ, registers, LSQ.
            if (t.robTail - t.robHead >= config_.robPerThread ||
                (is_fp ? fpIq_.size() >= config_.fpIqSize
                       : intIq_.size() >= config_.intIqSize) ||
                (producesValue(f.op.cls) &&
                 (is_fp ? freeFpRegs_ == 0 : freeIntRegs_ == 0)) ||
                (f.op.cls == OpClass::Load && lqUsed_ >= config_.lqSize) ||
                (f.op.cls == OpClass::Store &&
                 sqUsed_ >= config_.sqSize)) {
                stalled[tid] = 1;
                continue;
            }

            panic_if(f.seq != t.robTail, "dispatch out of order");
            DynInst &slot = robSlot(tid, f.seq);
            slot.op = f.op;
            slot.seq = f.seq;
            slot.state = DynInst::State::Waiting;
            slot.mispredicted = f.mispredicted;
            slot.isFp = is_fp;
            slot.dispatchedAt = now;

            if (producesValue(f.op.cls)) {
                if (is_fp)
                    --freeFpRegs_;
                else
                    --freeIntRegs_;
            }
            if (f.op.cls == OpClass::Load)
                ++lqUsed_;
            if (f.op.cls == OpClass::Store)
                ++sqUsed_;

            IqRef ref;
            ref.tid = tid;
            ref.seq = f.seq;
            ref.slot = &slot;
            ref.p1 = resolveProducer(tid, f.seq, f.op.dep1, ref.p1seq);
            ref.p2 = resolveProducer(tid, f.seq, f.op.dep2, ref.p2seq);
            // Exact at insert: the bit only goes stale when a later
            // completion lands, which flags depRecheckNeeded_.
            ref.ready = producerDone(ref.p1, ref.p1seq) &&
                        producerDone(ref.p2, ref.p2seq);
            if (is_fp) {
                fpIq_.push_back(ref);
                ++fpIqOcc_[tid];
            } else {
                intIq_.push_back(ref);
                ++intIqOcc_[tid];
                intIqHighWater_[tid] =
                    std::max(intIqHighWater_[tid], intIqOcc_[tid]);
            }
            issueScanNeeded_ = true;  // new entry for the next scan
            ++robOcc_[tid];
            robHighWater_[tid] =
                std::max(robHighWater_[tid], robOcc_[tid]);
            ++t.robTail;
            t.fetchQueue.pop_front();
            --budget;
            progress = true;
        }
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

std::uint32_t
SmtCore::fetchFromThread(ThreadId tid, std::uint32_t budget, Cycle now)
{
    ThreadState &t = threads_[tid];
    std::uint32_t count = 0;

    while (count < budget && t.fetchQueue.size() < config_.fetchQueueCap) {
        MicroOp op;
        if (t.stashedOpValid) {
            op = t.stashedOp;
            t.stashedOpValid = false;
        } else {
            op = t.stream->next();
        }

        const Addr line =
            op.pc & ~static_cast<Addr>(
                        hierarchy_.config().l1i.lineBytes - 1);
        if (line != t.lastFetchLine) {
            AccessResult r = hierarchy_.access(AccessKind::InstFetch,
                                               tid, 0, op.pc, now);
            if (r.status == AccessResult::Status::Blocked) {
                t.stashedOp = op;
                t.stashedOpValid = true;
                break;
            }
            t.lastFetchLine = line;
            if (r.status == AccessResult::Status::Pending)
                t.icacheBlocked = true;
        }

        FetchedInst f;
        f.op = op;
        f.seq = t.nextSeq++;
        f.readyAt = now + config_.decodeStages;
        f.mispredicted = false;

        if (op.cls == OpClass::Branch) {
            const BranchPrediction pred = predictor_.predict(tid, op);
            const bool correct = predictor_.update(tid, op, pred);
            f.mispredicted = !correct;
            ++perf_[tid].branches;
            if (!correct)
                ++perf_[tid].mispredicts;
        }

        t.fetchQueue.push_back(f);
        ++perf_[tid].fetchedInsts;
        ++count;

        if (op.cls == OpClass::Branch) {
            if (f.mispredicted) {
                // Fetch freezes until the branch resolves.
                t.awaitingBranch = true;
                t.awaitedBranchSeq = f.seq;
                break;
            }
            if (op.taken) {
                // A taken branch ends this thread's fetch group and
                // redirects the fetch line.
                t.lastFetchLine = kAddrInvalid;
                break;
            }
        }
        if (t.icacheBlocked)
            break;
    }
    return count;
}

void
SmtCore::fetchStage(Cycle now)
{
    const std::uint32_t n = config_.numThreads;
    std::vector<FetchThreadState> &states = fetchStates_;
    states.assign(n, FetchThreadState{});
    for (ThreadId tid = 0; tid < n; ++tid) {
        const ThreadState &t = threads_[tid];
        FetchThreadState &s = states[tid];
        s.tid = tid;
        s.fetchable = t.stream != nullptr && !t.icacheBlocked &&
                      !t.awaitingBranch && now >= t.fetchResumeAt &&
                      t.fetchQueue.size() < config_.fetchQueueCap;
        s.frontEndCount = static_cast<std::uint32_t>(
            t.fetchQueue.size() + intIqOcc_[tid] + fpIqOcc_[tid]);
        s.pendingDataMisses = hierarchy_.pendingDataMisses(tid);
        s.pendingL2Misses = hierarchy_.pendingL2Misses(tid);

        if (tracer_) {
            // One async span per window in which this thread cannot
            // be fetched from, labeled with what gates it.
            Cycle &since = fetchStallSince_[tid];
            if (!s.fetchable && since == kCycleNever) {
                since = now;
                const char *why =
                    t.icacheBlocked ? "icache"
                    : t.awaitingBranch ? "branch"
                    : now < t.fetchResumeAt ? "redirect"
                                            : "fetch-queue-full";
                tracer_->asyncBegin("cpu", "fetch-stall", tid,
                                    kTracePidCpu, now,
                                    std::string("{\"reason\":\"") +
                                        why + "\",\"thread\":" +
                                        std::to_string(tid) + "}");
            } else if (s.fetchable && since != kCycleNever) {
                tracer_->asyncEnd("cpu", "fetch-stall", tid,
                                  kTracePidCpu, now);
                since = kCycleNever;
            }
        }
    }

    std::vector<ThreadId> &order = fetchOrder_;
    rankFetchThreads(config_.fetchPolicy, states, fetchRotation_++,
                     order);

    std::uint32_t budget = config_.fetchWidth;
    std::uint32_t threads_used = 0;
    for (ThreadId tid : order) {
        if (budget == 0 || threads_used >= config_.fetchThreadsPerCycle)
            break;
        const std::uint32_t got = fetchFromThread(tid, budget, now);
        if (got > 0) {
            budget -= got;
            ++threads_used;
        }
    }
}

// --------------------------------------------------------------------
// Write buffer
// --------------------------------------------------------------------

void
SmtCore::drainWriteBuffer(Cycle now)
{
    if (writeBuffer_.empty())
        return;
    const PendingStore &s = writeBuffer_.front();
    const AccessResult r =
        hierarchy_.access(AccessKind::Store, s.tid, 0, s.vaddr, now);
    if (r.status == AccessResult::Status::Blocked)
        return;  // retry next cycle
    // Hit: written.  Pending: the fill installs the line dirty.
    writeBuffer_.pop_front();
}

// --------------------------------------------------------------------

void
SmtCore::onMissComplete(ThreadId tid, InstSeq seq, AccessKind kind,
                        Cycle when)
{
    if (kind == AccessKind::InstFetch)
        threads_[tid].icacheBlocked = false;
    else if (kind == AccessKind::Load)
        markCompleted(tid, seq, when);
    // Stores retired long ago: nobody waits on their fill.
}

void
SmtCore::cycle(Cycle now)
{
    ++cyclesRun_;
    commitStage(now);
    completeStage(now);
    issueStage(now);
    dispatchStage(now);
    fetchStage(now);
    drainWriteBuffer(now);
}

Cycle
SmtCore::nextEventAt(Cycle now) const
{
    // Draining the write buffer touches the hierarchy every cycle
    // (even a Blocked probe updates TLB/MSHR bookkeeping), so no
    // cycle with a pending store may be skipped.
    if (!writeBuffer_.empty())
        return now + 1;

    Cycle next = kCycleNever;
    if (!completions_.empty())
        next = std::min(next, completions_.top().when);

    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        const ThreadState &t = threads_[tid];

        // Commit: the oldest in-flight instruction is done.
        if (t.robHead < t.robTail &&
            robSlot(tid, t.robHead).state == DynInst::State::Completed)
            return now + 1;

        // Dispatch: mirror dispatchStage's structural checks on the
        // front-of-queue instruction.  With no space, dispatch stays
        // stalled until some other event frees a resource.
        if (!t.fetchQueue.empty()) {
            const FetchedInst &f = t.fetchQueue.front();
            const bool is_fp = isFpClass(f.op.cls);
            const bool space =
                !(t.robTail - t.robHead >= config_.robPerThread ||
                  (is_fp ? fpIq_.size() >= config_.fpIqSize
                         : intIq_.size() >= config_.intIqSize) ||
                  (producesValue(f.op.cls) &&
                   (is_fp ? freeFpRegs_ == 0 : freeIntRegs_ == 0)) ||
                  (f.op.cls == OpClass::Load &&
                   lqUsed_ >= config_.lqSize) ||
                  (f.op.cls == OpClass::Store &&
                   sqUsed_ >= config_.sqSize));
            if (space) {
                if (f.readyAt <= now + 1)
                    return now + 1;
                next = std::min(next, f.readyAt);
            }
        }

        // Fetch: mirror fetchStage's fetchable predicate.  Only the
        // redirect penalty is a pure timer; every other gate clears
        // through an event covered elsewhere.
        if (t.stream != nullptr && !t.icacheBlocked &&
            !t.awaitingBranch &&
            t.fetchQueue.size() < config_.fetchQueueCap) {
            if (t.fetchResumeAt <= now + 1)
                return now + 1;
            next = std::min(next, t.fetchResumeAt);
        }
    }

    // Issue: any queue entry with both producers ready would issue
    // (or, for a load, replay a blocked cache probe) next cycle.
    for (const IqRef &ref : intIq_) {
        if (ref.ready || (producerDone(ref.p1, ref.p1seq) &&
                          producerDone(ref.p2, ref.p2seq)))
            return now + 1;
    }
    for (const IqRef &ref : fpIq_) {
        if (ref.ready || (producerDone(ref.p1, ref.p1seq) &&
                          producerDone(ref.p2, ref.p2seq)))
            return now + 1;
    }
    return next;
}

void
SmtCore::skipCycles(std::uint64_t count)
{
    cyclesRun_ += count;
    commitRotation_ += count;
    dispatchRotation_ += count;
    fetchRotation_ += count;
}

} // namespace smtdram
