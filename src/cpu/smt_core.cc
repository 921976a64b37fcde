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
      completions_(maxExecLatency() + hierarchy.config().l1d.latency +
                       hierarchy.config().tlbMissPenalty,
                   config.numThreads * config.robPerThread),
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
    const std::uint32_t iq_entries = config_.intIqSize + config_.fpIqSize;
    iqFile_.resize(iq_entries);
    for (std::uint32_t id = iq_entries; id-- > 0;)
        (id < config_.intIqSize ? intIq_ : fpIq_).free.push_back(id);
    intIq_.ready.reserve(config_.intIqSize);
    fpIq_.ready.reserve(config_.fpIqSize);

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

void
SmtCore::waitOnProducer(ThreadId tid, InstSeq seq, std::uint8_t dist,
                        std::uint32_t id, unsigned operand)
{
    if (dist == 0 || static_cast<InstSeq>(dist) > seq)
        return;  // no dependence, or producer precedes the stream
    const InstSeq pseq = seq - dist;
    if (pseq < threads_[tid].robHead)
        return;  // producer already committed
    DynInst &p = robSlot(tid, pseq);
    panic_if(p.seq != pseq, "ROB ring corrupted (seq %llu vs %llu)",
             (unsigned long long)p.seq, (unsigned long long)pseq);
    if (!producesValue(p.cls) || p.state == DynInst::State::Completed)
        return;
    IqEntry &e = iqFile_[id];
    e.next[operand] = p.wakeHead;
    p.wakeHead = 2 * id + operand + 1;
    ++e.pending;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
SmtCore::commitStage(Cycle now)
{
    (void)now;
    const std::uint64_t start = commitRotation_++;
    if (commitIdle_)
        return;
    std::uint32_t budget = config_.commitWidth;
    const std::uint32_t n = config_.numThreads;

    for (std::uint32_t i = 0; i < n && budget > 0; ++i) {
        const ThreadId tid = static_cast<ThreadId>((start + i) % n);
        ThreadState &t = threads_[tid];
        while (budget > 0 && t.robHead < t.robTail) {
            DynInst &slot = robSlot(tid, t.robHead);
            panic_if(slot.seq != t.robHead, "commit ring mismatch");
            if (slot.state != DynInst::State::Completed)
                break;
            if (slot.cls == OpClass::Store) {
                if (writeBuffer_.size() >= config_.writeBufferCap)
                    break;  // this thread's commit stalls
                writeBuffer_.push_back(PendingStore{tid, slot.effAddr});
            }
            if (producesValue(slot.cls)) {
                if (isFpClass(slot.cls))
                    ++freeFpRegs_;
                else
                    ++freeIntRegs_;
            }
            if (slot.cls == OpClass::Load) {
                panic_if(lqUsed_ == 0, "LQ underflow");
                --lqUsed_;
            }
            if (slot.cls == OpClass::Store) {
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
    // Heads only become committable by completing, and a stalled store
    // head only by a write-buffer pop: until either happens, an empty
    // pass repeats itself exactly.
    commitIdle_ = budget == config_.commitWidth;
    if (!commitIdle_)
        dispatchWakeAt_ = 0;  // ROB, register and LSQ space freed
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
    commitIdle_ = false;
    // Wake the operands chained on this value.  An entry whose last
    // in-flight producer this was joins its queue's ready list at its
    // place in dispatch order.
    const auto precedes = [this](std::uint64_t stamp, std::uint32_t id) {
        return stamp < iqFile_[id].stamp;
    };
    for (std::uint32_t link = slot.wakeHead; link != 0;) {
        const std::uint32_t id = (link - 1) / 2;
        IqEntry &e = iqFile_[id];
        link = e.next[(link - 1) % 2];
        if (--e.pending != 0)
            continue;
        std::vector<std::uint32_t> &ready =
            (id < config_.intIqSize ? intIq_ : fpIq_).ready;
        ready.insert(std::upper_bound(ready.begin(), ready.end(),
                                      e.stamp, precedes),
                     id);
    }
    slot.wakeHead = 0;

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
    // Same-cycle completions arrive in no particular order, which
    // markCompleted() does not depend on (DESIGN.md section 11).
    completions_.drain(now, [this, now](std::uint32_t id) {
        const ThreadId tid = id / config_.robPerThread;
        markCompleted(tid, threads_[tid].rob[id % config_.robPerThread].seq,
                      now);
    });
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

void
SmtCore::issueStage(Cycle now)
{
    // The ready lists hold exactly the dep-ready entries, oldest
    // first, so walking them is the age-order scan of each queue
    // minus the entries that scan would skip.  Readiness cannot change
    // mid-walk: completions only land in completeStage and fills.
    if (intIq_.ready.empty() && fpIq_.ready.empty())
        return;

    std::uint32_t ports = config_.cachePorts;
    bool issued_int = false;

    auto issue_from = [&](IssueQueue &q, bool is_fp,
                          std::uint32_t budget, std::uint32_t fu_a,
                          std::uint32_t fu_b) {
        std::vector<std::uint32_t> &ready = q.ready;
        size_t keep = 0;
        size_t i = 0;
        // Once the width or both functional units are exhausted
        // nothing further can issue, so the tail survives as-is.
        for (; i < ready.size() && budget > 0 && (fu_a > 0 || fu_b > 0);
             ++i) {
            const std::uint32_t id = ready[i];
            const IqEntry &e = iqFile_[id];
            DynInst &slot = *e.slot;
            panic_if(slot.seq != e.seq, "IQ ring mismatch");
            panic_if(slot.state != DynInst::State::Waiting,
                     "non-waiting inst in IQ");
            const OpClass cls = slot.cls;
            std::uint32_t &fu =
                is_fp ? (cls == OpClass::FpAlu ? fu_a : fu_b)
                      : (cls == OpClass::IntMult ? fu_b : fu_a);
            if (fu == 0 || (cls == OpClass::Load && ports == 0)) {
                ready[keep++] = id;  // ready, no unit/port
                continue;
            }
            if (cls == OpClass::Load) {
                const AccessResult r = hierarchy_.access(
                    AccessKind::Load, e.tid, e.seq, slot.effAddr, now);
                if (r.status == AccessResult::Status::Blocked) {
                    ready[keep++] = id;  // structural hazard: replay
                    continue;
                }
                --ports;
                // A miss completes through the fill callback.
                if (r.status == AccessResult::Status::Hit) {
                    completions_.schedule(
                        now + execLatency(cls) + r.latency,
                        completionId(e.tid, e.seq));
                }
                ++perf_[e.tid].loads;
            } else {
                completions_.schedule(now + execLatency(cls),
                                      completionId(e.tid, e.seq));
                if (cls == OpClass::Store)
                    ++perf_[e.tid].stores;
            }
            --fu;
            --budget;
            slot.state = DynInst::State::Issued;
            if (is_fp) {
                --fpIqOcc_[e.tid];
            } else {
                --intIqOcc_[e.tid];
                issued_int = true;
            }
            q.free.push_back(id);
            dispatchWakeAt_ = 0;  // a full queue may have stalled it
        }
        ready.erase(ready.begin() + keep, ready.begin() + i);
    };

    issue_from(intIq_, false, config_.intIssueWidth, config_.intAluUnits,
               config_.intMultUnits);
    issue_from(fpIq_, true, config_.fpIssueWidth, config_.fpAluUnits,
               config_.fpMultUnits);

    if (issued_int)
        ++intIssueActiveCycles_;
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
SmtCore::dispatchStage(Cycle now)
{
    const std::uint64_t start = dispatchRotation_++;
    // Asleep: no front finishes decoding before dispatchWakeAt_, and
    // nothing has freed a resource a decoded front is stalled on.
    if (now < dispatchWakeAt_)
        return;

    std::uint32_t budget = config_.dispatchWidth;
    const std::uint32_t n = config_.numThreads;
    Cycle wake = kCycleNever;  // earliest still-decoding front
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
            if (t.fetchQueue.empty()) {
                stalled[tid] = 1;
                continue;
            }
            const FetchedInst &f = t.fetchQueue.front();
            if (f.readyAt > now) {
                wake = std::min(wake, f.readyAt);
                stalled[tid] = 1;
                continue;
            }
            const bool is_fp = isFpClass(f.op.cls);
            IssueQueue &q = is_fp ? fpIq_ : intIq_;

            // Structural checks: ROB, IQ, registers, LSQ.
            if (t.robTail - t.robHead >= config_.robPerThread ||
                q.free.empty() ||
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
            slot.effAddr = f.op.effAddr;
            slot.seq = f.seq;
            slot.cls = f.op.cls;
            slot.state = DynInst::State::Waiting;
            slot.mispredicted = f.mispredicted;

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

            const std::uint32_t id = q.free.back();
            q.free.pop_back();
            IqEntry &e = iqFile_[id];
            e = IqEntry{&slot, f.seq, nextStamp_++, tid, 0, {0, 0}};
            waitOnProducer(tid, f.seq, f.op.dep1, id, 0);
            waitOnProducer(tid, f.seq, f.op.dep2, id, 1);
            if (e.pending == 0)
                q.ready.push_back(id);  // newest stamp: stays sorted
            if (is_fp) {
                ++fpIqOcc_[tid];
            } else {
                ++intIqOcc_[tid];
                intIqHighWater_[tid] =
                    std::max(intIqHighWater_[tid], intIqOcc_[tid]);
            }
            ++robOcc_[tid];
            robHighWater_[tid] =
                std::max(robHighWater_[tid], robOcc_[tid]);
            ++t.robTail;
            t.fetchQueue.pop_front();
            --budget;
            progress = true;
        }
    }
    // Fronts only change by dispatch or by fetch into an empty queue,
    // and a decoded front stalls only on space that commit or issue
    // frees: until one of those, an empty pass repeats itself exactly.
    dispatchWakeAt_ = budget < config_.dispatchWidth ? 0 : wake;
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

        if (t.fetchQueue.empty())  // a new front for a sleeping dispatch
            dispatchWakeAt_ = std::min(dispatchWakeAt_, f.readyAt);
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
    const std::uint64_t rotation = fetchRotation_++;
    // The policy only ranks fetchable threads: with none, the pass
    // does nothing but maintain the tracer's stall spans.
    bool any_fetchable = false;
    for (ThreadId tid = 0; tid < n && !any_fetchable; ++tid)
        any_fetchable = canFetch(threads_[tid], now);
    if (!any_fetchable && !tracer_)
        return;

    std::vector<FetchThreadState> &states = fetchStates_;
    states.assign(n, FetchThreadState{});
    for (ThreadId tid = 0; tid < n; ++tid) {
        const ThreadState &t = threads_[tid];
        FetchThreadState &s = states[tid];
        s.tid = tid;
        s.fetchable = canFetch(t, now);
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
    rankFetchThreads(config_.fetchPolicy, states, rotation, order);

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
    commitIdle_ = false;  // a store head stalled on a full buffer
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
    // cycle with a pending store may be skipped.  Likewise a
    // dep-ready IQ entry issues, or for a load replays a blocked
    // cache probe, next cycle.
    if (!writeBuffer_.empty() || !intIq_.ready.empty() ||
        !fpIq_.ready.empty())
        return now + 1;

    Cycle next = completions_.next();

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
                  (is_fp ? fpIq_ : intIq_).free.empty() ||
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
