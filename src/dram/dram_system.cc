#include "dram/dram_system.hh"

#include <algorithm>
#include <iostream>
#include <ostream>

#include "common/logging.hh"

namespace smtdram
{

/** Cadence of the O(outstanding) checker age scan. */
static constexpr Cycle kAgeCheckPeriod = 4096;

DramSystem::DramSystem(const DramConfig &config, SchedulerKind scheduler,
                       std::uint32_t channel_base)
    : config_(config), mapping_(config)
{
    config_.validate();
    controllers_.reserve(config_.logicalChannels());
    for (std::uint32_t c = 0; c < config_.logicalChannels(); ++c)
        controllers_.emplace_back(config_, scheduler, channel_base + c);
    if (config_.checkerEnabled) {
        checker_ = std::make_unique<ConservationChecker>(
            config_.checkerMaxAge,
            [this] { dumpState(std::cerr); });
    }
    if (config_.ecc.enabled) {
        scrub_.resize(controllers_.size());
        // Stagger first bursts through one interval so multi-channel
        // systems never scrub in lockstep (same idea as refresh).
        const Cycle interval = config_.ecc.scrubInterval;
        for (size_t c = 0; c < scrub_.size(); ++c)
            scrub_[c].nextAt = (c + 1) * interval / scrub_.size();
    }
}

void
DramSystem::serviceScrub(Cycle now)
{
    const EccConfig &ecc = config_.ecc;
    const std::uint32_t columns = config_.columnsPerRow();
    const std::uint32_t banks = config_.banksPerChannel();
    for (std::uint32_t c = 0; c < scrub_.size(); ++c) {
        ScrubState &s = scrub_[c];
        if (now < s.nextAt)
            continue;
        MemoryController &mc = controllers_[c];
        // One burst per interval, bounded by what is still queued: a
        // channel too loaded to drain its previous burst skips ahead
        // instead of accumulating scrub backlog without limit.
        for (std::uint32_t i = mc.queuedScrubs(); i < ecc.scrubBurst;
             ++i) {
            DramRequest req;
            req.id = nextId_++;
            req.op = MemOp::Read;
            req.scrub = true;
            req.thread = kThreadNone;
            req.arrival = now;
            req.addr = kAddrInvalid;  // patrol walks coordinates
            req.coord = {c, s.bank, s.row, s.column};
            req.critical = false;
            // Sequential patrol: next column, then next row, then
            // next bank — mostly row hits, like real scrubbers.
            if (++s.column >= columns) {
                s.column = 0;
                if (++s.row >= ecc.scrubRegionRows) {
                    s.row = 0;
                    s.bank = (s.bank + 1) % banks;
                }
            }
            if (checker_)
                checker_->onEnqueue(req, now);
            mc.enqueue(req);
            ++outstanding_;
        }
        s.nextAt += ecc.scrubInterval;
        if (s.nextAt <= now)
            s.nextAt = now + ecc.scrubInterval;
    }
}

void
DramSystem::serviceMitigations(Cycle now)
{
    for (std::uint32_t c = 0; c < controllers_.size(); ++c) {
        MemoryController &mc = controllers_[c];
        if (!mc.hasPendingMitigations())
            continue;
        mitigationScratch_.clear();
        mc.takePendingMitigations(mitigationScratch_);
        for (const MitigationRequest &m : mitigationScratch_) {
            DramRequest req;
            req.id = nextId_++;
            req.op = MemOp::Read;
            req.mitigation = true;
            req.thread = kThreadNone;
            req.arrival = now;
            req.addr = kAddrInvalid;  // row-granular, no data moved
            req.coord = {c, m.bank, m.row, 0};
            req.critical = false;
            if (checker_)
                checker_->onEnqueue(req, now);
            mc.enqueue(req);
            ++outstanding_;
        }
    }
}

bool
DramSystem::canAccept(Addr addr, MemOp op) const
{
    const DramCoord coord = mapping_.map(addr);
    const MemoryController &mc = controllers_[coord.channel];
    return op == MemOp::Read ? mc.canAcceptRead() : mc.canAcceptWrite();
}

std::uint64_t
DramSystem::enqueueRead(Addr addr, ThreadId thread,
                        const ThreadSnapshot &snap, Cycle now,
                        bool critical)
{
    return enqueueRead(addr, thread, snap, now, critical, 0, 0);
}

std::uint64_t
DramSystem::enqueueRead(Addr addr, ThreadId thread,
                        const ThreadSnapshot &snap, Cycle now,
                        bool critical, Cycle remote_until,
                        std::uint32_t core)
{
    DramRequest req;
    req.id = nextId_++;
    req.op = MemOp::Read;
    req.addr = addr;
    req.thread = thread;
    req.core = core;
    req.arrival = now;
    req.snap = snap;
    req.coord = mapping_.map(addr);
    req.critical = critical;
    if (remote_until > now) {
        req.remoteUntil = remote_until;
        req.notBefore = remote_until;
    }
    if (thread != kThreadNone) {
        if (thread >= perThreadOutstanding_.size())
            perThreadOutstanding_.resize(thread + 1, 0);
        ++perThreadOutstanding_[thread];
    }
    if (checker_)
        checker_->onEnqueue(req, now);
    controllers_[req.coord.channel].enqueue(req);
    ++outstanding_;
    return req.id;
}

std::uint64_t
DramSystem::enqueueWrite(Addr addr, Cycle now)
{
    return enqueueWrite(addr, now, 0);
}

std::uint64_t
DramSystem::enqueueWrite(Addr addr, Cycle now, Cycle remote_until)
{
    DramRequest req;
    req.id = nextId_++;
    req.op = MemOp::Write;
    req.addr = addr;
    req.thread = kThreadNone;
    req.arrival = now;
    req.coord = mapping_.map(addr);
    if (remote_until > now) {
        req.remoteUntil = remote_until;
        req.notBefore = remote_until;
    }
    if (checker_)
        checker_->onEnqueue(req, now);
    controllers_[req.coord.channel].enqueue(req);
    ++outstanding_;
    return req.id;
}

void
DramSystem::tick(Cycle now)
{
    // Idle fast-path: with nothing queued or in flight, no scrub
    // burst due, and no controller needing its per-cycle RNG draw or
    // refresh bookkeeping, this tick is a no-op.  Skipping it is
    // observationally safe — the checker's amortized age scan below
    // is trivially clean with zero outstanding requests, so deferring
    // lastAgeCheck_ changes nothing.  Memory-bound phases never take
    // this path; compute-bound ones take it almost every cycle.
    if (idleAt(now))
        return;

    if (!scrub_.empty())
        serviceScrub(now);

    // Turn tracker requests (appended during earlier launches) into
    // queued maintenance commands before the controllers issue.
    if (config_.hammer.mitigates())
        serviceMitigations(now);

    completedScratch_.clear();
    for (auto &mc : controllers_)
        mc.tick(now, completedScratch_);
    // Retries re-enter their queue inside the controller (net zero);
    // only final completions leave the system.
    panic_if(completedScratch_.size() > outstanding_,
             "outstanding counter underflow");
    outstanding_ -= completedScratch_.size();

    if (completedScratch_.size() > 1) {
        // Stable insertion sort: a tick completes at most a handful
        // of requests (usually already ordered, channels appended in
        // index order), and std::stable_sort's temporary buffer was
        // the last per-tick heap allocation on this path.
        for (size_t i = 1; i < completedScratch_.size(); ++i) {
            for (size_t j = i;
                 j > 0 && completedScratch_[j].completion <
                              completedScratch_[j - 1].completion;
                 --j) {
                std::swap(completedScratch_[j],
                          completedScratch_[j - 1]);
            }
        }
    }

    for (const auto &req : completedScratch_) {
        if (checker_)
            checker_->onComplete(req, now);
        // Scrub and mitigation completions are internal maintenance:
        // conserved by the checker above but invisible to the demand
        // callback.
        if (req.op != MemOp::Read || req.scrub || req.mitigation)
            continue;
        if (req.thread != kThreadNone &&
            req.thread < perThreadOutstanding_.size()) {
            panic_if(perThreadOutstanding_[req.thread] == 0,
                     "per-thread outstanding underflow");
            --perThreadOutstanding_[req.thread];
            if (req.thread >= perThreadReads_.size())
                perThreadReads_.resize(req.thread + 1, 0);
            ++perThreadReads_[req.thread];
        }
        if (readCallback_)
            readCallback_(req);
    }

    // Starvation scan, amortized: the map walk is O(outstanding),
    // far too costly per cycle but negligible every few thousand.
    if (checker_ && now - lastAgeCheck_ >= kAgeCheckPeriod) {
        lastAgeCheck_ = now;
        checker_->checkAges(now);
        // The checker's live set must equal what the queues (read,
        // write, scrub, in-flight) actually hold — scrub requests
        // included; a drift means a request leaked past one side.
        // Also cross-check the incremental counter against the
        // queues while we are paying for a scan anyway.
        size_t summed = 0;
        for (const auto &mc : controllers_)
            summed += mc.outstanding();
        panic_if(summed != outstanding_,
                 "outstanding counter drifted: cached %zu, queues "
                 "hold %zu", outstanding_, summed);
        if (checker_->outstanding() != outstandingRequests()) {
            dumpState(std::cerr);
            panic("conservation drift: checker tracks %llu live "
                  "requests but the queues hold %zu",
                  (unsigned long long)checker_->outstanding(),
                  outstandingRequests());
        }
    }
}

Cycle
DramSystem::nextEventAt(Cycle now) const
{
    Cycle next = kCycleNever;
    // Scrub deadlines: serviceScrub fires exactly at s.nextAt (any
    // deadline <= now was bumped by the tick that just ran, or the
    // idle fast-path guarantees it is still in the future).
    for (const ScrubState &s : scrub_)
        next = std::min(next, std::max(s.nextAt, now + 1));
    for (const MemoryController &mc : controllers_)
        next = std::min(next, mc.nextEventAt(now));
    return next;
}

bool
DramSystem::busy() const
{
    return outstanding_ > 0;
}

size_t
DramSystem::outstandingRequests() const
{
    return outstanding_;
}

std::uint32_t
DramSystem::distinctThreadsOutstanding() const
{
    std::uint32_t n = 0;
    for (auto c : perThreadOutstanding_) {
        if (c > 0)
            ++n;
    }
    return n;
}

std::uint32_t
DramSystem::channels() const
{
    return static_cast<std::uint32_t>(controllers_.size());
}

const ControllerStats &
DramSystem::channelStats(std::uint32_t channel) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].stats();
}

size_t
DramSystem::channelQueuedReads(std::uint32_t channel) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].queuedReads();
}

ControllerStats
DramSystem::aggregateStats() const
{
    ControllerStats agg;
    for (const auto &mc : controllers_)
        agg.merge(mc.stats());
    return agg;
}

FaultStats
DramSystem::aggregateFaultStats() const
{
    FaultStats agg;
    for (const auto &mc : controllers_) {
        const FaultStats &f = mc.faultStats();
        agg.busStalls += f.busStalls;
        agg.busStallCycles += f.busStallCycles;
        agg.readErrors += f.readErrors;
        agg.enqueueDelays += f.enqueueDelays;
        agg.enqueueDelayCycles += f.enqueueDelayCycles;
        agg.eccSingleBit += f.eccSingleBit;
        agg.eccMultiBit += f.eccMultiBit;
    }
    return agg;
}

const FaultStats &
DramSystem::channelFaultStats(std::uint32_t channel) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].faultStats();
}

HammerStats
DramSystem::aggregateHammerStats() const
{
    HammerStats agg;
    for (const auto &mc : controllers_)
        agg.merge(mc.hammerStats());
    return agg;
}

const HammerStats &
DramSystem::channelHammerStats(std::uint32_t channel) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].hammerStats();
}

std::uint64_t
DramSystem::hammerFlippedRows() const
{
    std::uint64_t n = 0;
    for (const auto &mc : controllers_)
        n += mc.hammerModel().flippedRows();
    return n;
}

PowerStats
DramSystem::aggregatePowerStats() const
{
    PowerStats agg;
    for (const auto &mc : controllers_)
        agg.merge(mc.powerStats());
    return agg;
}

const PowerStats &
DramSystem::channelPowerStats(std::uint32_t channel) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].powerStats();
}

double
DramSystem::rankEnergy(std::uint32_t channel, std::uint32_t rank) const
{
    panic_if(channel >= controllers_.size(), "channel %u out of range",
             channel);
    return controllers_[channel].rankEnergy(rank);
}

std::uint32_t
DramSystem::powerRanks() const
{
    return controllers_.empty() ? 0 : controllers_.front().powerRanks();
}

void
DramSystem::syncPower(Cycle now)
{
    for (auto &mc : controllers_)
        mc.syncPower(now);
}

void
DramSystem::resetStats(Cycle now)
{
    for (auto &mc : controllers_)
        mc.resetStats(now);
    std::fill(perThreadReads_.begin(), perThreadReads_.end(), 0);
}

void
DramSystem::setTracer(Tracer *tracer)
{
    for (auto &mc : controllers_)
        mc.setTracer(tracer);
}

void
DramSystem::dumpState(std::ostream &os) const
{
    os << "=== DramSystem state dump ===\n";
    os << "channels=" << controllers_.size()
       << " outstanding=" << outstandingRequests();
    if (config_.ecc.enabled) {
        const ControllerStats agg = aggregateStats();
        os << " ecc{scrubReads=" << agg.scrubReads
           << " corrected=" << agg.correctedErrors
           << " uncorrectable=" << agg.uncorrectableErrors << "}";
    }
    if (config_.hammer.enabled) {
        const HammerStats hagg = aggregateHammerStats();
        os << " hammer{flips=" << hagg.victimFlips
           << " corrected=" << hagg.victimCorrected
           << " uncorrectable=" << hagg.victimUncorrectable
           << " mitigations=" << hagg.mitigationsIssued
           << " flippedRows=" << hammerFlippedRows() << "}";
    }
    if (checker_) {
        os << " checker{enqueued=" << checker_->enqueued()
           << " completed=" << checker_->completed()
           << " live=" << checker_->outstanding() << "}";
    }
    const PowerStats pagg = aggregatePowerStats();
    os << " power{totalNj=" << pagg.totalEnergy
       << " pdEntries=" << pagg.powerdownEntries
       << " srEntries=" << pagg.selfRefreshEntries << "}";
    os << "\n";
    for (const auto &mc : controllers_)
        mc.dumpState(os);
    os << "=== end DramSystem state dump ===\n";
}

} // namespace smtdram
