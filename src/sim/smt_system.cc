#include "sim/smt_system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/watchdog.hh"
#include "sim/experiment.hh"

namespace smtdram
{

namespace
{

/**
 * Process-wide kernel override: SMTDRAM_KERNEL=cycle|event flips
 * every SmtSystem built in this process, so whole harnesses (the
 * golden suite, the benches) run the other kernel as a CI matrix leg
 * without plumbing a flag through every construction site.  Read
 * once; both kernels are proven byte-identical so this never changes
 * results, only how fast they are produced.
 */
KernelMode
kernelMode(KernelMode configured)
{
    static const char *env = std::getenv("SMTDRAM_KERNEL");
    if (!env || !*env)
        return configured;
    if (!std::strcmp(env, "event") || !std::strcmp(env, "event-driven"))
        return KernelMode::EventDriven;
    if (!std::strcmp(env, "cycle") || !std::strcmp(env, "per-cycle"))
        return KernelMode::PerCycle;
    fatal_if(true, "SMTDRAM_KERNEL must be 'cycle' or 'event', "
                   "got '%s'", env);
    return configured;
}

/**
 * One stats-table row: a key suffix and what to read off a stats
 * struct S — a counter field, a derived-value method, or a callable.
 */
template <class S>
struct Row {
    template <class F>
    Row(std::string k, F f)
        : key(std::move(k)), get([f](const S &s) {
              return static_cast<double>(std::invoke(f, s));
          })
    {
    }
    std::string key;
    std::function<double(const S &)> get;
};

/** Register `prefix + key` for every row, each reading source(). */
template <class S, class Source>
void
addRows(StatsRegistry &r, const std::string &prefix, Source source,
        const std::vector<Row<S>> &rows)
{
    for (const Row<S> &row : rows) {
        r.registerScalar(prefix + row.key, [source, get = row.get] {
            return get(source());
        });
    }
}

/** Socket DRAM owning global channel @p c (channels are numbered
 *  socket by socket); sets @p local to its index there. */
const DramSystem &
dramOfChannel(const std::vector<std::unique_ptr<DramSystem>> &drams,
              std::uint32_t c, std::uint32_t &local)
{
    local = c % drams[0]->channels();
    return *drams[c / drams[0]->channels()];
}

/** Rows "dram.ch<c>.<group><key>" over global channel c's own stats. */
template <class S>
void
addChannelRows(StatsRegistry &r,
               const std::vector<std::unique_ptr<DramSystem>> &drams,
               std::uint32_t c, const char *group,
               const S &(DramSystem::*stats)(std::uint32_t) const,
               const std::vector<Row<S>> &rows)
{
    std::uint32_t local;
    const DramSystem &d = dramOfChannel(drams, c, local);
    addRows<S>(r, "dram.ch" + std::to_string(c) + "." + group,
               [&d, local, stats]() -> const S & {
                   return (d.*stats)(local);
               },
               rows);
}

} // namespace

SmtSystem::SmtSystem(const SystemConfig &config,
                     const std::vector<AppProfile> &apps,
                     std::uint64_t seed)
    : config_(config)
{
    config_.kernel = kernelMode(config_.kernel);
    const std::uint32_t n = config_.core.numThreads;
    fatal_if(apps.size() != n,
             "%zu application profiles for %u hardware threads",
             apps.size(), n);
    const TopologyConfig &topo = config_.topology;
    topo.validate(n);
    const std::uint32_t cores = topo.totalCores();

    // Shared translation machinery: one page-table set for the whole
    // machine, frames handed out by the home-aware allocator (on one
    // socket, a plain sequential frame counter).
    pageTables_ = std::make_unique<PageTables>(
        config_.hierarchy.pageBytes, n);
    alloc_ = std::make_unique<NumaFrameAllocator>(
        topo, pageTables_->pageShift());

    threadCore_ = computePlacement(topo, apps);
    pageTables_->setFrameSource([this](ThreadId tid) {
        return alloc_->allocate(threadCore_[tid] /
                                config_.topology.coresPerSocket);
    });

    std::vector<DramSystem *> dram_ptrs;
    for (std::uint32_t s = 0; s < topo.sockets; ++s) {
        drams_.push_back(std::make_unique<DramSystem>(
            config_.dram, config_.scheduler,
            s * config_.dram.logicalChannels()));
        dram_ptrs.push_back(drams_.back().get());
    }
    router_ = std::make_unique<SocketRouter>(topo, dram_ptrs, *alloc_,
                                             n);

    for (std::uint32_t c = 0; c < cores; ++c) {
        ports_.push_back(std::make_unique<SocketPort>(*router_, c));
        hierarchies_.push_back(std::make_unique<Hierarchy>(
            config_.hierarchy, *ports_.back(), events_, n));
        hierarchies_.back()->setSharedPageTables(pageTables_.get());
        cores_.push_back(std::make_unique<SmtCore>(
            config_.core, *hierarchies_.back()));
    }

    streams_.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        streams_.push_back(std::make_unique<SyntheticStream>(
            apps[i], seed + i * 0x1000'0001ULL));
        cores_[threadCore_[i]]->bindStream(static_cast<ThreadId>(i),
                                           streams_.back().get());
    }

    remoteBase_.assign(n, 0);
    toSocketBase_.assign(n,
                         std::vector<std::uint64_t>(topo.sockets, 0));

    if (config_.observe.traceEnabled()) {
        tracer_ = std::make_unique<Tracer>(config_.observe.tracePath);
        for (auto &d : drams_)
            d->setTracer(tracer_.get());
        for (auto &c : cores_)
            c->setTracer(tracer_.get());
    }
    if (config_.observe.statsEnabled()) {
        registry_ = std::make_unique<StatsRegistry>();
        registerStats();
    }
    if (config_.observe.any()) {
        // panic()/watchdog post-mortem: flush whatever observability
        // outputs are configured before the process dies.  The handle
        // scopes teardown to our own installation so concurrent
        // systems in a parallel sweep don't clear each other's hook.
        panicHook_ = setPanicHook([this] { exportObservability(); });
    }

    prewarmCaches(apps);
}

SmtSystem::~SmtSystem()
{
    clearPanicHook(panicHook_);
    if (tracer_) {
        for (auto &d : drams_)
            d->setTracer(nullptr);
        for (auto &c : cores_)
            c->setTracer(nullptr);
    }
}

template <class S>
S
SmtSystem::sumSockets(S (DramSystem::*aggregate)() const) const
{
    // One socket's aggregate is the sum; skip the copy-merge.
    if (drams_.size() == 1)
        return ((*drams_[0]).*aggregate)();
    S sum;
    for (const auto &d : drams_)
        sum.merge(((*d).*aggregate)());
    return sum;
}

ControllerStats
SmtSystem::aggDramStats() const
{
    ControllerStats agg = sumSockets(&DramSystem::aggregateStats);
    // Interconnect queue waits join the who-stalled-whom picture; on
    // one socket the link matrix is empty and this is a no-op.
    agg.interference.merge(router_->linkInterference());
    return agg;
}

std::uint32_t
SmtSystem::totalChannels() const
{
    return config_.topology.sockets * drams_[0]->channels();
}

std::uint64_t
SmtSystem::committedOf(ThreadId tid) const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->perf(tid).committedInsts;
    return total;
}

std::uint64_t
SmtSystem::grandCommitted() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->totalCommittedInsts();
    return total;
}

std::size_t
SmtSystem::dramOutstanding() const
{
    std::size_t total = 0;
    for (const auto &d : drams_)
        total += d->outstandingRequests();
    return total;
}

std::vector<std::uint64_t>
SmtSystem::perThreadReads() const
{
    std::vector<std::uint64_t> total(config_.core.numThreads, 0);
    for (const auto &d : drams_) {
        const auto &per = d->perThreadReads();
        for (std::size_t t = 0;
             t < per.size() && t < total.size(); ++t)
            total[t] += per[t];
    }
    return total;
}

void
SmtSystem::registerStats()
{
    using C = ControllerStats;
    using P = PowerStats;
    using H = HammerStats;
    using F = FaultStats;
    StatsRegistry &r = *registry_;
    const std::uint32_t n = config_.core.numThreads;
    r.setMeta("config", configSignature(config_));
    r.setMeta("threads", std::to_string(n));
    r.setMeta("channels", std::to_string(totalChannels()));

    // Aggregates re-sum every socket and channel on each call; epochs
    // are sparse, so the cost is irrelevant.  The callers that sample
    // the registry (sampleEpoch, exportObservability) syncPower()
    // first, so the lazy energy accounting is current here.
    const auto dram = [this] { return aggDramStats(); };
    const auto power = [this] {
        return sumSockets(&DramSystem::aggregatePowerStats);
    };

    addRows<C>(r, "dram.", dram, {
        {"reads", &C::reads},
        {"writes", &C::writes},
        {"row_hits", &C::rowHits},
        {"row_conflicts", &C::rowConflicts},
        {"row_miss_rate", &C::rowMissRate},
        {"refreshes", &C::refreshes},
    });
    r.registerScalar("dram.outstanding", [this] {
        return static_cast<double>(dramOutstanding());
    });
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        std::uint32_t lc;
        const DramSystem &d = dramOfChannel(drams_, c, lc);
        const std::string p = "dram.ch" + std::to_string(c) + ".";
        r.registerScalar(p + "queued_reads", [&d, lc] {
            return static_cast<double>(d.channelQueuedReads(lc));
        });
        addChannelRows<C>(r, drams_, c, "", &DramSystem::channelStats,
                          {{"reads", &C::reads}});
    }

    addRows<P>(r, "dram.power.", power, {
        {"total_energy_nj", &P::totalEnergy},
        {"background_energy_nj", &P::backgroundEnergy},
        {"activate_energy_nj", &P::activateEnergy},
        {"read_energy_nj", &P::readEnergy},
        {"write_energy_nj", &P::writeEnergy},
        {"refresh_energy_nj", &P::refreshEnergy},
        {"scrub_energy_nj", &P::scrubEnergy},
        {"avg_power_mw",
         [this](const P &p) {
             return p.averagePowerMw(config_.dram.timing.cpuMhz,
                                     now_ - statsResetAt_);
         }},
        {"exit_penalty_cycles", &P::exitPenaltyCycles},
        {"refreshes_suppressed", &P::refreshesSuppressed},
        {"powerdown_entries", &P::powerdownEntries},
        {"self_refresh_entries", &P::selfRefreshEntries},
        {"active_cycles", &P::activeCycles},
        {"powerdown_fast_cycles", &P::powerdownFastCycles},
        {"powerdown_slow_cycles", &P::powerdownSlowCycles},
        {"self_refresh_cycles", &P::selfRefreshCycles},
    });
    r.registerHistogram("dram.power.low_power_span",
                        [power] { return power().lowPowerSpanHist; });
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        std::uint32_t lc;
        const DramSystem &d = dramOfChannel(drams_, c, lc);
        addChannelRows<P>(r, drams_, c, "",
                          &DramSystem::channelPowerStats,
                          {{"energy_nj", &P::totalEnergy}});
        for (std::uint32_t k = 0; k < d.powerRanks(); ++k) {
            r.registerScalar("dram.ch" + std::to_string(c) + ".rank" +
                                 std::to_string(k) + ".energy_nj",
                             [&d, lc, k] { return d.rankEnergy(lc, k); });
        }
    }
    addRows<P>(r, "dram.power.", power,
               {{"mitigation_energy_nj", &P::mitigationEnergy}});

    // Per-channel injected-fault counters.  Registered even when
    // injection is off (all zeros): sweeps comparing faulty vs clean
    // configs then diff identical column sets.
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        addChannelRows<F>(r, drams_, c, "faults.",
                          &DramSystem::channelFaultStats, {
                              {"bus_stalls", &F::busStalls},
                              {"bus_stall_cycles", &F::busStallCycles},
                              {"read_errors", &F::readErrors},
                              {"enqueue_delays", &F::enqueueDelays},
                              {"enqueue_delay_cycles",
                               &F::enqueueDelayCycles},
                              {"ecc_single_bit", &F::eccSingleBit},
                              {"ecc_multi_bit", &F::eccMultiBit},
                          });
    }

    // Rowhammer disturbance/mitigation counters (zeros when the
    // model is off, same diff-ability rationale as above).
    const auto hammer = [this] {
        return sumSockets(&DramSystem::aggregateHammerStats);
    };
    addRows<H>(r, "dram.hammer.", hammer, {
        {"activations", &H::activations},
        {"threshold_crossings", &H::thresholdCrossings},
        {"victim_flips", &H::victimFlips},
        {"victim_corrected", &H::victimCorrected},
        {"victim_uncorrectable", &H::victimUncorrectable},
        {"silent_corruptions", &H::silentCorruptions},
        {"flips_scrubbed", &H::flipsScrubbed},
        {"window_resets", &H::windowResets},
        {"mitigations_requested", &H::mitigationsRequested},
        {"mitigations_issued", &H::mitigationsIssued},
        {"mitigation_cycles", &H::mitigationCycles},
        {"tracker_evictions", &H::trackerEvictions},
    });
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        addChannelRows<H>(r, drams_, c, "hammer.",
                          &DramSystem::channelHammerStats, {
                              {"victim_flips", &H::victimFlips},
                              {"mitigations_issued",
                               &H::mitigationsIssued},
                          });
    }

    // Per-thread CPU counters, summed (occupancy) or maxed (high-water
    // marks) over the cores a thread may have run on.
    for (std::uint32_t t = 0; t < n; ++t) {
        const std::string p = "cpu.t" + std::to_string(t) + ".";
        const auto tid = static_cast<ThreadId>(t);
        const auto over_cores = [this, tid](auto per_core, bool sum) {
            return [this, tid, per_core, sum] {
                std::uint32_t v = 0;
                for (const auto &c : cores_) {
                    const std::uint32_t x = ((*c).*per_core)(tid);
                    v = sum ? v + x : std::max(v, x);
                }
                return static_cast<double>(v);
            };
        };
        r.registerScalar(p + "committed", [this, tid] {
            return static_cast<double>(committedOf(tid));
        });
        r.registerScalar(p + "rob_occupancy",
                         over_cores(&SmtCore::robOccupancy, true));
        r.registerScalar(p + "rob_high_water",
                         over_cores(&SmtCore::robHighWater, false));
        r.registerScalar(p + "iq_high_water",
                         over_cores(&SmtCore::intIqHighWater, false));
        r.registerScalar(p + "dram_reads", [this, tid] {
            return static_cast<double>(perThreadReads()[tid]);
        });
    }

    // Latency-blame attribution (stats schema v2): aggregate cycle
    // totals + per-request distributions per component, the per-thread
    // DRAM-side CPI stack, and the who-stalled-whom matrix.
    for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
        const std::string name =
            blameComponentName(static_cast<BlameComponent>(c));
        addRows<C>(r, "dram.blame.", dram, {
            {name + "_cycles",
             [c](const C &s) { return s.blameTotals.cycles[c]; }},
        });
        r.registerHistogram("dram.blame." + name, [this, c] {
            return aggDramStats().blameHist[c];
        });
    }
    for (std::uint32_t t = 0; t < n; ++t) {
        std::vector<Row<C>> rows;
        for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
            rows.push_back(
                {std::string(blameComponentName(
                     static_cast<BlameComponent>(c))) + "_cycles",
                 [t, c](const C &s) {
                     return t < s.perThreadBlame.size()
                                ? s.perThreadBlame[t].cycles[c]
                                : 0;
                 }});
        }
        addRows<C>(r, "cpu.t" + std::to_string(t) + ".blame.", dram,
                   rows);
    }
    for (ThreadId i = 0; i < n; ++i) {
        std::vector<Row<C>> rows = {{"system", [i](const C &s) {
                                         return s.interference.at(
                                             i, kThreadNone);
                                     }}};
        for (ThreadId j = 0; j < n; ++j) {
            rows.push_back({"t" + std::to_string(j), [i, j](const C &s) {
                                return s.interference.at(i, j);
                            }});
        }
        rows.push_back({"total", [i](const C &s) {
                            return s.interference.rowSum(i);
                        }});
        addRows<C>(r, "dram.interference.t" + std::to_string(i) + ".",
                   dram, rows);
    }

    // Bounded-buffer trace drops: a truncated trace must be visible
    // in the stats JSON, not only in the file's own gaps.
    r.registerScalar("trace.dropped_events", [this] {
        return tracer_ ? static_cast<double>(tracer_->droppedEvents())
                       : 0.0;
    });

    // Per-channel power-state residency and mitigation activity, as
    // scalars so sampleEpoch() turns them into epoch time series.
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        addChannelRows<P>(r, drams_, c, "power.",
                          &DramSystem::channelPowerStats, {
                              {"active_cycles", &P::activeCycles},
                              {"powerdown_fast_cycles",
                               &P::powerdownFastCycles},
                              {"powerdown_slow_cycles",
                               &P::powerdownSlowCycles},
                              {"self_refresh_cycles",
                               &P::selfRefreshCycles},
                          });
        addChannelRows<H>(r, drams_, c, "hammer.",
                          &DramSystem::channelHammerStats,
                          {{"mitigation_cycles", &H::mitigationCycles}});
    }

    // Histograms.
    for (const auto &[key, hist] :
         {std::pair{"dram.read_latency", &C::readLatencyHist},
          {"dram.read_queue_depth", &C::queueDepthHist},
          {"dram.row_hit_run", &C::rowHitRunHist}}) {
        r.registerHistogram(key, [this, hist = hist] {
            return aggDramStats().*hist;
        });
    }
    r.registerHistogram("dram.bandwidth_share_pct", [this] {
        LogHistogram h;
        const auto reads = perThreadReads();
        std::uint64_t total = 0;
        for (auto v : reads)
            total += v;
        if (total > 0) {
            // Round to nearest, matching run()'s bandwidthShareHist;
            // truncation biases every thread's share low.
            for (auto v : reads)
                h.sample((100 * v + total / 2) / total);
        }
        return h;
    });

    // --- stats schema v3: the numa.* block and the sockets/cores meta
    // keys, only on a machine with more than one core. --------------
    if (!config_.topology.active())
        return;
    using N = NumaStats;
    r.setMeta("sockets", std::to_string(config_.topology.sockets));
    r.setMeta("cores", std::to_string(config_.topology.totalCores()));
    const SocketRouter &router = *router_;
    const auto numa = [&router]() -> const N & { return router.stats(); };
    addRows<N>(r, "numa.", numa, {
        {"local_reads", &N::localReads},
        {"remote_reads", &N::remoteReads},
        {"remote_read_frac", &N::remoteReadFrac},
        {"local_writes", &N::localWrites},
        {"remote_writes", &N::remoteWrites},
        {"outbound_cycles", &N::outboundCycles},
        {"return_cycles", &N::returnCycles},
        {"link_queue_cycles", &N::linkQueueCycles},
        {"link_transfers", &N::linkTransfers},
        {"migrations", &N::migrations},
        {"migration_stall_cycles", &N::migrationStallCycles},
    });
    for (std::uint32_t s = 0; s < config_.topology.sockets; ++s) {
        const DramSystem &d = *drams_[s];
        addRows<C>(r, "numa.s" + std::to_string(s) + ".",
                   [&d] { return d.aggregateStats(); },
                   {{"reads", &C::reads},
                    {"writes", &C::writes},
                    {"row_hits", &C::rowHits}});
    }
    for (std::uint32_t t = 0; t < n; ++t) {
        addRows<N>(r, "numa.t" + std::to_string(t) + ".", numa, {
            {"remote_reads",
             [t](const N &s) { return s.perThreadRemoteReads[t]; }},
            {"return_cycles",
             [t](const N &s) { return s.perThreadReturnCycles[t]; }},
        });
        r.registerScalar("numa.t" + std::to_string(t) + ".core", [this, t] {
            return static_cast<double>(threadCore_[t]);
        });
    }
}

void
SmtSystem::syncPower()
{
    for (auto &d : drams_)
        d->syncPower(now_);
}

void
SmtSystem::sampleEpoch()
{
    // Energy accounting is lazy; bring it current so the epoch's
    // power scalars describe [resetAt, now] and not a stale horizon.
    syncPower();
    if (registry_)
        registry_->sampleEpoch(now_);
    if (!tracer_)
        return;
    // Counter tracks: live queue depth per channel, ROB occupancy
    // summed over threads — render as stacked area charts in Perfetto.
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        std::uint32_t lc;
        const DramSystem &d = dramOfChannel(drams_, c, lc);
        tracer_->counter(tracePidChannel(c), "queued_reads", now_,
                         static_cast<double>(d.channelQueuedReads(lc)));
    }
    double rob_total = 0.0;
    for (std::uint32_t t = 0; t < config_.core.numThreads; ++t) {
        for (const auto &c : cores_)
            rob_total += c->robOccupancy(static_cast<ThreadId>(t));
    }
    tracer_->counter(kTracePidCpu, "rob_occupancy", now_, rob_total);
    // Blame, residency, and mitigation dynamics per channel.
    // Cumulative counters: Perfetto differentiates visually, and the
    // monotone series diff cleanly across kernels.
    for (std::uint32_t c = 0; c < totalChannels(); ++c) {
        std::uint32_t lc;
        const DramSystem &d = dramOfChannel(drams_, c, lc);
        const int pid = tracePidChannel(c);
        const ControllerStats &s = d.channelStats(lc);
        for (std::size_t k = 0; k < kNumBlameComponents; ++k) {
            tracer_->counter(
                pid, blameCounterName(static_cast<BlameComponent>(k)),
                now_,
                static_cast<double>(s.blameTotals.cycles[k]));
        }
        if (config_.dram.power.enabled) {
            const PowerStats &p = d.channelPowerStats(lc);
            tracer_->counter(pid, "power_active_cycles", now_,
                             static_cast<double>(p.activeCycles));
            tracer_->counter(
                pid, "power_lowpower_cycles", now_,
                static_cast<double>(p.powerdownFastCycles +
                                    p.powerdownSlowCycles +
                                    p.selfRefreshCycles));
        }
        if (config_.dram.hammer.mitigates()) {
            tracer_->counter(
                pid, "hammer_mitigation_cycles", now_,
                static_cast<double>(
                    d.channelHammerStats(lc).mitigationCycles));
        }
    }
}

void
SmtSystem::exportObservability()
{
    syncPower();
    if (registry_) {
        if (!config_.observe.statsJsonPath.empty()) {
            std::ofstream os(config_.observe.statsJsonPath);
            if (os)
                registry_->writeJson(os, now_);
            else
                warn("cannot write stats JSON to %s",
                     config_.observe.statsJsonPath.c_str());
        }
        if (!config_.observe.statsCsvPath.empty()) {
            std::ofstream os(config_.observe.statsCsvPath);
            if (os)
                registry_->writeCsv(os, now_);
            else
                warn("cannot write stats CSV to %s",
                     config_.observe.statsCsvPath.c_str());
        }
    }
    if (tracer_)
        tracer_->flush();
}

void
SmtSystem::prewarmCaches(const std::vector<AppProfile> &apps)
{
    // Structural warm-up, mirroring the paper's fast-forward phase:
    // hot sets into the L1D and the leading slice of each cold set
    // into L2/L3.  Threads interleave page-sized chunks so the
    // shared caches end up fairly mixed, as they would after real
    // co-scheduled fast-forwarding.  Each thread warms through the
    // hierarchy of the core it was placed on, which is also what
    // makes first-touch frames land on the right home socket.
    const std::uint64_t line = config_.hierarchy.l1d.lineBytes;
    const std::uint64_t chunk = config_.hierarchy.pageBytes;
    const std::uint64_t cold_cap = config_.hierarchy.l3.sizeBytes;

    // A Streaming/Strided/RowHammer cold set larger than the L3 is
    // compulsory missing in steady state (every access is a new line
    // forever), so pre-warming it would fake locality the workload
    // does not have.  Anything that fits the L3 is resident in steady
    // state and is pre-warmed whatever its pattern.
    auto cold_prewarm_bytes = [cold_cap](const AppProfile &a) {
        if (a.coldBytes > cold_cap &&
            (a.coldPattern == AccessPattern::Streaming ||
             a.coldPattern == AccessPattern::Strided ||
             a.coldPattern == AccessPattern::RowHammer)) {
            return std::uint64_t{0};
        }
        return std::min<std::uint64_t>(a.coldBytes, cold_cap);
    };

    // Lay out each thread's address space first, the way a program
    // initializing its data before the measured region would: code,
    // hot set, and the full cold region each get contiguous frame
    // blocks.  Array strides and array-to-array offsets then keep
    // their power-of-two structure in physical memory, which is what
    // the DRAM mapping schemes of Section 5.4 react to.
    for (size_t i = 0; i < apps.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        const AppProfile &a = apps[i];
        Hierarchy &h = *hierarchies_[threadCore_[i]];
        h.preallocate(tid, SyntheticStream::kCodeBase, a.codeBytes);
        h.preallocate(tid, SyntheticStream::kHotBase, a.hotBytes);
        h.preallocate(tid, SyntheticStream::kColdBase, a.coldBytes);
    }

    std::uint64_t max_bytes = 0;
    for (const AppProfile &a : apps) {
        max_bytes = std::max(max_bytes, a.hotBytes);
        max_bytes = std::max(max_bytes, cold_prewarm_bytes(a));
    }

    for (std::uint64_t base = 0; base < max_bytes; base += chunk) {
        for (size_t i = 0; i < apps.size(); ++i) {
            const auto tid = static_cast<ThreadId>(i);
            const AppProfile &a = apps[i];
            Hierarchy &h = *hierarchies_[threadCore_[i]];
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, a.hotBytes);
                 off += line) {
                h.prewarmLine(tid, SyntheticStream::kHotBase + off,
                              true);
            }
            const std::uint64_t cold_limit = cold_prewarm_bytes(a);
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, cold_limit);
                 off += line) {
                h.prewarmLine(tid, SyntheticStream::kColdBase + off,
                              false);
            }
        }
    }
}

void
SmtSystem::stepCycle()
{
    ++now_;
    events_.runUntil(now_);
    for (auto &d : drams_)
        d->tick(now_);
    for (auto &h : hierarchies_)
        h->tick(now_);
    for (auto &c : cores_)
        c->cycle(now_);
}

std::uint64_t
SmtSystem::skipToNextEvent(Cycle clamp)
{
    // Cores first, with early-outs: in an active compute phase a
    // core answers now_ + 1 almost immediately and the (costlier)
    // DRAM scan never runs, so event-driven mode adds near-zero
    // overhead exactly where it cannot win anything.
    Cycle next = kCycleNever;
    for (const auto &c : cores_) {
        next = std::min(next, c->nextEventAt(now_));
        if (next <= now_ + 1)
            return 0;
    }
    for (const auto &h : hierarchies_) {
        if (h->pendingWritebacks() > 0)
            return 0;  // writeback drain retries every cycle
    }
    // A draining migration checks quiescence every cycle; both
    // kernels must observe the handover on the same cycle.
    if (!pendingMigrations_.empty())
        return 0;
    next = std::min(next, events_.nextEventAt());
    if (next <= now_ + 1)
        return 0;
    for (const auto &d : drams_)
        next = std::min(next, d->nextEventAt(now_));
    if (next <= now_ + 1)
        return 0;
    if (next == kCycleNever && clamp == kCycleNever) {
        // The per-cycle kernel would spin forever here (no watchdog
        // to catch it); a diagnosed abort beats a silent hang.
        dumpState(std::cerr);
        panic("event-driven kernel: no component reports a pending "
              "event at cycle %llu and no watchdog/epoch deadline "
              "bounds the jump — the machine is deadlocked",
              (unsigned long long)now_);
    }
    next = std::min(next, clamp);
    if (next <= now_ + 1)
        return 0;
    // Every cycle in (now_, next) is a proven no-op; replay its only
    // side effect (the rotation counters) and land one cycle short so
    // the event cycle itself is stepped for real.
    const std::uint64_t skipped = next - now_ - 1;
    for (auto &c : cores_)
        c->skipCycles(skipped);
    now_ = next - 1;
    return skipped;
}

void
SmtSystem::considerMigration()
{
    // Judge this epoch's traffic only, and rebase for the next epoch
    // whatever the policy decides.
    const std::uint32_t n = config_.core.numThreads;
    const auto &remote = router_->stats().perThreadRemoteReads;
    std::vector<std::uint64_t> delta(n);
    std::vector<std::vector<std::uint64_t>> to_socket(n);
    for (ThreadId t = 0; t < n; ++t) {
        const auto &reads = router_->readsToSocket(t);
        delta[t] = remote[t] - remoteBase_[t];
        for (std::size_t s = 0; s < reads.size(); ++s)
            to_socket[t].push_back(reads[s] - toSocketBase_[t][s]);
        remoteBase_[t] = remote[t];
        toSocketBase_[t] = reads;
    }
    if (!pendingMigrations_.empty())
        return;
    for (const Migration &m : chooseMigrations(
             config_.topology, threadCore_, delta, to_socket)) {
        // Park the thread; serviceMigrations() lands it once its old
        // context has drained.
        cores_[m.from]->bindStream(m.tid, nullptr);
        pendingMigrations_.push_back({m, now_});
    }
}

void
SmtSystem::serviceMigrations()
{
    for (std::size_t i = 0; i < pendingMigrations_.size();) {
        const Migration &m = pendingMigrations_[i].move;
        if (cores_[m.from]->quiescent(m.tid)) {
            cores_[m.to]->migrateIn(
                m.tid, streams_[m.tid].get(),
                now_ + config_.topology.migrationCost);
            threadCore_[m.tid] = m.to;
            router_->noteMigration(now_ - pendingMigrations_[i].since +
                                   config_.topology.migrationCost);
            pendingMigrations_.erase(pendingMigrations_.begin() +
                                     static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

RunResult
SmtSystem::run(std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    const std::uint32_t n = config_.core.numThreads;
    const bool migrating =
        config_.topology.placement == PlacementPolicy::Migrate &&
        config_.topology.migrationEpoch > 0;

    auto all_committed = [this, n](std::uint64_t target,
                                   std::uint64_t grand_base,
                                   const std::vector<std::uint64_t>
                                       &base) {
        // Cheap necessary condition first: the grand total must reach
        // n*target before every thread possibly has, so most cycles
        // skip the per-thread scan entirely.
        if (grandCommitted() - grand_base <
            static_cast<std::uint64_t>(n) * target)
            return false;
        for (ThreadId t = 0; t < n; ++t) {
            if (committedOf(t) - base[t] < target)
                return false;
        }
        return true;
    };

    // Deadlock watchdog: every thread must commit something within
    // the configured window or the model has a bug worth aborting
    // on; it fires with a full state dump instead of hanging.
    Watchdog watchdog(config_.progressWindow, "commit progress");
    watchdog.kick(now_);
    const auto dump = [this] { dumpState(std::cerr); };

    // Skip-to-next-event kernel: jump over provably idle stretches
    // instead of ticking them.  A tracer forces per-cycle stepping —
    // fetch-stall spans open on the tick *after* the gating state
    // arises, and skipping that tick would shift span timestamps.
    const bool event_driven =
        config_.kernel == KernelMode::EventDriven && !tracer_;
    // The watchdog's expiry cycle and each migration epoch must be
    // real-stepped so they fire on exactly the same cycle, on the
    // same state, as under the per-cycle kernel.
    const auto clamp_of = [&watchdog, this, migrating] {
        Cycle clamp = watchdog.bound() > 0
                          ? watchdog.lastProgressAt() +
                                watchdog.bound() + 1
                          : kCycleNever;
        if (migrating) {
            clamp = std::min(clamp, lastMigrateAt_ +
                                        config_.topology.migrationEpoch);
        }
        return clamp;
    };
    const auto os_tick = [this, migrating] {
        if (migrating &&
            now_ - lastMigrateAt_ >= config_.topology.migrationEpoch) {
            lastMigrateAt_ = now_;
            considerMigration();
        }
        if (!pendingMigrations_.empty())
            serviceMigrations();
    };

    // ---- Warm-up phase (caches, predictor, DRAM state) ----
    std::vector<std::uint64_t> zero(n, 0);
    std::uint64_t last_total = grandCommitted();
    while (!all_committed(warmup_insts, 0, zero)) {
        if (event_driven)
            skipToNextEvent(clamp_of());
        stepCycle();
        os_tick();
        const std::uint64_t total = grandCommitted();
        if (total != last_total) {
            last_total = total;
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Reset statistics at the measurement boundary ----
    for (auto &h : hierarchies_)
        h->resetStats();
    for (auto &d : drams_)
        d->resetStats(now_);
    for (auto &c : cores_)
        c->resetHighWater();
    router_->resetStats();
    remoteBase_.assign(n, 0);
    for (auto &per : toSocketBase_)
        per.assign(per.size(), 0);
    lastMigrateAt_ = now_;
    lastEpochAt_ = now_;
    statsResetAt_ = now_;

    // Branch and int-issue counters summed over every core.
    struct CoreTotals {
        std::uint64_t branches = 0, mispredicts = 0, intIssue = 0;
    };
    const auto core_totals = [this, n] {
        CoreTotals sum;
        for (const auto &c : cores_) {
            for (ThreadId t = 0; t < n; ++t) {
                sum.branches += c->perf(t).branches;
                sum.mispredicts += c->perf(t).mispredicts;
            }
            sum.intIssue += c->intIssueActiveCycles();
        }
        return sum;
    };
    const CoreTotals core_base = core_totals();
    std::vector<std::uint64_t> base(n);
    for (ThreadId t = 0; t < n; ++t)
        base[t] = committedOf(t);
    const std::uint64_t grand_base = grandCommitted();
    const Cycle start = now_;

    RunResult res;
    res.ipc.assign(n, 0.0);
    res.committed.assign(n, 0);
    std::vector<Cycle> finish(n, 0);

    // ---- Measured phase ----
    while (!all_committed(measure_insts, grand_base, base)) {
        if (event_driven) {
            // Epoch boundaries are clamps too: the boundary cycle is
            // real-stepped, so sampleEpoch() fires on exactly the
            // cycles the per-cycle kernel samples.
            Cycle clamp = clamp_of();
            if (config_.observe.epoch > 0) {
                clamp = std::min(clamp,
                                 lastEpochAt_ + config_.observe.epoch);
            }
            const std::uint64_t skipped = skipToNextEvent(clamp);
            // Interval-weighted Figure 4/5 sampling: the DRAM state is
            // frozen across the skipped window, so the per-cycle
            // kernel would have recorded these exact values once per
            // skipped cycle.
            if (const size_t outstanding = dramOutstanding();
                skipped > 0 && outstanding > 0) {
                res.outstandingHist.sample(outstanding, skipped);
                if (outstanding >= 2) {
                    res.threadsHist.sample(
                        router_->readCounts().distinct(), skipped);
                }
            }
        }
        stepCycle();
        os_tick();

        // Observability epoch boundary (off unless epoch > 0).
        if (config_.observe.epoch > 0 &&
            now_ - lastEpochAt_ >= config_.observe.epoch) {
            lastEpochAt_ = now_;
            sampleEpoch();
        }

        // Figures 4 and 5: sample while the DRAM system is busy.
        if (const size_t outstanding = dramOutstanding(); outstanding > 0) {
            res.outstandingHist.sample(outstanding);
            if (outstanding >= 2)
                res.threadsHist.sample(router_->readCounts().distinct());
        }

        // Per-thread finish times only move on a cycle where some
        // thread committed, i.e. when the grand total moved — exact,
        // since the counters are monotonic.  Most cycles take only
        // this one comparison.
        const std::uint64_t total = grandCommitted();
        if (total != last_total) {
            last_total = total;
            for (ThreadId t = 0; t < n; ++t) {
                if (finish[t] == 0 &&
                    committedOf(t) - base[t] >= measure_insts)
                    finish[t] = now_;
            }
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Collect results ----
    res.measuredCycles = now_ - start;
    std::uint64_t committed_total = 0;
    for (ThreadId t = 0; t < n; ++t) {
        if (finish[t] == 0)
            finish[t] = now_;
        res.committed[t] = committedOf(t) - base[t];
        committed_total += res.committed[t];
        res.ipc[t] = static_cast<double>(measure_insts) /
                     static_cast<double>(finish[t] - start);
    }

    res.dram = aggDramStats();
    syncPower();
    res.power = sumSockets(&DramSystem::aggregatePowerStats);
    res.hammer = sumSockets(&DramSystem::aggregateHammerStats);
    res.numa = router_->stats();
    const std::uint64_t row_total =
        res.dram.rowHits + res.dram.rowEmpty + res.dram.rowConflicts;
    res.rowMissRate = row_total ? res.dram.rowMissRate() : 0.0;
    res.memAccessPer100 =
        committed_total
            ? 100.0 * static_cast<double>(res.dram.reads) /
                  static_cast<double>(committed_total)
            : 0.0;

    const CoreTotals core_end = core_totals();
    // Mean over cores: every core can issue in every cycle.
    res.intIssueActiveFrac =
        res.measuredCycles
            ? static_cast<double>(core_end.intIssue - core_base.intIssue) /
                  (static_cast<double>(res.measuredCycles) *
                   static_cast<double>(cores_.size()))
            : 0.0;
    const std::uint64_t branches = core_end.branches - core_base.branches;
    res.branchMispredictRate =
        branches ? static_cast<double>(core_end.mispredicts -
                                       core_base.mispredicts) /
                       branches
                 : 0.0;

    res.perThreadReads = perThreadReads();
    std::uint64_t reads_total = 0;
    for (auto v : res.perThreadReads)
        reads_total += v;
    if (reads_total > 0) {
        // Round to nearest: plain truncation systematically biases
        // every share low (four perfectly fair threads each report
        // 24% instead of 25%).
        for (auto v : res.perThreadReads)
            res.bandwidthShareHist.sample(
                (100 * v + reads_total / 2) / reads_total);
    }

    exportObservability();
    return res;
}

void
SmtSystem::dumpState(std::ostream &os) const
{
    os << "=== SmtSystem state dump (cycle " << now_ << ") ===\n";
    for (ThreadId t = 0; t < config_.core.numThreads; ++t) {
        os << "  thread " << t << ": committed=" << committedOf(t)
           << " core=" << threadCore_[t] << "\n";
    }
    for (std::uint32_t s = 0; s < drams_.size(); ++s) {
        if (drams_.size() > 1)
            os << "  --- socket " << s << " ---\n";
        drams_[s]->dumpState(os);
    }
    os << "=== end SmtSystem state dump ===\n";
}

} // namespace smtdram
