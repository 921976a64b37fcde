/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator primitives:
 * address mapping, scheduler picks, controller transaction flow,
 * cache tag access, and workload generation.  These guard the
 * simulator's own performance (a slow simulator caps experiment
 * sizes) and double as an ablation of scheduler pick costs.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "cache/cache_array.hh"
#include "common/random.hh"
#include "common/trace_event.hh"
#include "dram/address_mapping.hh"
#include "dram/dram_system.hh"
#include "dram/memory_controller.hh"
#include "sim/smt_system.hh"
#include "workload/hammer_workload.hh"
#include "workload/spec2000.hh"
#include "workload/synthetic_stream.hh"

using namespace smtdram;

namespace
{

void
BM_AddressMappingPage(benchmark::State &state)
{
    DramConfig config = DramConfig::ddrSdram(8);
    config.mapping = MappingScheme::PageInterleave;
    AddressMapping mapping(config);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapping.map(rng.below(1ULL << 32) & ~63ULL));
    }
}
BENCHMARK(BM_AddressMappingPage);

void
BM_AddressMappingXor(benchmark::State &state)
{
    DramConfig config = DramConfig::ddrSdram(8);
    config.mapping = MappingScheme::XorPermute;
    AddressMapping mapping(config);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapping.map(rng.below(1ULL << 32) & ~63ULL));
    }
}
BENCHMARK(BM_AddressMappingXor);

/** Scheduler pick cost over a queue of the given depth. */
void
BM_SchedulerPick(benchmark::State &state)
{
    const auto kind = static_cast<SchedulerKind>(state.range(0));
    const size_t depth = static_cast<size_t>(state.range(1));

    auto scheduler = makeScheduler(kind);
    Rng rng(7);
    std::vector<DramRequest> reqs(depth);
    std::vector<SchedCandidate> candidates(depth);
    for (size_t i = 0; i < depth; ++i) {
        reqs[i].id = i + 1;
        reqs[i].arrival = rng.below(1000);
        reqs[i].thread = static_cast<ThreadId>(rng.below(8));
        reqs[i].snap.outstandingRequests =
            static_cast<std::uint32_t>(rng.below(16));
        reqs[i].snap.robOccupancy =
            static_cast<std::uint32_t>(rng.below(256));
        reqs[i].snap.iqOccupancy =
            static_cast<std::uint32_t>(rng.below(64));
        candidates[i].req = &reqs[i];
        candidates[i].rowHit = rng.chance(0.4);
        candidates[i].bankIdle = rng.chance(0.2);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(scheduler->pick(candidates, depth));
    state.SetLabel(schedulerName(kind));
}
BENCHMARK(BM_SchedulerPick)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {8, 32}});

/** End-to-end controller throughput on a synthetic request storm. */
void
BM_ControllerStream(benchmark::State &state)
{
    DramConfig config = DramConfig::ddrSdram(1);
    AddressMapping mapping(config);
    MemoryController mc(config, SchedulerKind::HitFirst);
    Rng rng(3);
    std::vector<DramRequest> completed;
    Cycle now = 0;
    std::uint64_t id = 1;
    for (auto _ : state) {
        ++now;
        if (mc.canAcceptRead()) {
            DramRequest req;
            req.id = id++;
            req.op = MemOp::Read;
            req.addr = rng.below(1ULL << 28) & ~63ULL;
            req.thread = 0;
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            mc.enqueue(req);
        }
        completed.clear();
        mc.tick(now, completed);
        benchmark::DoNotOptimize(completed.size());
    }
    state.counters["reads"] = static_cast<double>(mc.stats().reads);
}
BENCHMARK(BM_ControllerStream);

/**
 * Lifecycle-tracing overhead: BM_ControllerStream with a Tracer
 * attached (arg 1) vs. detached (arg 0).  Compare the two rows to
 * read off the per-cycle cost of full request-lifecycle tracing; the
 * detached row also bounds the "observability compiled in but off"
 * tax, which must stay at a null-pointer test per call site.
 */
void
BM_TraceOverhead(benchmark::State &state)
{
    const bool traced = state.range(0) != 0;
    DramConfig config = DramConfig::ddrSdram(1);
    AddressMapping mapping(config);
    MemoryController mc(config, SchedulerKind::HitFirst);
    Tracer tracer("/dev/null", /*capacity=*/1u << 20);
    if (traced)
        mc.setTracer(&tracer);
    Rng rng(3);
    std::vector<DramRequest> completed;
    Cycle now = 0;
    std::uint64_t id = 1;
    for (auto _ : state) {
        ++now;
        if (mc.canAcceptRead()) {
            DramRequest req;
            req.id = id++;
            req.op = MemOp::Read;
            req.addr = rng.below(1ULL << 28) & ~63ULL;
            req.thread = 0;
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            mc.enqueue(req);
        }
        completed.clear();
        mc.tick(now, completed);
        benchmark::DoNotOptimize(completed.size());
    }
    state.SetLabel(traced ? "tracing" : "off");
    state.counters["events"] =
        static_cast<double>(tracer.eventCount());
    state.counters["dropped"] =
        static_cast<double>(tracer.droppedEvents());
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

/**
 * Soak mode: every scheduler ticked through a request storm with
 * fault injection (bus stalls, read retries, enqueue delays),
 * auto-refresh, and the conservation checker enabled.  Measures the
 * resilience layer's overhead per cycle and doubles as a stress test:
 * the checker aborts the benchmark if any scheduler loses or
 * duplicates a request under fire.
 */
void
BM_FaultSoak(benchmark::State &state)
{
    const auto kind = static_cast<SchedulerKind>(state.range(0));
    DramConfig config = DramConfig::ddrSdram(2).withRefresh(5'000, 120);
    config.checkerEnabled = true;
    config.checkerMaxAge = 2'000'000;
    config.faults.enabled = true;
    config.faults.seed = 13;
    config.faults.busStallProbability = 0.001;
    config.faults.busStallCycles = 200;
    config.faults.readErrorProbability = 0.02;
    config.faults.enqueueDelayProbability = 0.05;
    config.faults.enqueueDelayMax = 64;
    DramSystem dram(config, kind);
    Rng rng(29);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        if (rng.chance(0.3)) {
            const Addr addr = rng.below(1ULL << 28) & ~63ULL;
            if (rng.chance(0.8)) {
                if (dram.canAccept(addr, MemOp::Read)) {
                    ThreadSnapshot snap;
                    snap.outstandingRequests =
                        static_cast<std::uint32_t>(rng.below(8));
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(8)),
                        snap, now);
                }
            } else if (dram.canAccept(addr, MemOp::Write)) {
                dram.enqueueWrite(addr, now);
            }
        }
        dram.tick(now);
    }
    // Let in-flight traffic finish, then prove nothing was lost.
    while (dram.busy())
        dram.tick(++now);
    dram.checker()->verifyDrained();
    const ControllerStats stats = dram.aggregateStats();
    const FaultStats faults = dram.aggregateFaultStats();
    state.SetLabel(schedulerName(kind));
    state.counters["retries"] = static_cast<double>(stats.readRetries);
    state.counters["refreshes"] = static_cast<double>(stats.refreshes);
    state.counters["stalls"] = static_cast<double>(faults.busStalls);
}
BENCHMARK(BM_FaultSoak)->DenseRange(0, 5)->Iterations(200'000);

/**
 * SECDED ECC soak: every scheduler ticked through demand traffic with
 * check-bit transfer overhead, patrol scrubbing, and nonzero
 * correctable/uncorrectable error rates.  Measures the ECC layer's
 * per-cycle cost and doubles as a stress test: the conservation
 * checker aborts the benchmark if scrub traffic loses, duplicates, or
 * starves a request on any scheduler.
 */
void
BM_EccScrub(benchmark::State &state)
{
    const auto kind = static_cast<SchedulerKind>(state.range(0));
    DramConfig config = DramConfig::ddrSdram(2);
    config.checkerEnabled = true;
    config.checkerMaxAge = 2'000'000;
    config.ecc.enabled = true;
    config.ecc.checkOverheadCycles = 4;
    config.ecc.correctableProbability = 0.01;
    config.ecc.uncorrectableProbability = 0.001;
    config.ecc.scrubInterval = 2'000;
    config.ecc.scrubBurst = 4;
    DramSystem dram(config, kind);
    Rng rng(31);
    Cycle now = 0;
    std::uint64_t poisoned = 0;
    dram.setReadCallback([&poisoned](const DramRequest &req) {
        if (req.poisoned)
            ++poisoned;
    });
    for (auto _ : state) {
        ++now;
        if (rng.chance(0.3)) {
            const Addr addr = rng.below(1ULL << 28) & ~63ULL;
            if (rng.chance(0.8)) {
                if (dram.canAccept(addr, MemOp::Read)) {
                    ThreadSnapshot snap;
                    snap.outstandingRequests =
                        static_cast<std::uint32_t>(rng.below(8));
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(8)),
                        snap, now);
                }
            } else if (dram.canAccept(addr, MemOp::Write)) {
                dram.enqueueWrite(addr, now);
            }
        }
        dram.tick(now);
    }
    // Drain and prove conservation covered the scrub traffic too.
    while (dram.busy())
        dram.tick(++now);
    dram.checker()->verifyDrained();
    const ControllerStats stats = dram.aggregateStats();
    state.SetLabel(schedulerName(kind));
    state.counters["scrubs"] = static_cast<double>(stats.scrubReads);
    state.counters["corrected"] =
        static_cast<double>(stats.correctedErrors);
    state.counters["uncorrectable"] =
        static_cast<double>(stats.uncorrectableErrors);
    state.counters["poisoned"] = static_cast<double>(poisoned);
}
BENCHMARK(BM_EccScrub)->DenseRange(0, 5)->Iterations(150'000);

/**
 * Power-subsystem overhead: BM_SimThroughput's workload with the
 * low-power state machine off (arg 0, the always-on metering only)
 * vs. on (arg 1).  The metering row must stay within a few percent of
 * BM_SimThroughput — energy accounting is pure arithmetic on events
 * that already happen and the lazy state machine does no per-cycle
 * work, so neither row may tax the per-cycle kernel.
 */
void
BM_PowerOverhead(benchmark::State &state)
{
    const bool machine_on = state.range(0) != 0;
    SystemConfig config = SystemConfig::paperDefault(2);
    if (machine_on)
        config.dram.withPowerManagement();
    std::vector<AppProfile> apps = {specProfile("mcf"),
                                    specProfile("swim")};
    std::uint64_t cycles = 0;
    double energy = 0.0;
    for (auto _ : state) {
        SmtSystem system(config, apps, 42);
        const RunResult r = system.run(4'000, 1'000);
        cycles += r.measuredCycles;
        energy += r.power.totalEnergy;
        benchmark::DoNotOptimize(r.measuredCycles);
    }
    state.SetLabel(machine_on ? "machine-on" : "metering-only");
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["energy_nj"] = energy;
}
BENCHMARK(BM_PowerOverhead)->Arg(0)->Arg(1);

/**
 * Rowhammer-tracking overhead: a hostile 2-thread mix (mcf + a
 * double-sided hammer thread) with the disturbance model and the
 * Graphene tracker off (arg 0) vs. on with mitigation (arg 1).  Both
 * rows run the same workload, so the wall-clock ratio is the
 * per-activation cost of pressure bookkeeping + the Misra-Gries
 * update.  The run asserts the tracked row stays within 5% of the
 * untracked one (best-of-iterations, which filters scheduler noise):
 * the tracker only does work on row activations, never per cycle.
 */
void
BM_HammerOverhead(benchmark::State &state)
{
    const bool tracked = state.range(0) != 0;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram.mapping = MappingScheme::PageInterleave;
    config.dram.withRefresh();
    if (tracked) {
        config.dram.withHammer(/*threshold=*/256,
                               /*flip_probability=*/0.001);
        config.dram.withHammerMitigation(/*tracker_capacity=*/16,
                                         /*mitigation_threshold=*/64);
    }
    std::vector<AppProfile> apps = {specProfile("mcf"),
                                    hammerProfile("hammer-double")};
    // Best-of-N wall-clock per *simulated cycle*, shared across the
    // two arg rows via statics so the tracked row can compare.  The
    // tracked run legitimately simulates more cycles (mitigation
    // traffic competes for bandwidth); normalizing per cycle isolates
    // the bookkeeping cost of the tracker and flip model from that
    // real workload difference.
    static double best_sec_per_cycle[2] = {1e30, 1e30};
    std::uint64_t cycles = 0;
    std::uint64_t flips = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        SmtSystem system(config, apps, 42);
        const RunResult r = system.run(4'000, 1'000);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best_sec_per_cycle[tracked ? 1 : 0] =
            std::min(best_sec_per_cycle[tracked ? 1 : 0],
                     dt.count() /
                         static_cast<double>(r.measuredCycles));
        cycles += r.measuredCycles;
        flips += r.hammer.victimFlips;
        benchmark::DoNotOptimize(r.measuredCycles);
    }
    state.SetLabel(tracked ? "tracking+mitigation" : "off");
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["victim_flips"] = static_cast<double>(flips);
    if (tracked && best_sec_per_cycle[0] < 1e29) {
        const double overhead =
            best_sec_per_cycle[1] / best_sec_per_cycle[0] - 1.0;
        state.counters["overhead_pct"] = 100.0 * overhead;
        if (overhead > 0.05) {
            state.SkipWithError(
                "hammer tracking overhead exceeds 5% of the "
                "per-cycle kernel");
        }
    }
}
BENCHMARK(BM_HammerOverhead)->Arg(0)->Arg(1)->Iterations(5);

/**
 * Whole-simulator throughput: simulated cycles per wall-clock second
 * on a small 2-thread memory-bound mix.  This is the number the
 * per-cycle kernel optimizations (candidate scratch reuse, positional
 * dequeue, incremental commit totals, DRAM idle fast-path) move; the
 * figure sweeps scale with it directly.  Arg 0 runs the legacy
 * per-cycle kernel, arg 1 the event-driven one (both produce
 * byte-identical results; see DESIGN.md §14).
 */
void
BM_SimThroughput(benchmark::State &state)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.kernel = state.range(0) != 0 ? KernelMode::EventDriven
                                        : KernelMode::PerCycle;
    std::vector<AppProfile> apps = {specProfile("mcf"),
                                    specProfile("swim")};
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SmtSystem system(config, apps, 42);
        const RunResult r = system.run(4'000, 1'000);
        cycles += r.measuredCycles;
        benchmark::DoNotOptimize(r.measuredCycles);
    }
    state.SetLabel(state.range(0) != 0 ? "event-driven" : "per-cycle");
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimThroughput)->Arg(0)->Arg(1);

/**
 * Event-driven kernel payoff on memory-idle phases: one thread of
 * mcf, the most memory-bound profile, spends most of its cycles with
 * the pipeline fully wedged behind a cache-missing load — the ROB
 * head incomplete, nothing dispatchable or issuable, fetch queue
 * full.  The per-cycle kernel grinds through every one of those
 * stall cycles; the event-driven kernel jumps straight to the DRAM
 * completion.  Arg 0 / arg 1 select the kernel; the event-driven row
 * asserts a >=2x best-of-iterations speedup over the per-cycle row
 * (wall-clock per simulated cycle, which filters scheduler noise).
 * Run without SMTDRAM_KERNEL in the environment — the override
 * applies process-wide and would collapse the two rows into one.
 */
void
BM_MemoryIdlePhase(benchmark::State &state)
{
    const bool event_driven = state.range(0) != 0;
    SystemConfig config = SystemConfig::paperDefault(1);
    config.kernel = event_driven ? KernelMode::EventDriven
                                 : KernelMode::PerCycle;
    // mcf dialed up: a stationary stream of mostly-cold pointer-chase
    // loads serializes the misses, so the machine spends nearly all
    // its time fully wedged behind a single outstanding DRAM read.
    // A 6 GHz core against the same 200 MHz DDR part doubles every
    // stall window in core cycles (the trend the paper's Section 1
    // motivates), stretching the idle phases the skip kernel elides.
    AppProfile app = specProfile("mcf");
    app.coldFrac = 0.6;
    app.memPhaseFrac = 1.0;
    std::vector<AppProfile> apps = {app};
    config.dram.timing.cpuMhz *= 2;
    config.dram.timing.rowAccess *= 2;
    config.dram.timing.columnAccess *= 2;
    config.dram.timing.precharge *= 2;
    config.dram.timing.controllerOverhead *= 2;
    static double best_sec_per_cycle[2] = {1e30, 1e30};
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SmtSystem system(config, apps, 42);
        // Time run() alone: construction (cache prewarm over the cold
        // footprint) is identical for both rows and would otherwise
        // dilute the kernel-to-kernel ratio.
        const auto t0 = std::chrono::steady_clock::now();
        const RunResult r = system.run(8'000, 1'000);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best_sec_per_cycle[event_driven ? 1 : 0] =
            std::min(best_sec_per_cycle[event_driven ? 1 : 0],
                     dt.count() /
                         static_cast<double>(r.measuredCycles));
        cycles += r.measuredCycles;
        benchmark::DoNotOptimize(r.measuredCycles);
    }
    state.SetLabel(event_driven ? "event-driven" : "per-cycle");
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    if (event_driven && best_sec_per_cycle[0] < 1e29) {
        const double speedup =
            best_sec_per_cycle[0] / best_sec_per_cycle[1];
        state.counters["speedup_x"] = speedup;
        if (speedup < 2.0) {
            state.SkipWithError(
                "event-driven kernel is under 2x the per-cycle "
                "kernel on the memory-idle microbench");
        }
    }
}
BENCHMARK(BM_MemoryIdlePhase)->Arg(0)->Arg(1)->Iterations(8);

/**
 * Scheduler-scan cost: one controller tick against a read queue held
 * at the given depth.  Each tick launches at most one transaction (so
 * the queue stays near the target depth) and the candidate gather
 * walks every queued entry, making this a direct microbenchmark of
 * the queue-scan data layout (QueuedRef field caching, the bank
 * readiness bitset, the pooled request slab) that BM_SimThroughput
 * only exercises diluted through the whole simulator.
 */
void
BM_SchedScan(benchmark::State &state)
{
    const auto depth = static_cast<std::uint32_t>(state.range(0));
    DramConfig config = DramConfig::ddrSdram(1);
    config.readQueueCap = std::max(config.readQueueCap, depth + 1);
    AddressMapping mapping(config);
    MemoryController mc(config, SchedulerKind::HitFirst);
    Rng rng(17);
    std::vector<DramRequest> completed;
    Cycle now = 0;
    std::uint64_t id = 1;
    for (auto _ : state) {
        ++now;
        while (mc.queuedReads() < depth && mc.canAcceptRead()) {
            DramRequest req;
            req.id = id++;
            req.op = MemOp::Read;
            req.addr = rng.below(1ULL << 28) & ~63ULL;
            req.thread = static_cast<ThreadId>(rng.below(4));
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            mc.enqueue(req);
        }
        completed.clear();
        mc.tick(now, completed);
        benchmark::DoNotOptimize(completed.size());
    }
    state.counters["reads"] = static_cast<double>(mc.stats().reads);
}
BENCHMARK(BM_SchedScan)->Arg(8)->Arg(32)->Arg(64);

/**
 * Machine-speed anchor: a fixed pure-integer mixing loop touching no
 * simulator code and no memory.  The perf-regression gate divides
 * every other bench's time by this row's time before comparing
 * against the committed baseline, so a uniformly faster or slower
 * machine does not read as an improvement or a regression.
 */
void
BM_Calibration(benchmark::State &state)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        for (int i = 0; i < 512; ++i) {
            x ^= x >> 33;
            x *= 0xff51afd7ed558ccdULL;
            x ^= x >> 29;
        }
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Calibration);

void
BM_CacheArrayAccess(benchmark::State &state)
{
    CacheLevelConfig config{512 * 1024, 2, 64, 10, 16};
    CacheArray cache(config, "bench-L2");
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1ULL << 24) & ~63ULL, false));
    }
}
BENCHMARK(BM_CacheArrayAccess);

/** Generation cost per instruction for representative profiles. */
void
BM_SyntheticStream(benchmark::State &state)
{
    const auto &profiles = spec2000Profiles();
    const AppProfile &profile =
        profiles[static_cast<size_t>(state.range(0)) % profiles.size()];
    SyntheticStream stream(profile, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
    state.SetLabel(profile.name);
}
BENCHMARK(BM_SyntheticStream)->Arg(0)->Arg(3)->Arg(13);

} // namespace

BENCHMARK_MAIN();
