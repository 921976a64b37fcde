/**
 * @file
 * Steady-state heap-allocation gate for the DRAM request path and
 * the whole simulated machine, and a live-heap gate on the size of a
 * freshly built machine.
 *
 * This binary replaces the global allocation operators with counting
 * wrappers, warms a memory system to its high-water occupancy, and
 * then asserts that continued traffic allocates NOTHING: the request
 * pool reuses slabs, the queues reuse their reserved storage, and the
 * per-tick scratch vectors reuse their capacity.  A per-request or
 * per-cycle allocation sneaking back into the hot path turns into
 * thousands of counted calls here, so the gate cannot miss it.
 *
 * Lives in its own test binary (alloc_test) because the operator
 * new/delete replacement is process-global.
 */

#include <gtest/gtest.h>

#include <execinfo.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/random.hh"
#include "dram/dram_system.hh"
#include "sim/experiment.hh"
#include "sim/smt_system.hh"
#include "workload/spec2000.hh"

namespace
{

std::atomic<std::uint64_t> g_allocCalls{0};
/** Bytes held by live operator-new blocks (usable sizes). */
std::atomic<std::int64_t> g_liveBytes{0};
/** With SMTDRAM_ALLOC_TRACE set, backtraces left to dump to stderr. */
std::atomic<long> g_traceBudget{0};
/** Allocations to let pass before dumping (skips boundary noise). */
std::atomic<long> g_traceSkip{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    if (g_traceBudget.load(std::memory_order_relaxed) > 0) {
        if (g_traceSkip.load(std::memory_order_relaxed) > 0) {
            g_traceSkip.fetch_sub(1, std::memory_order_relaxed);
        } else if (g_traceBudget.fetch_sub(
                       1, std::memory_order_relaxed) > 0) {
            // backtrace_symbols_fd writes straight to the fd, so the
            // dump itself never re-enters operator new.
            void *frames[32];
            const int n = backtrace(frames, 32);
            backtrace_symbols_fd(frames, n, 2);
        }
    }
    if (void *p = std::malloc(size ? size : 1)) {
        g_liveBytes.fetch_add(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}

void
countedFree(void *p)
{
    if (p == nullptr)
        return;
    g_liveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                          std::memory_order_relaxed);
    std::free(p);
}

/**
 * Arm the backtrace dump when SMTDRAM_ALLOC_TRACE=N is set: the next
 * N allocations in the measured window pass silently, then the eight
 * after that dump their stacks (N=0 dumps from the first).
 */
void
armAllocTrace()
{
    const char *env = std::getenv("SMTDRAM_ALLOC_TRACE");
    if (!env)
        return;
    g_traceSkip.store(std::atol(env), std::memory_order_relaxed);
    g_traceBudget.store(8, std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace smtdram
{
namespace
{

std::uint64_t
allocCalls()
{
    return g_allocCalls.load(std::memory_order_relaxed);
}

std::int64_t
liveBytes()
{
    return g_liveBytes.load(std::memory_order_relaxed);
}

/** Drive @p dram with a fixed random mix for @p cycles cycles. */
Cycle
driveTraffic(DramSystem &dram, Rng &rng, Cycle now, Cycle cycles)
{
    const Cycle end = now + cycles;
    while (now < end) {
        ++now;
        if (rng.chance(0.6)) {
            const Addr addr = rng.below(1ULL << 28) & ~63ULL;
            if (rng.chance(0.8)) {
                if (dram.canAccept(addr, MemOp::Read)) {
                    ThreadSnapshot snap;
                    snap.outstandingRequests =
                        static_cast<std::uint32_t>(rng.below(8));
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(4)),
                        snap, now);
                }
            } else if (dram.canAccept(addr, MemOp::Write)) {
                dram.enqueueWrite(addr, now);
            }
        }
        dram.tick(now);
    }
    return now;
}

TEST(ZeroAllocTest, DramSteadyStateAllocatesNothing)
{
    DramConfig config = DramConfig::ddrSdram(2);
    DramSystem dram(config, SchedulerKind::HitFirst);
    Rng rng(91);

    // Warm to high water: saturating traffic grows the pool slabs,
    // the queues' reserved storage, and every stats container to
    // their final footprint.
    Cycle now = driveTraffic(dram, rng, 0, 60'000);

    const std::uint64_t before = allocCalls();
    armAllocTrace();
    now = driveTraffic(dram, rng, now, 60'000);
    const std::uint64_t after = allocCalls();

    EXPECT_EQ(after - before, 0u)
        << "request hot path allocated " << (after - before)
        << " time(s) in steady state";

    while (dram.busy())
        dram.tick(++now);
}

TEST(ZeroAllocTest, DramSteadyStateWithRefreshAllocatesNothing)
{
    // Refresh and the retire/retry path exercise queue re-entry; the
    // rebuilt queue entries must come out of reserved storage too.
    DramConfig config = DramConfig::ddrSdram(1).withRefresh(5'000, 120);
    DramSystem dram(config, SchedulerKind::Fcfs);
    Rng rng(17);

    Cycle now = driveTraffic(dram, rng, 0, 60'000);

    const std::uint64_t before = allocCalls();
    now = driveTraffic(dram, rng, now, 60'000);
    const std::uint64_t after = allocCalls();

    EXPECT_EQ(after - before, 0u);

    while (dram.busy())
        dram.tick(++now);
}

/**
 * Full-system variant, both kernels, as a differential: run() has a
 * fixed boundary cost (RunResult vectors, the resetStats histogram
 * rebuild at the measurement boundary) that is independent of run
 * length, so instead of an absolute count we compare a short and a
 * long warmed run.  The boundary cost cancels, and the extra 10k
 * measured instructions of the long run must cost no allocation.
 */
void
runBothPhases(KernelMode kernel)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.kernel = kernel;
    const std::vector<AppProfile> apps = {specProfile("mcf"),
                                          specProfile("swim")};
    SmtSystem system(config, apps, 42);

    // First run warms every container to its high-water footprint.
    system.run(14'000, 1'000);

    const std::uint64_t beforeShort = allocCalls();
    system.run(4'000, 1'000);
    const std::uint64_t shortRun = allocCalls() - beforeShort;

    const std::uint64_t beforeLong = allocCalls();
    armAllocTrace();
    system.run(14'000, 1'000);
    const std::uint64_t longRun = allocCalls() - beforeLong;

    // The whole warm machine is allocation-free: the DRAM request
    // path (asserted at the DramSystem layer above), the hierarchy's
    // fixed MSHR file and its reused target lists, the array TLBs,
    // the core, and the event queue, whose fill callbacks fit in
    // std::function's in-place buffer.  Any per-cycle or per-request
    // allocation anywhere in the machine shows up here.
    const std::int64_t excess = static_cast<std::int64_t>(longRun) -
                                static_cast<std::int64_t>(shortRun);
    EXPECT_EQ(excess, 0)
        << "10k extra measured instructions cost " << excess
        << " extra allocation(s): something new allocates per cycle "
        << "or per request (short run " << shortRun << ", long run "
        << longRun << ")";
}

TEST(ZeroAllocTest, SmtRunSteadyStateBoundedPerCycleKernel)
{
    runBothPhases(KernelMode::PerCycle);
}

TEST(ZeroAllocTest, SmtRunSteadyStateBoundedEventKernel)
{
    runBothPhases(KernelMode::EventDriven);
}

/**
 * Host footprint of one Table 1 machine running 4-MEM, right after
 * construction (page tables laid out, caches prewarmed).  Its
 * hardware-sized parts are about 0.6 MiB of 8-byte tag words and
 * 8 bytes per mapped page (about 48,000 pages); the 2 MiB bound leaves room
 * for the queues and the core, and trips when a per-line or per-page
 * structure grows.
 */
TEST(FootprintTest, Table1MachineLiveHeap)
{
    const std::vector<AppProfile> apps =
        profilesForMix(mixByName("4-MEM"));
    const std::int64_t before = liveBytes();
    SmtSystem system(SystemConfig::paperDefault(4), apps, 42);
    const std::int64_t bytes = liveBytes() - before;
    EXPECT_LE(bytes, std::int64_t{2} << 20)
        << "a Table 1 4-MEM machine holds " << bytes
        << " bytes of heap after construction";
}

} // namespace
} // namespace smtdram
