/**
 * @file
 * The glue between per-core cache hierarchies and per-socket DRAM
 * systems:
 *
 *  - NumaFrameAllocator hands out physical frames tagged with their
 *    home socket in the high address bits (the shared PageTables'
 *    frame source), so "which socket owns this page" is a shift of
 *    the physical address, exactly like real NUMA machines encode it
 *    in the system address map.
 *
 *  - SocketPort is the MemoryPort each core's Hierarchy talks to; it
 *    forwards to the SocketRouter with the issuing core attached.
 *    The core rides on the request (DramRequest::core), so routing
 *    the reply back needs no per-request bookkeeping.
 *
 *  - SocketRouter strips the home tag, crosses the interconnect when
 *    the home socket differs from the issuing core's socket (the
 *    embargo is carried as DramRequest::remoteUntil and blamed on
 *    BlameComponent::RemoteAccess by the controller), and on
 *    completion routes the reply back — adding the return-hop delay
 *    to both the completion time and the request's blame vector, so
 *    per-request conservation (blame sum == completion - arrival)
 *    holds at the delivery boundary.
 *
 * On a 1x1 topology every access is local, the allocator degenerates
 * to a sequential frame counter, and every method is a pass-through.
 */

#ifndef SMTDRAM_TOPOLOGY_SOCKET_ROUTER_HH
#define SMTDRAM_TOPOLOGY_SOCKET_ROUTER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dram/blame.hh"
#include "dram/dram_system.hh"
#include "dram/memory_port.hh"
#include "topology/interconnect.hh"
#include "topology/numa_stats.hh"
#include "topology/topology_config.hh"

namespace smtdram
{

/** Home-socket-aware physical frame allocator (first-touch et al). */
class NumaFrameAllocator
{
  public:
    /** Home-socket tag position within the *frame* number; the tag
     *  sits at bit kHomeFrameShift + pageShift of the physical
     *  address.  Frames below the tag stay sequential per home, so a
     *  single-socket machine allocates 0, 1, 2, ... exactly like a
     *  private PageTables counter. */
    static constexpr std::uint32_t kHomeFrameShift = 36;

    NumaFrameAllocator(const TopologyConfig &topo,
                       std::uint32_t page_shift)
        : topo_(topo), addrShift_(kHomeFrameShift + page_shift),
          perHome_(topo.sockets, 0)
    {
    }

    /** Allocate one frame first-touched from @p touch_socket. */
    Addr
    allocate(std::uint32_t touch_socket)
    {
        std::uint32_t home = 0;
        switch (topo_.home) {
          case HomePolicy::Local:
            home = touch_socket;
            break;
          case HomePolicy::Loader:
            home = 0;
            break;
          case HomePolicy::Interleave:
            home = interleaveNext_;
            interleaveNext_ = (interleaveNext_ + 1) % topo_.sockets;
            break;
        }
        return (static_cast<Addr>(home) << kHomeFrameShift) |
               perHome_[home]++;
    }

    std::uint32_t
    homeOfAddr(Addr paddr) const
    {
        return static_cast<std::uint32_t>(paddr >> addrShift_);
    }

    /** Physical address as the home socket's DRAM sees it. */
    Addr
    stripHome(Addr paddr) const
    {
        return paddr & ((Addr{1} << addrShift_) - 1);
    }

    Addr
    tagHome(Addr local, std::uint32_t home) const
    {
        return local | (static_cast<Addr>(home) << addrShift_);
    }

  private:
    const TopologyConfig &topo_;
    std::uint32_t addrShift_;
    std::vector<Addr> perHome_;
    std::uint32_t interleaveNext_ = 0;
};

/** Routes per-core memory traffic to per-socket DRAM and back. */
class SocketRouter
{
  public:
    using Delivery = std::function<void(const DramRequest &)>;

    SocketRouter(const TopologyConfig &topo,
                 std::vector<DramSystem *> drams,
                 NumaFrameAllocator &alloc, std::uint32_t num_threads);

    /** Install core @p core's completion callback (its Hierarchy's). */
    void
    setDelivery(std::uint32_t core, Delivery cb)
    {
        deliver_[core] = std::move(cb);
    }

    bool canAccept(std::uint32_t core, Addr addr, MemOp op) const;
    std::uint64_t read(std::uint32_t core, Addr addr, ThreadId thread,
                       const ThreadSnapshot &snap, Cycle now,
                       bool critical);
    std::uint64_t write(std::uint32_t core, Addr addr, Cycle now);

    const NumaStats &stats() const { return stats_; }
    /** Link queue waits as who-blocked-whom cycles (merged into the
     *  aggregated DRAM interference matrix). */
    const InterferenceMatrix &linkInterference() const { return linkInterference_; }

    /** Demand reads of @p thread routed to each home socket — the
     *  migration engine's "where does this thread's data live". */
    const std::vector<std::uint64_t> &
    readsToSocket(ThreadId thread) const
    {
        return readsToSocket_[thread];
    }

    std::uint32_t
    socketOf(std::uint32_t core) const
    {
        return core / topo_.coresPerSocket;
    }

    /** Migration engine hook: one completed thread move. */
    void
    noteMigration(std::uint64_t stall_cycles)
    {
        ++stats_.migrations;
        stats_.migrationStallCycles += stall_cycles;
    }

    void resetStats();

  private:
    const TopologyConfig &topo_;
    std::vector<DramSystem *> drams_;
    NumaFrameAllocator &alloc_;
    Interconnect net_;
    /** Per core; indexed by DramRequest::core on completion. */
    std::vector<Delivery> deliver_;
    NumaStats stats_;
    InterferenceMatrix linkInterference_;
    std::vector<std::vector<std::uint64_t>> readsToSocket_;

    void onComplete(std::uint32_t home, const DramRequest &req);
};

/** The MemoryPort one core's Hierarchy plugs into. */
class SocketPort : public MemoryPort
{
  public:
    SocketPort(SocketRouter &router, std::uint32_t core)
        : router_(router), core_(core)
    {
    }

    bool
    canAccept(Addr addr, MemOp op) const override
    {
        return router_.canAccept(core_, addr, op);
    }

    std::uint64_t
    enqueueRead(Addr addr, ThreadId thread, const ThreadSnapshot &snap,
                Cycle now, bool critical) override
    {
        return router_.read(core_, addr, thread, snap, now, critical);
    }

    std::uint64_t
    enqueueWrite(Addr addr, Cycle now) override
    {
        return router_.write(core_, addr, now);
    }

    void
    setReadCallback(ReadCallback cb) override
    {
        router_.setDelivery(core_, std::move(cb));
    }

  private:
    SocketRouter &router_;
    std::uint32_t core_;
};

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_SOCKET_ROUTER_HH
