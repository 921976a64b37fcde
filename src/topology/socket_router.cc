#include "topology/socket_router.hh"

#include "common/logging.hh"

namespace smtdram
{

SocketRouter::SocketRouter(const TopologyConfig &topo,
                           std::vector<DramSystem *> drams,
                           NumaFrameAllocator &alloc,
                           std::uint32_t num_threads)
    : topo_(topo), drams_(std::move(drams)), alloc_(alloc),
      net_(topo.sockets, topo.hopLatency, topo.linkOccupancy),
      deliver_(topo.totalCores()),
      readsToSocket_(num_threads,
                     std::vector<std::uint64_t>(topo.sockets, 0))
{
    stats_.perThreadRemoteReads.assign(num_threads, 0);
    stats_.perThreadReturnCycles.assign(num_threads, 0);
    for (std::uint32_t s = 0; s < topo_.sockets; ++s) {
        drams_[s]->setReadCallback(
            [this, s](const DramRequest &req) { onComplete(s, req); });
    }
}

bool
SocketRouter::canAccept(std::uint32_t core, Addr addr, MemOp op) const
{
    (void)core;
    const std::uint32_t home = alloc_.homeOfAddr(addr);
    return drams_[home]->canAccept(alloc_.stripHome(addr), op);
}

std::uint64_t
SocketRouter::read(std::uint32_t core, Addr addr, ThreadId thread,
                   const ThreadSnapshot &snap, Cycle now, bool critical)
{
    const std::uint32_t src = socketOf(core);
    const std::uint32_t home = alloc_.homeOfAddr(addr);
    const Addr local = alloc_.stripHome(addr);

    Cycle remote_until = 0;
    if (home != src) {
        const TransferResult tr = net_.transfer(src, home, now, thread);
        remote_until = now + tr.delay;
        ++stats_.remoteReads;
        stats_.outboundCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
        if (tr.queueWait > 0 && thread != kThreadNone)
            linkInterference_.add(thread, tr.blockedBy, tr.queueWait);
        if (thread != kThreadNone &&
            thread < stats_.perThreadRemoteReads.size())
            ++stats_.perThreadRemoteReads[thread];
    } else {
        ++stats_.localReads;
    }
    if (thread != kThreadNone && thread < readsToSocket_.size())
        ++readsToSocket_[thread][home];

    return drams_[home]->enqueueRead(local, thread, snap, now, critical,
                                     remote_until, core);
}

std::uint64_t
SocketRouter::write(std::uint32_t core, Addr addr, Cycle now)
{
    const std::uint32_t src = socketOf(core);
    const std::uint32_t home = alloc_.homeOfAddr(addr);
    const Addr local = alloc_.stripHome(addr);

    Cycle remote_until = 0;
    if (home != src) {
        // Writebacks are fire-and-forget: they cross the fabric but
        // nobody waits on a reply, so only the request hop matters.
        const TransferResult tr =
            net_.transfer(src, home, now, kThreadNone);
        remote_until = now + tr.delay;
        ++stats_.remoteWrites;
        stats_.outboundCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
    } else {
        ++stats_.localWrites;
    }
    return drams_[home]->enqueueWrite(local, now, remote_until);
}

void
SocketRouter::onComplete(std::uint32_t home, const DramRequest &req)
{
    const std::uint32_t core = req.core;
    panic_if(core >= deliver_.size(),
             "socket %u delivered read id %llu for core %u, which "
             "does not exist", home, (unsigned long long)req.id, core);

    const std::uint32_t dst = socketOf(core);
    DramRequest out = req;
    out.addr = alloc_.tagHome(req.addr, home);
    if (dst != home) {
        const TransferResult tr =
            net_.transfer(home, dst, req.completion, req.thread);
        out.completion += tr.delay;
        out.blame.add(BlameComponent::RemoteAccess, tr.delay);
        stats_.returnCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
        if (tr.queueWait > 0 && req.thread != kThreadNone)
            linkInterference_.add(req.thread, tr.blockedBy,
                                  tr.queueWait);
        if (req.thread != kThreadNone &&
            req.thread < stats_.perThreadReturnCycles.size())
            stats_.perThreadReturnCycles[req.thread] += tr.delay;
    }
    if (deliver_[core])
        deliver_[core](out);
}

void
SocketRouter::resetStats()
{
    const std::size_t n = stats_.perThreadRemoteReads.size();
    stats_ = NumaStats{};
    stats_.perThreadRemoteReads.assign(n, 0);
    stats_.perThreadReturnCycles.assign(n, 0);
    linkInterference_ = InterferenceMatrix{};
    for (auto &per : readsToSocket_)
        per.assign(per.size(), 0);
    net_.resetStats();
}

} // namespace smtdram
