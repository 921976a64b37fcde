#include "cache/tlb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

PageTables::PageTables(std::uint32_t page_bytes, std::uint32_t num_threads)
    : pageShift_(floorLog2(page_bytes)), tables_(num_threads),
      last_(num_threads)
{
    fatal_if(!isPowerOfTwo(page_bytes), "page size must be a power of 2");
}

Addr
PageTables::translate(ThreadId tid, Addr vaddr)
{
    panic_if(tid >= tables_.size(), "thread %u out of range", tid);
    const Addr vpage = vaddr >> pageShift_;
    const Addr offset = vaddr & ((Addr{1} << pageShift_) - 1);
    LastXlate &last = last_[tid];
    if (last.vpage == vpage)
        return (last.frame << pageShift_) | offset;
    Addr &frame = leafOf(tables_[tid], vpage)[vpage & (kLeafPages - 1)];
    if (frame == kAddrInvalid) {
        ++nextFrame_;
        frame = frameSource_ ? frameSource_(tid) : nextFrame_ - 1;
    }
    last.vpage = vpage;
    last.frame = frame;
    return (frame << pageShift_) | offset;
}

PageTables::Leaf &
PageTables::leafOf(Table &t, Addr vpage)
{
    const Addr region = vpage >> kLeafShift;
    if (region == t.lastRegion)
        return *t.lastLeaf;
    auto it = std::lower_bound(
        t.dir.begin(), t.dir.end(), region,
        [](const auto &entry, Addr r) { return entry.first < r; });
    if (it == t.dir.end() || it->first != region) {
        auto leaf = std::make_unique<Leaf>();
        leaf->fill(kAddrInvalid);
        it = t.dir.emplace(it, region, std::move(leaf));
    }
    t.lastRegion = region;
    t.lastLeaf = it->second.get();
    return *t.lastLeaf;
}

Tlb::Tlb(std::uint32_t entries, Cycle miss_penalty)
    : missPenalty_(miss_penalty), tags_(entries, kEmpty),
      frames_(entries, 0)
{
    fatal_if(entries == 0, "TLB needs at least one entry");
}

TlbTranslation
Tlb::translate(ThreadId tid, Addr vaddr, PageTables &pt)
{
    const std::uint32_t shift = pt.pageShift();
    const Addr offset_mask = (Addr{1} << shift) - 1;
    panic_if(tid >= offset_mask,
             "thread %u does not fit a TLB tag with %llu-byte pages", tid,
             (unsigned long long)(offset_mask + 1));
    const std::uint64_t k = key(tid, vaddr, offset_mask);
    // Recency order makes the hot pages the first few compares.
    auto it = std::find(tags_.begin(), tags_.end(), k);
    const bool hit = it != tags_.end();
    if (!hit)
        it = tags_.end() - 1;  // the LRU entry, or an empty one
    const auto pos = it - tags_.begin();
    const Addr frame = frames_[pos];
    std::copy_backward(tags_.begin(), it, it + 1);
    std::copy_backward(frames_.begin(), frames_.begin() + pos,
                       frames_.begin() + pos + 1);
    tags_.front() = k;
    if (hit) {
        stats_.hit();
        frames_.front() = frame;
        return {(frame << shift) | (vaddr & offset_mask), 0};
    }
    stats_.miss();
    const Addr paddr = pt.translate(tid, vaddr);
    frames_.front() = paddr >> shift;
    return {paddr, missPenalty_};
}

} // namespace smtdram
