/**
 * @file
 * Virtual-to-physical translation: per-thread page tables with
 * sequential ("bin hopping" [14]) frame allocation, and thread-tagged
 * TLBs (Table 1: 128-entry ITLB + 128-entry DTLB).
 *
 * Frames are handed out in global touch order, so pages of different
 * threads interleave in physical memory the way a real OS allocating
 * on first touch would place them — which is what determines how SMT
 * threads collide in DRAM banks.
 */

#ifndef SMTDRAM_CACHE_TLB_HH
#define SMTDRAM_CACHE_TLB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** Per-thread page tables; instruction and data share one space. */
class PageTables
{
  public:
    PageTables(std::uint32_t page_bytes, std::uint32_t num_threads);

    /** Translate, allocating a frame on first touch. */
    Addr translate(ThreadId tid, Addr vaddr);

    Addr vpageOf(Addr vaddr) const { return vaddr >> pageShift_; }
    std::uint64_t framesAllocated() const { return nextFrame_; }
    std::uint32_t pageShift() const { return pageShift_; }

    /**
     * Replace the default sequential frame counter with an external
     * allocator (the NUMA topology's home-aware allocator, which
     * needs the touching thread to resolve first-touch homes).
     * Called once at machine construction, before any translation.
     * The source must hand out globally unique frame numbers.
     */
    void setFrameSource(std::function<Addr(ThreadId)> source)
    {
        frameSource_ = std::move(source);
    }

  private:
    /** Last translation per thread.  Mappings are allocate-on-first-
     *  touch and never change or disappear, so this one-entry cache
     *  needs no invalidation — it only short-circuits the hash
     *  lookup for the overwhelmingly common same-page repeat. */
    struct LastXlate {
        Addr vpage = kAddrInvalid;
        Addr frame = 0;
    };

    std::uint32_t pageShift_;
    std::vector<std::unordered_map<Addr, Addr>> tables_;
    std::vector<LastXlate> last_;
    std::uint64_t nextFrame_ = 0;
    std::function<Addr(ThreadId)> frameSource_;
};

/**
 * One TLB (I or D): thread-tagged, fully associative, true LRU.
 * A fixed array of tags kept in recency order, most recent first: a
 * lookup moves its tag to the front, and a miss drops the last tag
 * (empty entries sit at the back, so they fill first).
 */
class Tlb
{
  public:
    Tlb(std::uint32_t entries, Cycle miss_penalty);

    /**
     * Record a lookup of (tid, vpage).
     * @return extra cycles to charge (0 on hit, missPenalty on miss).
     */
    Cycle lookup(ThreadId tid, Addr vpage);

    const RatioStat &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    static std::uint64_t
    key(ThreadId tid, Addr vpage)
    {
        return (static_cast<std::uint64_t>(tid) << 48) | vpage;
    }

    /** Tag of an empty entry; no real (tid, vpage) pair produces it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    Cycle missPenalty_;
    /** Sized at construction and never resized. */
    std::vector<std::uint64_t> tags_;
    RatioStat stats_;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_TLB_HH
