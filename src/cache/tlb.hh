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

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache_config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/**
 * Per-thread page tables; instruction and data share one space.
 * Each thread has a two-level radix table: a sorted directory keyed by
 * the page number's high bits (vpage >> kLeafShift) points to leaves of
 * 512 frames, kAddrInvalid marking an unmapped page.  A leaf is made
 * when its 512-page region is first touched, so a dense region costs
 * 8 bytes per page.
 */
class PageTables
{
  public:
    PageTables(std::uint32_t page_bytes, std::uint32_t num_threads);

    /** Translate, allocating a frame on first touch. */
    Addr translate(ThreadId tid, Addr vaddr);

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
    static constexpr unsigned kLeafShift = 9;
    static constexpr Addr kLeafPages = Addr{1} << kLeafShift;

    /** Frames of one 512-page region, kAddrInvalid where unmapped. */
    using Leaf = std::array<Addr, kLeafPages>;

    /** One thread's radix table. */
    struct Table {
        /** (vpage >> kLeafShift, leaf), sorted by region. */
        std::vector<std::pair<Addr, std::unique_ptr<Leaf>>> dir;
        /** The leaf of the last region looked up (a page walk usually
         *  stays in its region), nullptr before the first. */
        Addr lastRegion = kAddrInvalid;
        Leaf *lastLeaf = nullptr;
    };

    /** Last translation per thread.  Mappings are allocate-on-first-
     *  touch and never change or disappear, so this one-entry cache
     *  needs no invalidation — it only short-circuits the table walk
     *  for the overwhelmingly common same-page repeat. */
    struct LastXlate {
        Addr vpage = kAddrInvalid;
        Addr frame = 0;
    };

    /** The leaf holding @p vpage of @p t, made on first touch. */
    static Leaf &leafOf(Table &t, Addr vpage);

    std::uint32_t pageShift_;
    std::vector<Table> tables_;
    std::vector<LastXlate> last_;
    std::uint64_t nextFrame_ = 0;
    std::function<Addr(ThreadId)> frameSource_;
};

/** A translation made through a TLB. */
struct TlbTranslation {
    Addr paddr;
    Cycle penalty;  ///< 0 on a hit, the miss penalty on a miss
};

/**
 * One TLB (I or D): thread-tagged, fully associative, true LRU.
 * A fixed array of tags kept in recency order, most recent first: a
 * lookup moves its tag to the front, and a miss drops the last tag
 * (empty entries sit at the back, so they fill first).  Each entry
 * carries its frame, so a hit needs no page-table walk.  Mappings
 * never change once made, and a page's first touch always misses, so
 * walking only on misses allocates frames in the same order.
 */
class Tlb
{
  public:
    Tlb(std::uint32_t entries, Cycle miss_penalty);

    /** Translate @p vaddr of @p tid, walking @p pt on a miss. */
    TlbTranslation translate(ThreadId tid, Addr vaddr, PageTables &pt);

    const RatioStat &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /**
     * The tag of (tid, page of @p vaddr): the page's address bits with
     * the thread id in the page-offset bits.  Distinct pairs get
     * distinct tags for any 64-bit address as long as tid is below
     * the offset mask (checked), which also keeps tags off kEmpty.
     */
    static std::uint64_t
    key(ThreadId tid, Addr vaddr, Addr offset_mask)
    {
        return (vaddr & ~offset_mask) | tid;
    }

    /** Tag of an empty entry; no real (tid, page) pair produces it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    Cycle missPenalty_;
    /** Sized at construction and never resized. */
    std::vector<std::uint64_t> tags_;
    /** frames_[i] is the frame of tags_[i]. */
    std::vector<Addr> frames_;
    RatioStat stats_;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_TLB_HH
