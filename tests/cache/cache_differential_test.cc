/**
 * @file
 * Differential tests of the cache layer's storage against plain
 * reference models: the tag array against a timestamp-LRU line array
 * (one struct per way, victim = smallest last-use stamp), and the page
 * tables against an ordered map.  Both references are written for
 * obviousness, not speed; every observable result must match them.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/tlb.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

/**
 * Reference tag array: one {tag, valid, dirty, lastUse} struct per
 * way, a global use clock, the first invalid way (else the smallest
 * lastUse) as the victim.  Same public surface as CacheArray.
 */
class TimestampLruArray
{
  public:
    explicit TimestampLruArray(const CacheLevelConfig &c)
        : assoc_(c.assoc), sets_(c.numSets()),
          lineShift_(floorLog2(c.lineBytes)), lines_(sets_ * assoc_)
    {
    }

    bool probe(Addr addr) const { return find(addr) != nullptr; }

    bool
    access(Addr addr, bool make_dirty)
    {
        if (hitAccess(addr, make_dirty))
            return true;
        ++misses_;
        return false;
    }

    bool
    hitAccess(Addr addr, bool make_dirty)
    {
        Line *l = find(addr);
        if (l == nullptr)
            return false;
        l->lastUse = ++clock_;
        l->dirty = l->dirty || make_dirty;
        ++hits_;
        return true;
    }

    CacheArray::Victim
    insert(Addr addr, bool dirty)
    {
        Line *base = &lines_[set(addr) * assoc_];
        Line *slot = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                slot = &base[w];
                break;
            }
            if (slot == nullptr || base[w].lastUse < slot->lastUse)
                slot = &base[w];
        }
        CacheArray::Victim v;
        if (slot->valid)
            v = {true, slot->dirty, slot->line << lineShift_};
        *slot = Line{addr >> lineShift_, true, dirty, ++clock_};
        return v;
    }

    bool
    setDirty(Addr addr)
    {
        Line *l = find(addr);
        if (l != nullptr)
            l->dirty = true;
        return l != nullptr;
    }

    CacheArray::Victim
    invalidate(Addr addr)
    {
        Line *l = find(addr);
        if (l == nullptr)
            return {};
        const CacheArray::Victim v{true, l->dirty,
                                   l->line << lineShift_};
        *l = Line{};
        return v;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line {
        Addr line = 0;  ///< full line number (addr >> lineShift)
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    set(Addr addr) const
    {
        return (addr >> lineShift_) % sets_;
    }

    const Line *
    find(Addr addr) const
    {
        const Line *base = &lines_[set(addr) * assoc_];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].line == addr >> lineShift_)
                return &base[w];
        }
        return nullptr;
    }

    Line *
    find(Addr addr)
    {
        return const_cast<Line *>(std::as_const(*this).find(addr));
    }

    std::uint32_t assoc_;
    std::uint64_t sets_;
    unsigned lineShift_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

void
expectSameVictim(const CacheArray::Victim &got,
                 const CacheArray::Victim &want, int step)
{
    ASSERT_EQ(got.valid, want.valid) << "step " << step;
    if (!want.valid)
        return;
    ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
    ASSERT_EQ(got.lineAddr, want.lineAddr) << "step " << step;
}

TEST(CacheArrayDifferential, MatchesTimestampLru)
{
    for (const std::uint64_t sets : {1u, 2u, 64u, 16384u}) {
        for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(testing::Message()
                         << sets << " sets x " << assoc << " ways");
            CacheLevelConfig c;
            c.sizeBytes = sets * assoc * 64;
            c.assoc = assoc;
            c.lineBytes = 64;
            CacheArray dut(c, "dut");
            TimestampLruArray ref(c);
            Rng rng(sets * 131 + assoc);

            // A handful of hot sets, each with about twice its ways
            // in candidate tags, so hits, evictions and refills all
            // happen; some tags carry high address bits.
            std::vector<std::uint64_t> hot_sets{0, sets - 1};
            for (int i = 0; i < 6; ++i)
                hot_sets.push_back(rng.below(sets));
            const auto pick_addr = [&] {
                const std::uint64_t set =
                    hot_sets[rng.below(hot_sets.size())];
                std::uint64_t tag = rng.below(2 * assoc + 1);
                if (rng.chance(0.1))
                    tag |= std::uint64_t{0x3'ffff} << 30;
                return ((tag * sets + set) << 6) | rng.below(64);
            };

            for (int step = 0; step < 20'000; ++step) {
                const Addr a = pick_addr();
                const bool dirty = rng.chance(0.3);
                switch (rng.below(6)) {
                  case 0:
                    ASSERT_EQ(dut.probe(a), ref.probe(a)) << step;
                    break;
                  case 1:
                    ASSERT_EQ(dut.access(a, dirty), ref.access(a, dirty))
                        << step;
                    break;
                  case 2:
                    ASSERT_EQ(dut.hitAccess(a, dirty),
                              ref.hitAccess(a, dirty))
                        << step;
                    break;
                  case 3:
                    if (!ref.probe(a)) {
                        expectSameVictim(dut.insert(a, dirty),
                                         ref.insert(a, dirty), step);
                    }
                    break;
                  case 4:
                    ASSERT_EQ(dut.setDirty(a), ref.setDirty(a)) << step;
                    break;
                  case 5:
                    expectSameVictim(dut.invalidate(a),
                                     ref.invalidate(a), step);
                    break;
                }
                if (HasFatalFailure())
                    return;
            }
            EXPECT_EQ(dut.demandStats().hits(), ref.hits());
            EXPECT_EQ(dut.demandStats().misses(), ref.misses());
            EXPECT_GT(ref.hits(), 0u);
            EXPECT_GT(ref.misses(), 0u);
        }
    }
}

/** Reference page tables: one ordered map over (thread, page). */
class MapPageTables
{
  public:
    explicit MapPageTables(std::uint32_t page_bytes)
        : shift_(floorLog2(page_bytes))
    {
    }

    /** Translate; @p next_frame supplies a first touch's frame. */
    template <typename NextFrame>
    Addr
    translate(ThreadId tid, Addr vaddr, NextFrame next_frame)
    {
        const Addr mask = (Addr{1} << shift_) - 1;
        auto [it, fresh] = map_.try_emplace({tid, vaddr >> shift_}, 0);
        if (fresh)
            it->second = next_frame(tid);
        return (it->second << shift_) | (vaddr & mask);
    }

    std::uint64_t frames() const { return map_.size(); }

  private:
    unsigned shift_;
    std::map<std::pair<ThreadId, Addr>, Addr> map_;
};

/**
 * Virtual addresses that stress a radix layout: pages on both sides
 * of 512-page boundaries, scattered pages, the kernel half, and the
 * very last page of the address space.
 */
Addr
pickVaddr(Rng &rng)
{
    constexpr Addr kPage = 8192;
    constexpr Addr kLeafSpan = 512 * kPage;
    const Addr offset = rng.below(kPage);
    switch (rng.below(5)) {
      case 0: {  // straddle a leaf boundary
        const Addr boundary = (1 + rng.below(6)) * kLeafSpan;
        return boundary - 4 * kPage + rng.below(8) * kPage + offset;
      }
      case 1:  // a dense region
        return 0x2000'0000 + rng.below(2048) * kPage + offset;
      case 2:  // scattered pages, one per far-apart region
        return rng.below(1 << 20) * kLeafSpan * 3 + offset;
      case 3:  // kernel half
        return 0xffff'8000'0000'0000ULL + rng.below(1024) * kPage +
               offset;
      default:  // the last pages of the address space
        return ~Addr{0} - rng.below(4) * kPage - offset;
    }
}

TEST(PageTablesDifferential, MatchesReferenceMap)
{
    constexpr std::uint32_t kThreads = 4;
    for (const bool external : {false, true}) {
        SCOPED_TRACE(external ? "frame source" : "sequential frames");
        PageTables dut(8192, kThreads);
        MapPageTables ref(8192);
        // The counting source hands out scrambled but unique frames
        // and logs which thread asked, in call order.
        std::vector<ThreadId> dut_calls;
        std::vector<ThreadId> ref_calls;
        const auto frame_for = [](std::vector<ThreadId> &log,
                                  ThreadId tid) {
            log.push_back(tid);
            return static_cast<Addr>(log.size() * 7919 % 1'000'003 +
                                     tid * 1'000'003);
        };
        if (external) {
            dut.setFrameSource(
                [&](ThreadId tid) { return frame_for(dut_calls, tid); });
        }
        std::uint64_t ref_next = 0;
        Rng rng(external ? 7 : 3);
        for (int step = 0; step < 60'000; ++step) {
            const ThreadId tid = static_cast<ThreadId>(rng.below(kThreads));
            const Addr vaddr = pickVaddr(rng);
            const Addr want = ref.translate(tid, vaddr, [&](ThreadId t) {
                return external ? frame_for(ref_calls, t) : ref_next++;
            });
            ASSERT_EQ(dut.translate(tid, vaddr), want)
                << "step " << step << ", thread " << tid << ", vaddr "
                << std::hex << vaddr;
            // A repeat of the same page takes the one-entry cache.
            if (rng.chance(0.2)) {
                ASSERT_EQ(dut.translate(tid, vaddr ^ 8), want ^ 8)
                    << "step " << step;
            }
        }
        EXPECT_EQ(dut.framesAllocated(), ref.frames());
        EXPECT_EQ(dut_calls, ref_calls);
        EXPECT_GT(ref.frames(), 10'000u);
    }
}

} // namespace
} // namespace smtdram
