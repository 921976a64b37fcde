/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 *
 * Tags only: the simulator never stores data, because the synthetic
 * workloads carry no values — only addresses and timing matter.
 *
 * Each way is one 8-byte word: the line number (address >> line
 * shift) with a valid flag and a dirty flag in the top two bits; 0 is
 * an invalid way.  Each set is kept in recency order, most recent
 * first, with invalid ways last.  A hit moves its word to the front,
 * an insert shifts the set down and evicts the last word, and an
 * invalidate closes the gap.  That order is exactly the one a
 * per-way last-use timestamp gives, so the LRU victim is simply the
 * last word, and its address is the word's line number shifted back.
 */

#ifndef SMTDRAM_CACHE_CACHE_ARRAY_HH
#define SMTDRAM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** One level's tag store. */
class CacheArray
{
  public:
    /** Eviction result of insert(). */
    struct Victim {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = kAddrInvalid;
    };

    /**
     * What find() saw: the line's set and, on a hit, its way.  An
     * infinite level always hits and has no set.  Valid until the
     * array is next changed.
     */
    struct Slot {
        std::uint64_t *set = nullptr;
        std::uint32_t way = 0;
        bool hit = false;
    };

    CacheArray(const CacheLevelConfig &config, std::string name);

    /** Side-effect-free lookup (no LRU update). */
    bool probe(Addr addr) const;

    /** One set search with no side effects; see record(). */
    Slot
    find(Addr addr)
    {
        if (config_.infinite)
            return Slot{nullptr, 0, true};
        std::uint64_t *set =
            &ways_[((addr >> lineShift_) & (sets_ - 1)) * config_.assoc];
        const std::uint64_t want = wordOf(addr);
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            if ((set[w] & ~kDirty) == want)
                return Slot{set, w, true};
        }
        return Slot{set, 0, false};
    }

    /**
     * Account a demand access that find() resolved to @p s, without
     * searching again: on a hit, make the line most recent (dirtied
     * when @p make_dirty) and count a hit; otherwise count a miss.
     * @return s.hit.
     */
    bool
    record(Slot s, bool make_dirty)
    {
        if (!s.hit) {
            demand_.miss();
            return false;
        }
        if (s.set != nullptr) {
            const std::uint64_t word =
                s.set[s.way] | (make_dirty ? kDirty : 0);
            std::copy_backward(s.set, s.set + s.way, s.set + s.way + 1);
            s.set[0] = word;
        }
        demand_.hit();
        return true;
    }

    /**
     * Lookup that updates LRU on hit and records hit/miss stats.
     * @param make_dirty mark the line dirty on hit (stores).
     * @return true on hit.
     */
    bool access(Addr addr, bool make_dirty)
    {
        return record(find(addr), make_dirty);
    }

    /**
     * access() on a hit; on a miss, nothing at all (no stats), so a
     * caller that may yet refuse the miss records it separately.
     */
    bool hitAccess(Addr addr, bool make_dirty);

    /**
     * Install the line, evicting the set's LRU victim if needed.
     * The line must not already be present.
     */
    Victim insert(Addr addr, bool dirty);

    /**
     * Install the line if absent (as insert()); if present, only OR
     * in @p dirty, leaving its recency alone.  One set search.
     */
    Victim fill(Addr addr, bool dirty);

    /** Mark an existing line dirty; returns false if absent. */
    bool setDirty(Addr addr);

    /** Drop the line if present; returns its prior state. */
    Victim invalidate(Addr addr);

    const CacheLevelConfig &config() const { return config_; }
    const std::string &name() const { return name_; }
    const RatioStat &demandStats() const { return demand_; }
    void resetStats() { demand_.reset(); }

    std::uint64_t numSets() const { return sets_; }

  private:
    static constexpr std::uint64_t kValid = std::uint64_t{1} << 63;
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 62;

    /** The valid, clean word of @p addr's line. */
    std::uint64_t
    wordOf(Addr addr) const
    {
        return (addr >> lineShift_) | kValid;
    }

    CacheLevelConfig config_;
    std::string name_;
    std::uint64_t sets_;
    unsigned lineShift_;
    std::vector<std::uint64_t> ways_;  // sets_ * assoc, row-major by set
    RatioStat demand_;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_CACHE_ARRAY_HH
