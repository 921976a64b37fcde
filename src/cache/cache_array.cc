#include "cache/cache_array.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

CacheArray::CacheArray(const CacheLevelConfig &config, std::string name)
    : config_(config),
      name_(std::move(name)),
      sets_(config.numSets()),
      lineShift_(floorLog2(config.lineBytes))
{
    fatal_if(!isPowerOfTwo(config_.lineBytes),
             "%s: line size must be a power of 2", name_.c_str());
    // Line numbers then fit below the two flag bits of a way word.
    fatal_if(config_.lineBytes < 4, "%s: line size must be at least 4",
             name_.c_str());
    fatal_if(sets_ == 0 || !isPowerOfTwo(sets_),
             "%s: set count %llu must be a non-zero power of 2",
             name_.c_str(), (unsigned long long)sets_);
    if (!config_.infinite)
        ways_.resize(sets_ * config_.assoc);
}

bool
CacheArray::probe(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr).hit;
}

bool
CacheArray::hitAccess(Addr addr, bool make_dirty)
{
    const Slot s = find(addr);
    return s.hit && record(s, make_dirty);
}

CacheArray::Victim
CacheArray::insert(Addr addr, bool dirty)
{
    panic_if(!config_.infinite && probe(addr),
             "%s: inserting already-present line %#llx", name_.c_str(),
             (unsigned long long)addr);
    return fill(addr, dirty);
}

CacheArray::Victim
CacheArray::fill(Addr addr, bool dirty)
{
    const Slot s = find(addr);
    if (s.set == nullptr)
        return Victim{};  // an infinite level holds everything
    const std::uint64_t dirty_bit = dirty ? kDirty : 0;
    if (s.hit) {
        s.set[s.way] |= dirty_bit;
        return Victim{};
    }
    // Shift the set down one way; the last word is the LRU victim.
    std::uint64_t *set = s.set;
    const std::uint64_t last = set[config_.assoc - 1];
    std::copy_backward(set, set + config_.assoc - 1, set + config_.assoc);
    set[0] = wordOf(addr) | dirty_bit;
    if (last == 0)
        return Victim{};
    return Victim{true, (last & kDirty) != 0,
                  (last & ~(kValid | kDirty)) << lineShift_};
}

bool
CacheArray::setDirty(Addr addr)
{
    const Slot s = find(addr);
    if (s.hit && s.set != nullptr)
        s.set[s.way] |= kDirty;
    return s.hit;
}

CacheArray::Victim
CacheArray::invalidate(Addr addr)
{
    const Slot s = find(addr);
    if (!s.hit || s.set == nullptr)
        return Victim{};
    const std::uint64_t word = s.set[s.way];
    std::copy(s.set + s.way + 1, s.set + config_.assoc, s.set + s.way);
    s.set[config_.assoc - 1] = 0;
    return Victim{true, (word & kDirty) != 0,
                  addr & ~static_cast<Addr>(config_.lineBytes - 1)};
}

} // namespace smtdram
