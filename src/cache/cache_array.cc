#include "cache/cache_array.hh"

#include "common/logging.hh"

namespace smtdram
{

CacheArray::CacheArray(const CacheLevelConfig &config, std::string name)
    : config_(config),
      name_(std::move(name)),
      sets_(config.numSets()),
      lineShift_(floorLog2(config.lineBytes)),
      setShift_(floorLog2(sets_))
{
    fatal_if(!isPowerOfTwo(config_.lineBytes),
             "%s: line size must be a power of 2", name_.c_str());
    fatal_if(sets_ == 0 || !isPowerOfTwo(sets_),
             "%s: set count %llu must be a non-zero power of 2",
             name_.c_str(), (unsigned long long)sets_);
    lines_.resize(sets_ * config_.assoc);
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (sets_ - 1);
}

Addr
CacheArray::tagOf(Addr addr) const
{
    return addr >> lineShift_ >> setShift_;
}

Addr
CacheArray::lineAddrOf(std::uint64_t set, Addr tag) const
{
    return ((tag << setShift_) | set) << lineShift_;
}

CacheArray::Line *
CacheArray::findLine(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::findLine(Addr addr) const
{
    return const_cast<CacheArray *>(this)->findLine(addr);
}

bool
CacheArray::probe(Addr addr) const
{
    if (config_.infinite)
        return true;
    return findLine(addr) != nullptr;
}

bool
CacheArray::access(Addr addr, bool make_dirty)
{
    if (hitAccess(addr, make_dirty))
        return true;
    demand_.miss();
    return false;
}

bool
CacheArray::hitAccess(Addr addr, bool make_dirty)
{
    if (config_.infinite) {
        demand_.hit();
        return true;
    }
    Line *line = findLine(addr);
    if (line == nullptr)
        return false;
    line->lastUse = ++useClock_;
    if (make_dirty)
        line->dirty = true;
    demand_.hit();
    return true;
}

CacheArray::Victim
CacheArray::insert(Addr addr, bool dirty)
{
    if (config_.infinite)
        return Victim{};
    panic_if(findLine(addr) != nullptr,
             "%s: inserting already-present line %#llx", name_.c_str(),
             (unsigned long long)addr);

    const std::uint64_t set = setIndex(addr);
    Line *base = &lines_[set * config_.assoc];
    Line *slot = nullptr;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            slot = &base[w];
            break;
        }
        if (slot == nullptr || base[w].lastUse < slot->lastUse)
            slot = &base[w];
    }

    Victim victim;
    if (slot->valid) {
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.lineAddr = lineAddrOf(set, slot->tag);
    }

    slot->valid = true;
    slot->dirty = dirty;
    slot->tag = tagOf(addr);
    slot->lastUse = ++useClock_;
    return victim;
}

bool
CacheArray::setDirty(Addr addr)
{
    if (config_.infinite)
        return true;
    Line *line = findLine(addr);
    if (line == nullptr)
        return false;
    line->dirty = true;
    return true;
}

CacheArray::Victim
CacheArray::invalidate(Addr addr)
{
    Victim v;
    if (config_.infinite)
        return v;
    Line *line = findLine(addr);
    if (line != nullptr) {
        v.valid = true;
        v.dirty = line->dirty;
        v.lineAddr = addr & ~static_cast<Addr>(config_.lineBytes - 1);
        line->valid = false;
        line->dirty = false;
    }
    return v;
}

} // namespace smtdram
