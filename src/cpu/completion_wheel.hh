/**
 * @file
 * Calendar wheel of functional-unit completions.
 *
 * Every completion is scheduled a bounded number of cycles ahead (the
 * longest execution latency plus an L1 hit and a TLB miss), so a ring
 * of buckets sized to the next power of two above that bound holds
 * each pending cycle in its own bucket.  Buckets are singly linked lists
 * threaded through a fixed per-id link array — an id (a ROB slot) has
 * at most one completion pending — so scheduling and delivery never
 * allocate.  A bitmask of non-empty buckets answers "earliest pending
 * completion" in a few word scans.
 *
 * Within one bucket, delivery order is the reverse of scheduling
 * order; the core's completion handling does not depend on it (see
 * DESIGN.md section 11).
 */

#ifndef SMTDRAM_CPU_COMPLETION_WHEEL_HH
#define SMTDRAM_CPU_COMPLETION_WHEEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace smtdram
{

class CompletionWheel
{
  public:
    /**
     * @param horizon the largest delay past the current cycle that
     *        schedule() will be asked for.
     * @param ids ids are 0 .. ids-1, each pending at most once.
     */
    CompletionWheel(Cycle horizon, std::uint32_t ids)
        : next_(ids, 0)
    {
        std::uint64_t buckets = 1;
        while (buckets <= horizon)
            buckets <<= 1;
        mask_ = buckets - 1;
        heads_.assign(buckets, 0);
        nonEmpty_.assign((buckets + 63) / 64, 0);
    }

    std::uint64_t buckets() const { return mask_ + 1; }

    /**
     * Deliver @p id at cycle @p when, which must lie in the wheel's
     * window: after the last drained cycle and at most buckets()
     * cycles past it.
     */
    void
    schedule(Cycle when, std::uint32_t id)
    {
        panic_if(when < nextDrain_ || when - nextDrain_ > mask_,
                 "completion at cycle %llu is outside the %llu-bucket "
                 "wheel starting at cycle %llu",
                 (unsigned long long)when,
                 (unsigned long long)buckets(),
                 (unsigned long long)nextDrain_);
        const std::uint64_t b = when & mask_;
        next_[id] = heads_[b];
        heads_[b] = id + 1;
        nonEmpty_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++pending_;
    }

    /**
     * Hand every id due at or before @p now to @p deliver, earliest
     * cycle first.  @p deliver may schedule() later completions.
     */
    template <typename F>
    void
    drain(Cycle now, F &&deliver)
    {
        while (pending_ > 0 && nextDrain_ <= now) {
            const std::uint64_t b = nextDrain_++ & mask_;
            std::uint32_t link = heads_[b];
            if (link == 0)
                continue;
            heads_[b] = 0;
            nonEmpty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
            while (link != 0) {
                const std::uint32_t id = link - 1;
                link = next_[id];
                --pending_;
                deliver(id);
            }
        }
        if (nextDrain_ <= now)
            nextDrain_ = now + 1;
    }

    /** Cycle of the earliest pending completion, or kCycleNever. */
    Cycle
    next() const
    {
        if (pending_ == 0)
            return kCycleNever;
        // Scan the ring from the first undrained bucket; the last
        // pass revisits the starting word for the bits below it.
        const std::uint64_t start = nextDrain_ & mask_;
        const std::size_t words = nonEmpty_.size();
        std::size_t w = start >> 6;
        std::uint64_t word =
            nonEmpty_[w] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t i = 0; i <= words; ++i) {
            if (word != 0) {
                const std::uint64_t b = w * 64 + __builtin_ctzll(word);
                return nextDrain_ + ((b - start) & mask_);
            }
            w = w + 1 == words ? 0 : w + 1;
            word = nonEmpty_[w];
        }
        panic("completion wheel lost %u pending entries", pending_);
    }

  private:
    std::uint64_t mask_ = 0;
    /** First cycle not yet drained; every pending completion lies in
     *  [nextDrain_, nextDrain_ + buckets()). */
    Cycle nextDrain_ = 0;
    std::uint32_t pending_ = 0;
    /** Per bucket: id + 1 of the most recently scheduled entry, or 0. */
    std::vector<std::uint32_t> heads_;
    /** Per id: id + 1 of the next entry in its bucket, or 0. */
    std::vector<std::uint32_t> next_;
    /** Bit b set = bucket b non-empty. */
    std::vector<std::uint64_t> nonEmpty_;
};

} // namespace smtdram

#endif // SMTDRAM_CPU_COMPLETION_WHEEL_HH
