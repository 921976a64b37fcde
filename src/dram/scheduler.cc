#include "dram/scheduler.hh"

#include <cctype>

#include "common/logging.hh"

namespace smtdram
{

namespace
{

/**
 * Lexicographic priority key: smaller compares better.  Every policy
 * is one (hitClass, readClass, threadKey, arrival, id) tuple; the id
 * keeps the order total and deterministic.
 */
struct Key {
    int hitClass;       ///< 0 = row hit, 1 = idle bank, 2 = conflict
    int readClass;      ///< 0 = read, 1 = write
    std::int64_t threadKey;
    Cycle arrival;
    std::uint64_t id;

    bool
    operator<(const Key &o) const
    {
        if (hitClass != o.hitClass)
            return hitClass < o.hitClass;
        if (readClass != o.readClass)
            return readClass < o.readClass;
        if (threadKey != o.threadKey)
            return threadKey < o.threadKey;
        if (arrival != o.arrival)
            return arrival < o.arrival;
        return id < o.id;
    }
};

/** Queue depth beyond which age-based serves the oldest request
 *  first (paper: "more than eight outstanding requests"). */
constexpr size_t kAgePressure = 8;

/** Thread key of a writeback: after every thread-owned request. */
constexpr std::int64_t kNoThreadKey = 1LL << 40;

/** Thread key @p key of an owned request; writebacks rank last. */
std::int64_t
ownedKey(const DramRequest &r, std::int64_t key)
{
    return r.thread != kThreadNone ? key : kNoThreadKey;
}

/**
 * The policy table.  Thread-aware policies keep hit-first and
 * read-first as the leading criteria (Section 3.2 explains why
 * bandwidth trumps single-access latency under SMT) and break ties
 * with the snapshot piggybacked on the request; writebacks carry no
 * thread and rank after every thread-owned request in their class.
 * Hit-first is the plain row, with thread key 0.  A template on the
 * policy, so a pick resolves the policy once and each candidate
 * computes only its own row.
 */
template <SchedulerKind K>
Key
keyOf(const SchedCandidate &c, [[maybe_unused]] size_t queued)
{
    const DramRequest &r = *c.req;
    const int hit_class = c.rowHit ? 0 : c.bankIdle ? 1 : 2;
    const int read_class = r.op == MemOp::Read ? 0 : 1;
    std::int64_t thread_key = 0;
    if constexpr (K == SchedulerKind::Fcfs) {
        // Reads bypass writes (the paper's FCFS reference point);
        // otherwise strict arrival order.
        return Key{0, read_class, 0, r.arrival, r.id};
    } else if constexpr (K == SchedulerKind::AgeBased) {
        if (queued > kAgePressure)
            return Key{0, 0, 0, r.arrival, r.id};
    } else if constexpr (K == SchedulerKind::RequestBased) {
        // Fewest outstanding first.
        thread_key = ownedKey(r, r.snap.outstandingRequests);
    } else if constexpr (K == SchedulerKind::RobBased) {
        // Most ROB entries held first.
        thread_key = ownedKey(r, -std::int64_t{r.snap.robOccupancy});
    } else if constexpr (K == SchedulerKind::IqBased) {
        // Most int IQ entries held first.
        thread_key = ownedKey(r, -std::int64_t{r.snap.iqOccupancy});
    } else if constexpr (K == SchedulerKind::CriticalityBased) {
        // Critical requests lead within their hit/read class.
        thread_key = r.critical ? 0 : 1;
    }
    return Key{hit_class, read_class, thread_key, r.arrival, r.id};
}

/** The candidate with the smallest keyOf<K>. */
template <SchedulerKind K>
size_t
pickWith(const std::vector<SchedCandidate> &candidates, size_t queued)
{
    size_t best = 0;
    Key best_key = keyOf<K>(candidates[0], queued);
    for (size_t i = 1; i < candidates.size(); ++i) {
        const Key k = keyOf<K>(candidates[i], queued);
        if (k < best_key) {
            best_key = k;
            best = i;
        }
    }
    return best;
}

} // namespace

const std::vector<SchedulerKind> &
allSchedulerKinds()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Fcfs,         SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,     SchedulerKind::RequestBased,
        SchedulerKind::RobBased,     SchedulerKind::IqBased,
    };
    return kinds;
}

const std::vector<SchedulerKind> &
allSchedulerKindsExtended()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Fcfs,          SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,      SchedulerKind::RequestBased,
        SchedulerKind::RobBased,      SchedulerKind::IqBased,
        SchedulerKind::CriticalityBased,
    };
    return kinds;
}

std::string
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fcfs: return "FCFS";
      case SchedulerKind::HitFirst: return "Hit-first";
      case SchedulerKind::AgeBased: return "Age-based";
      case SchedulerKind::RequestBased: return "Request-based";
      case SchedulerKind::RobBased: return "ROB-based";
      case SchedulerKind::IqBased: return "IQ-based";
      case SchedulerKind::CriticalityBased: return "Criticality";
    }
    panic("unknown SchedulerKind %d", static_cast<int>(kind));
}

SchedulerKind
schedulerFromName(const std::string &name)
{
    std::string lower;
    for (char ch : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
    std::erase(lower, '-');
    std::erase(lower, '_');
    if (lower == "fcfs")
        return SchedulerKind::Fcfs;
    if (lower == "hitfirst")
        return SchedulerKind::HitFirst;
    if (lower == "agebased" || lower == "age")
        return SchedulerKind::AgeBased;
    if (lower == "requestbased" || lower == "request")
        return SchedulerKind::RequestBased;
    if (lower == "robbased" || lower == "rob")
        return SchedulerKind::RobBased;
    if (lower == "iqbased" || lower == "iq")
        return SchedulerKind::IqBased;
    if (lower == "criticality" || lower == "criticalitybased" ||
        lower == "critical") {
        return SchedulerKind::CriticalityBased;
    }
    fatal("unknown scheduler '%s'", name.c_str());
}

size_t
pickCandidate(SchedulerKind kind,
              const std::vector<SchedCandidate> &candidates, size_t queued)
{
    panic_if(candidates.empty(), "scheduler invoked with no candidates");
    switch (kind) {
      case SchedulerKind::Fcfs:
        return pickWith<SchedulerKind::Fcfs>(candidates, queued);
      case SchedulerKind::HitFirst:
        return pickWith<SchedulerKind::HitFirst>(candidates, queued);
      case SchedulerKind::AgeBased:
        return pickWith<SchedulerKind::AgeBased>(candidates, queued);
      case SchedulerKind::RequestBased:
        return pickWith<SchedulerKind::RequestBased>(candidates, queued);
      case SchedulerKind::RobBased:
        return pickWith<SchedulerKind::RobBased>(candidates, queued);
      case SchedulerKind::IqBased:
        return pickWith<SchedulerKind::IqBased>(candidates, queued);
      case SchedulerKind::CriticalityBased:
        return pickWith<SchedulerKind::CriticalityBased>(candidates,
                                                         queued);
    }
    panic("unknown SchedulerKind %d", static_cast<int>(kind));
}

} // namespace smtdram
