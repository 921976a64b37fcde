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

/**
 * The policy table.  Thread-aware policies keep hit-first and
 * read-first as the leading criteria (Section 3.2 explains why
 * bandwidth trumps single-access latency under SMT) and break ties
 * with the snapshot piggybacked on the request; writebacks carry no
 * thread and rank after every thread-owned request in their class.
 */
Key
keyOf(SchedulerKind kind, const SchedCandidate &c, size_t queued)
{
    const DramRequest &r = *c.req;
    const int hit_class = c.rowHit ? 0 : c.bankIdle ? 1 : 2;
    const int read_class = r.op == MemOp::Read ? 0 : 1;
    const bool owned = r.thread != kThreadNone;
    std::int64_t thread_key = 0;
    switch (kind) {
      case SchedulerKind::Fcfs:
        // Reads bypass writes (the paper's FCFS reference point);
        // otherwise strict arrival order.
        return Key{0, read_class, 0, r.arrival, r.id};
      case SchedulerKind::HitFirst:
        break;
      case SchedulerKind::AgeBased:
        if (queued > kAgePressure)
            return Key{0, 0, 0, r.arrival, r.id};
        break;
      case SchedulerKind::RequestBased:  // fewest outstanding first
        thread_key = owned ? r.snap.outstandingRequests : kNoThreadKey;
        break;
      case SchedulerKind::RobBased:  // most ROB entries held first
        thread_key = owned ? -std::int64_t{r.snap.robOccupancy}
                           : kNoThreadKey;
        break;
      case SchedulerKind::IqBased:  // most int IQ entries held first
        thread_key = owned ? -std::int64_t{r.snap.iqOccupancy}
                           : kNoThreadKey;
        break;
      case SchedulerKind::CriticalityBased:
        // Critical requests lead within their hit/read class.
        thread_key = r.critical ? 0 : 1;
        break;
    }
    return Key{hit_class, read_class, thread_key, r.arrival, r.id};
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
    size_t best = 0;
    Key best_key = keyOf(kind, candidates[0], queued);
    for (size_t i = 1; i < candidates.size(); ++i) {
        const Key k = keyOf(kind, candidates[i], queued);
        if (k < best_key) {
            best_key = k;
            best = i;
        }
    }
    return best;
}

} // namespace smtdram
