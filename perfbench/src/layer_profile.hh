/**
 * @file
 * Host-time accounting by simulator layer, from outside the simulator.
 *
 * A Span times one call into a layer's public function.  Spans nest
 * (core -> workload stream, core -> memory port, ...), so each layer's
 * *self* time is its spans' total minus the time of the spans nested
 * directly inside them.  Per-cycle spans are folded into per-layer
 * totals on the spot; only coarse boundaries (construction, warm-up,
 * measure, one simulation, one runner job) are kept whole, and those
 * are written at exit as a Chrome trace-event document.
 *
 * The replaced global operator new (layer_profile.cc) charges every
 * heap allocation to the innermost open span on the allocating thread.
 *
 * Spans are opened only by the single-threaded traced driver; other
 * threads never touch the totals.
 */

#ifndef PERFBENCH_LAYER_PROFILE_HH
#define PERFBENCH_LAYER_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Span owners.  Names match the metric prefixes in BENCHMARK.json. */
enum class Layer : std::uint8_t {
    None,
    Workload,     ///< SyntheticStream::next
    Cpu,          ///< SmtCore::cycle (includes Hierarchy::access)
    CacheTick,    ///< Hierarchy::tick
    CacheFill,    ///< EventQueue::runUntil + DRAM read callback
    CachePrewarm, ///< Hierarchy::preallocate / prewarmLine
    DramTick,     ///< DramSystem::tick
    DramPort,     ///< canAccept / enqueueRead / enqueueWrite
    SimLoop,      ///< the warm-up + measure kernel loop
    SimConstruct, ///< building DramSystem/Hierarchy/SmtCore/streams
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Per-layer accumulators (main thread only, see file comment). */
struct LayerTotals {
    std::array<std::int64_t, kLayers> totalNs{};
    std::array<std::int64_t, kLayers> childNs{};
    std::array<std::uint64_t, kLayers> allocs{};

    std::int64_t
    selfNs(Layer l) const
    {
        const auto i = static_cast<std::size_t>(l);
        return totalNs[i] - childNs[i];
    }

    std::uint64_t
    allocsOf(Layer l) const
    {
        return allocs[static_cast<std::size_t>(l)];
    }
};

inline LayerTotals g_layers;
/** Innermost open span on this thread (allocation attribution). */
inline thread_local Layer t_current = Layer::None;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** RAII timing span around one call into @p layer. */
class Span
{
  public:
    explicit Span(Layer layer)
        : layer_(layer), parent_(t_current), start_(nowNs())
    {
        t_current = layer;
    }

    ~Span()
    {
        const std::int64_t d = nowNs() - start_;
        g_layers.totalNs[static_cast<std::size_t>(layer_)] += d;
        g_layers.childNs[static_cast<std::size_t>(parent_)] += d;
        t_current = parent_;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Layer layer_;
    Layer parent_;
    std::int64_t start_;
};

/** One whole span kept for the Chrome trace. */
struct CoarseSpan {
    std::string name;
    std::string category;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** Coarse spans in recording order; written by writeChromeTrace. */
inline std::vector<CoarseSpan> g_coarse;

/** Times a coarse boundary and records it in g_coarse on exit. */
class CoarseTimer
{
  public:
    CoarseTimer(std::string name, std::string category)
        : name_(std::move(name)), category_(std::move(category)),
          start_(nowNs())
    {
    }

    ~CoarseTimer()
    {
        g_coarse.push_back({std::move(name_), std::move(category_),
                            start_, nowNs() - start_});
    }

    CoarseTimer(const CoarseTimer &) = delete;
    CoarseTimer &operator=(const CoarseTimer &) = delete;

  private:
    std::string name_;
    std::string category_;
    std::int64_t start_;
};

/**
 * Write g_coarse as a Chrome trace-event JSON (loadable in Perfetto
 * next to the simulator's own --trace output; it uses its own pid).
 * @return false if the file could not be written.
 */
bool writeChromeTrace(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_LAYER_PROFILE_HH
