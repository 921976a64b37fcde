#include "topology/topology_config.hh"

#include <vector>

#include "common/logging.hh"

namespace smtdram
{

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::Packed:      return "packed";
      case PlacementPolicy::RoundRobin:  return "rr";
      case PlacementPolicy::MemoryAware: return "memaware";
      case PlacementPolicy::Migrate:     return "migrate";
    }
    return "?";
}

const char *
homePolicyName(HomePolicy policy)
{
    switch (policy) {
      case HomePolicy::Local:      return "local";
      case HomePolicy::Loader:     return "loader";
      case HomePolicy::Interleave: return "interleave";
    }
    return "?";
}

void
TopologyConfig::validate(std::uint32_t num_threads) const
{
    fatal_if(sockets == 0, "topology needs at least one socket");
    fatal_if(coresPerSocket == 0,
             "topology needs at least one core per socket");
    fatal_if(active() && hopLatency == 0,
             "multi-socket topology needs a nonzero hop latency");

    const std::uint32_t cores = totalCores();
    const std::uint32_t ways = effectiveWays(num_threads);
    fatal_if(static_cast<std::uint64_t>(cores) * ways < num_threads,
             "topology oversubscribed: %u threads but %u cores x %u "
             "SMT ways", num_threads, cores, ways);

    if (!pinned.empty()) {
        fatal_if(pinned.size() != num_threads,
                 "pinned placement names %zu threads but the machine "
                 "runs %u", pinned.size(), num_threads);
        std::vector<std::uint32_t> load(cores, 0);
        for (std::size_t t = 0; t < pinned.size(); ++t) {
            fatal_if(pinned[t] >= cores,
                     "thread %zu pinned to core %u but the topology "
                     "has only %u cores", t, pinned[t], cores);
            ++load[pinned[t]];
        }
        for (std::uint32_t c = 0; c < cores; ++c) {
            fatal_if(load[c] > ways,
                     "core %u oversubscribed: %u threads pinned but "
                     "only %u SMT ways", c, load[c], ways);
        }
    }

    if (active() && smtWays == 0 &&
        placement == PlacementPolicy::Packed && pinned.empty()) {
        warn_once("packed placement with uncapped SMT ways puts every "
                  "thread on core 0 — set smtWays to spread threads");
    }
    if (placement == PlacementPolicy::Migrate && migrationEpoch == 0) {
        warn_once("Migrate placement with migrationEpoch 0 never "
                  "migrates (behaves as round-robin)");
    }
}

} // namespace smtdram
