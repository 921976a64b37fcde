/**
 * @file
 * OS thread-placement policies: pure functions from (topology,
 * application profiles) to a thread->core map, the memory-intensity
 * score the MemoryAware policy ranks threads by, and the epoch
 * migration policy.
 */

#ifndef SMTDRAM_TOPOLOGY_PLACEMENT_HH
#define SMTDRAM_TOPOLOGY_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "topology/topology_config.hh"
#include "workload/app_profile.hh"

namespace smtdram
{

/**
 * Static memory-intensity estimate from the profile alone: the
 * paper's MEM/MID/ILP classes dominate, with the load fraction and
 * cold-set share breaking ties within a class.  Higher = more DRAM
 * bandwidth demanded.
 */
double memoryIntensityScore(const AppProfile &app);

/**
 * Compute the initial thread->core map for @p apps on @p topo.
 * An explicit `pinned` map wins over any policy; Migrate starts
 * from the RoundRobin map.  The result always respects the per-core
 * SMT-way capacity (validate() guarantees it is satisfiable).
 */
std::vector<std::uint32_t>
computePlacement(const TopologyConfig &topo,
                 const std::vector<AppProfile> &apps);

/** One thread move decided by the OS scheduler. */
struct Migration {
    ThreadId tid = kThreadNone;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
};

/**
 * Epoch migration policy.  Picks the thread that paid the most
 * remote reads this epoch (@p remote, per thread; at least a noise
 * floor of them) and moves it toward the socket it read most from
 * (@p reads_to_socket, per thread and home socket).  Returns no
 * move, one move onto a free SMT context of that socket, or — when
 * the socket is full — a swap with its least remote-hungry thread,
 * guarded by 2x hysteresis so a marginal difference never
 * ping-pongs.
 */
std::vector<Migration>
chooseMigrations(const TopologyConfig &topo,
                 const std::vector<std::uint32_t> &thread_core,
                 const std::vector<std::uint64_t> &remote,
                 const std::vector<std::vector<std::uint64_t>>
                     &reads_to_socket);

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_PLACEMENT_HH
