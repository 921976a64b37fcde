/**
 * @file
 * NumaSystem: another name for SmtSystem (which is sockets x cores,
 * 1x1 by default), kept because the benchmark harness names it.
 */

#ifndef SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH
#define SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH

#include "sim/smt_system.hh"

namespace smtdram
{

using NumaSystem = SmtSystem;

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH
