/**
 * @file
 * Host-side helpers: pinning to distinct physical cores, and the
 * process's peak resident memory.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <vector>

namespace perfbench
{

/**
 * One logical CPU per physical core, lowest sibling first, restricted
 * to the CPUs this process may run on.  Reads each CPU's
 * topology/thread_siblings_list from sysfs (no libnuma); a CPU whose
 * file is missing counts as its own core.
 */
std::vector<int> physicalCoreCpus();

/**
 * Restrict the calling thread, and the threads it creates afterwards,
 * to @p cpus.  @return false if the kernel refused; the benchmark then
 * runs unpinned.
 */
bool pinTo(const std::vector<int> &cpus);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
