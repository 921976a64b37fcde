#include "host.hh"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace perfbench
{

namespace
{

/** Parse a sysfs CPU list such as "0,4" or "0-1". */
std::set<int>
parseCpuList(const std::string &text)
{
    std::set<int> cpus;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        const auto dash = item.find('-');
        try {
            if (dash == std::string::npos) {
                cpus.insert(std::stoi(item));
            } else {
                const int lo = std::stoi(item.substr(0, dash));
                const int hi = std::stoi(item.substr(dash + 1));
                for (int c = lo; c <= hi; ++c)
                    cpus.insert(c);
            }
        } catch (const std::exception &) {
            // Malformed entry: ignore it, the CPU stays its own core.
        }
    }
    return cpus;
}

} // namespace

std::vector<int>
physicalCoreCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return {};
    std::vector<int> out;
    std::set<int> covered;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || covered.count(cpu))
            continue;
        std::ifstream f("/sys/devices/system/cpu/cpu" +
                        std::to_string(cpu) +
                        "/topology/thread_siblings_list");
        std::string line;
        std::set<int> siblings;
        if (f && std::getline(f, line))
            siblings = parseCpuList(line);
        siblings.insert(cpu);
        covered.insert(siblings.begin(), siblings.end());
        out.push_back(cpu);
    }
    return out;
}

bool
pinTo(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    // pid 0 is the calling thread on Linux, not the whole process.
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

} // namespace perfbench
