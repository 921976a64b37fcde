#include "layer_profile.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench
{

namespace
{

void *
countedAlloc(std::size_t size)
{
    // Only the driver thread opens spans; every other thread (runner
    // workers) stays on None and so never writes the shared totals.
    if (t_current != Layer::None)
        ++g_layers.allocs[static_cast<std::size_t>(t_current)];
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/** Escape @p s for a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // pid 9000 keeps clear of the simulator's channel/cpu pids.
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                    "9000,\"tid\":0,\"args\":{\"name\":\"perfbench "
                    "host\"}}");
    // Spans are recorded as they close, children before parents.
    std::int64_t origin = g_coarse.empty() ? 0 : g_coarse.front().startNs;
    for (const CoarseSpan &s : g_coarse)
        origin = std::min(origin, s.startNs);
    for (const CoarseSpan &s : g_coarse) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":9000,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                     jsonEscape(s.name).c_str(),
                     jsonEscape(s.category).c_str(),
                     static_cast<double>(s.startNs - origin) / 1e3,
                     static_cast<double>(s.durNs) / 1e3);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

void *
operator new(std::size_t size)
{
    return perfbench::countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return perfbench::countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
