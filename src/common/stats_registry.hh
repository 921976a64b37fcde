/**
 * @file
 * Machine-readable statistics pipeline.
 *
 * Components register named scalar and histogram providers into a
 * StatsRegistry; the registry samples the scalars into an
 * epoch-indexed time series during a run and exports one
 * schema-versioned JSON (and optionally CSV) document per run:
 *
 *   {
 *     "schema": "smtdram-stats", "version": 1,
 *     "meta": { "config": "...", ... },
 *     "finalCycle": N,
 *     "scalars": { "dram.reads": 123, ... },
 *     "histograms": { "dram.read_latency":
 *         { "count", "min", "max", "mean",
 *           "p50", "p90", "p99", "p999", "buckets": [[lo, n], ...] } },
 *     "epochs": { "cycle": [...], "series": { name: [...] } }
 *   }
 *
 * The CSV export is the epoch time series (one row per epoch, one
 * column per scalar) plus a terminal "final" row, for spreadsheet and
 * pandas consumption without a JSON parser.
 *
 * Providers are callbacks, not copied values, so registration is done
 * once up front and every sample/export sees live state.  A registry
 * costs nothing until sampleEpoch()/write*() are called; benches that
 * don't pass --stats-json never create one.
 */

#ifndef SMTDRAM_COMMON_STATS_REGISTRY_HH
#define SMTDRAM_COMMON_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** Named-provider statistics registry with epoch sampling. */
class StatsRegistry
{
  public:
    /** Bumped whenever the exported document layout changes.
     *  v2: latency-blame scalars/histograms (dram.blame.*), per-thread
     *  CPI-stack scalars (cpu.t<i>.blame.*), interference matrix
     *  (dram.interference.*), trace.dropped_events, and per-channel
     *  power-residency/hammer-mitigation series.
     *  v3: NUMA topology block (numa.* scalars, per-socket and
     *  per-thread remote-access series, "sockets"/"cores" meta keys),
     *  emitted only when the machine has more than one core; the 1x1
     *  machine emits the v2 key set under the v3 version stamp. */
    static constexpr std::uint32_t kSchemaVersion = 3;
    static constexpr const char *kSchemaName = "smtdram-stats";

    using ScalarFn = std::function<double()>;
    using HistogramFn = std::function<LogHistogram()>;

    /** Register a scalar series; @p name must be unique. */
    void registerScalar(const std::string &name, ScalarFn fn);

    /** Register a histogram snapshot provider; @p name unique. */
    void registerHistogram(const std::string &name, HistogramFn fn);

    /** Attach a key/value to the exported "meta" object. */
    void setMeta(const std::string &key, const std::string &value);

    /** Record one epoch sample of every registered scalar. */
    void sampleEpoch(Cycle now);

    size_t epochs() const { return epochCycles_.size(); }
    size_t scalars() const { return scalarNames_.size(); }

    /** Evaluate one registered scalar by name (tests, summaries). */
    double value(const std::string &name) const;

    /** Write the full JSON document; @p final_cycle stamps the run. */
    void writeJson(std::ostream &os, Cycle final_cycle) const;

    /** Write the epoch time series + final row as CSV. */
    void writeCsv(std::ostream &os, Cycle final_cycle) const;

  private:
    std::vector<std::string> scalarNames_;
    std::vector<ScalarFn> scalarFns_;
    std::vector<std::string> histNames_;
    std::vector<HistogramFn> histFns_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<Cycle> epochCycles_;
    /** series_[i][e] = scalar i at epoch e. */
    std::vector<std::vector<double>> series_;
};

} // namespace smtdram

#endif // SMTDRAM_COMMON_STATS_REGISTRY_HH
