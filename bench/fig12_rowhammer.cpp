/**
 * @file
 * Rowhammer sweep (new to this reproduction; the paper predates the
 * disturbance-error literature): a hostile hammer thread rides inside
 * an SMT mix and the sweep measures victim-row flip counts, weighted
 * speedup, and the cost of Graphene-style preventive refresh, across
 * the six scheduling policies and a range of hammer thresholds.
 *
 * The mapping is forced to PageInterleave: the XOR permutation
 * diffuses same-bank row adjacency, so under the paper-default
 * mapping the attack degenerates into plain streaming — run with
 * --xor to see that defense-by-accident directly.  Refresh is forced
 * on: the disturbance window is defined by the refresh interval.
 */

#include <algorithm>
#include <string>

#include "bench/bench_util.hh"
#include "workload/hammer_workload.hh"

using namespace smtdram;
using namespace smtdram::bench;

int
main(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    declareRobustnessFlags(flags);
    declareHammerFlags(flags);
    declareObservabilityFlags(flags);
    declareParallelFlags(flags);
    flags.declare("base-mix", "2-MEM",
                  "Table 2 mix the hostile thread joins");
    flags.declare("pattern", "hammer-double",
                  "attack shape: hammer-single, hammer-double, "
                  "hammer-many");
    flags.declare("thresholds", "64,256,1024",
                  "hammer thresholds swept (activations per window)");
    flags.declare("xor", "false",
                  "keep the paper's XOR bank permutation instead of "
                  "PageInterleave (diffuses the attack)");
    flags.parse(argc, argv,
                "Rowhammer sweep: victim flips and slowdown vs. "
                "threshold and Graphene-style mitigation, across "
                "schedulers");

    ParallelExperimentRunner runner = runnerFromFlags(flags);
    const WorkloadMix mix = hostileMix(flags.getString("base-mix"),
                                       flags.getString("pattern"));
    const auto threads = static_cast<std::uint32_t>(mix.apps.size());

    std::vector<std::uint64_t> thresholds;
    for (const std::string &t :
         splitList(flags.getString("thresholds")))
        thresholds.push_back(
            static_cast<std::uint64_t>(std::stoull(t)));
    fatal_if(thresholds.empty(), "--thresholds must name at least one");

    banner("Rowhammer sweep",
           "victim flips, weighted speedup, and mitigation cost for "
           "mix " + mix.name + ", schedulers x thresholds",
           "not in the paper: flips grow as the threshold drops; "
           "Graphene-style preventive refresh drives them to ~0 at a "
           "small bandwidth/energy cost on every scheduler");

    std::vector<std::string> columns;
    for (SchedulerKind s : allSchedulerKinds())
        columns.push_back(schedulerName(s));
    ResultTable flips_table(columns);
    ResultTable ws_table(columns);
    ResultTable prevref_table(columns);
    ResultTable energy_table(columns);

    struct RowIds {
        std::string name;
        bool mitigated = false;
        std::vector<std::size_t> ids;
    };
    std::vector<RowIds> rows;
    for (std::uint64_t threshold : thresholds) {
        for (bool mitigate : {false, true}) {
            RowIds row;
            row.name = "thr" + std::to_string(threshold) +
                       (mitigate ? "+mit" : "");
            row.mitigated = mitigate;
            for (SchedulerKind s : allSchedulerKinds()) {
                SystemConfig config =
                    SystemConfig::paperDefault(threads);
                if (!flags.getBool("xor"))
                    config.dram.mapping =
                        MappingScheme::PageInterleave;
                config.scheduler = s;
                applyRobustnessFlags(flags, config);
                config.dram.withRefresh();
                config.dram.withHammer(
                    threshold, flags.getDouble("hammer-flip-prob"),
                    static_cast<std::uint32_t>(
                        flags.getInt("hammer-blast")));
                config.dram.hammer.seed = static_cast<std::uint64_t>(
                    flags.getInt("hammer-seed"));
                if (mitigate) {
                    // Track at a quarter of the flip threshold so the
                    // preventive refresh wins the race to the victim.
                    config.dram.withHammerMitigation(
                        static_cast<std::uint32_t>(
                            flags.getInt("hammer-tracker-capacity")),
                        std::max<std::uint64_t>(1, threshold / 4));
                }
                applyObservabilityFlags(flags, config);
                row.ids.push_back(runner.submitMix(config, mix));
            }
            rows.push_back(std::move(row));
        }
    }
    runner.run();

    for (const RowIds &row : rows) {
        std::vector<double> flips, ws, prevrefs, energy;
        for (std::size_t id : row.ids) {
            const MixRun &r = runner.mixResult(id);
            flips.push_back(
                static_cast<double>(r.run.hammer.victimFlips));
            ws.push_back(r.weightedSpeedup);
            prevrefs.push_back(
                static_cast<double>(r.run.hammer.mitigationsIssued));
            energy.push_back(r.run.power.mitigationEnergy);
        }
        flips_table.addRow(row.name, flips);
        ws_table.addRow(row.name, ws);
        prevref_table.addRow(row.name, prevrefs);
        energy_table.addRow(row.name, energy);
    }

    std::printf("-- victim-row bit flips --\n");
    flips_table.print("%10.0f");
    std::printf("-- weighted speedup (victims + hostile thread) --\n");
    ws_table.print("%10.3f");
    std::printf("-- preventive refreshes issued --\n");
    prevref_table.print("%10.0f");
    std::printf("-- preventive-refresh energy (nJ) --\n");
    energy_table.print("%10.1f");
    return 0;
}
