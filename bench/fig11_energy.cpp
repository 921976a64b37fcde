/**
 * @file
 * Energy sweep (new to this reproduction; the paper reports
 * performance only): DRAM energy per committed instruction and the
 * energy-delay-squared product across the six scheduling policies and
 * 1/2/4 independent channels, with the low-power state machine on.
 *
 * EPI isolates how much DRAM energy each design spends per unit of
 * work; ED2P (normalized to Hit-first per row) weights delay
 * quadratically, the usual metric when performance still dominates.
 * More channels add background power (more ranks idling) but finish
 * the same work sooner — this sweep quantifies that tension per
 * scheduler.
 */

#include "bench/bench_util.hh"

using namespace smtdram;
using namespace smtdram::bench;

int
main(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    declarePowerFlags(flags);
    declareHammerFlags(flags);
    declareObservabilityFlags(flags);
    declareParallelFlags(flags);
    flags.parse(argc, argv,
                "Energy sweep: DRAM energy per instruction and ED2P "
                "across schedulers and channel counts");

    ParallelExperimentRunner runner = runnerFromFlags(flags);
    const auto mixes =
        mixesFromFlags(flags, {"2-MEM", "4-MEM"});

    // The sweep is about the power-aware controller; default the
    // state machine on (the --power* flags still override thresholds).
    const bool machine_on = true;

    banner("Energy sweep",
           "DRAM energy/instruction (nJ) and normalized ED2P, "
           "schedulers x channel counts, low-power machine on",
           "not in the paper: energy extends its performance-only "
           "comparison; expect Hit-first-class schedulers to win "
           "ED2P since delay dominates quadratically");

    const std::vector<SchedulerKind> schedulers = {
        SchedulerKind::Fcfs,         SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,     SchedulerKind::RequestBased,
        SchedulerKind::RobBased,     SchedulerKind::IqBased,
    };

    std::vector<std::string> columns;
    for (SchedulerKind s : schedulers)
        columns.push_back(schedulerName(s));
    ResultTable epi_table(columns);
    ResultTable ed2p_table(columns);

    struct RowIds {
        std::string name;
        std::vector<std::size_t> ids;
    };
    std::vector<RowIds> rows;
    for (const std::string &mix_name : mixes) {
        const WorkloadMix &mix = mixByName(mix_name);
        const auto threads =
            static_cast<std::uint32_t>(mix.apps.size());
        for (std::uint32_t channels : {1u, 2u, 4u}) {
            RowIds row;
            row.name =
                mix_name + "@" + std::to_string(channels) + "ch";
            for (SchedulerKind s : schedulers) {
                SystemConfig config =
                    SystemConfig::paperDefault(threads);
                const MappingScheme mapping = config.dram.mapping;
                config.dram = DramConfig::ddrSdram(channels);
                config.dram.mapping = mapping;
                config.scheduler = s;
                if (machine_on && !flags.getBool("power"))
                    config.dram.withPowerManagement();
                applyPowerFlags(flags, config);
                applyHammerFlags(flags, config);
                applyObservabilityFlags(flags, config);
                row.ids.push_back(runner.submitMix(config, mix));
            }
            rows.push_back(std::move(row));
        }
    }
    runner.run();

    const std::size_t hit_first_col = 1; // column order above
    for (const RowIds &row : rows) {
        std::vector<double> epi, ed2p;
        for (std::size_t id : row.ids) {
            const MixRun &r = runner.mixResult(id);
            std::uint64_t insts = 0;
            for (std::uint64_t c : r.run.committed)
                insts += c;
            const double energy = r.run.power.totalEnergy;
            epi.push_back(insts ? energy / static_cast<double>(insts)
                                : 0.0);
            const double cycles =
                static_cast<double>(r.run.measuredCycles);
            ed2p.push_back(energy * cycles * cycles);
        }
        const double base = ed2p[hit_first_col];
        for (double &v : ed2p)
            v = base > 0.0 ? v / base : 0.0;
        epi_table.addRow(row.name, epi);
        ed2p_table.addRow(row.name, ed2p);
    }

    std::printf("-- DRAM energy per committed instruction (nJ) --\n");
    epi_table.print("%10.4f");
    std::printf("-- ED2P normalized to Hit-first (same row) --\n");
    ed2p_table.print("%10.4f");
    return 0;
}
