/**
 * @file
 * Figure 15: percentage of cache lines actually backed up out of all
 * the lines of the pages touched per request — the reason delta
 * backup beats page-granularity schemes by orders of magnitude.
 *
 * Paper shape: modest fractions for all daemons, bind by far the
 * heaviest writer (~45%), the rest mostly 10-25%.
 */

#include "bench_util.hh"

#include "checkpoint/delta_backup.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig15_dirty_lines",
                            "Figure 15: touched-page lines requiring backup");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig cfg;
    cfg.monitorEnabled = false;
    cfg.checkpointScheme = CheckpointScheme::DeltaBackup;
    benchutil::printHeader(
        "Figure 15: % of touched-page lines requiring backup", cfg);

    benchutil::printCols({"dirty_lines_%", "pages/request"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig15_dirty_lines",
                                      cli.obs());
    collector.resize(daemons.size());
    struct Row { double ratio, pages; };
    auto rows = sweep.run(daemons.size(), [&](std::size_t i) {
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, daemons[i], 2, 8,
                                        collector.traceFor(i));
        collector.snapshot(i, daemons[i].name,
                           run.system->rootStats());
        auto *delta = dynamic_cast<ckpt::DeltaBackup *>(
            run.serviceSlot().policy.get());
        return Row{delta->dirtyLineRatio().mean() * 100.0,
                   delta->pagesPerRequest().mean()};
    });
    double sum = 0;
    double page_sum = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name,
                            {rows[i].ratio, rows[i].pages});
        sum += rows[i].ratio;
        page_sum += rows[i].pages;
    }
    std::size_t n = daemons.size();
    benchutil::printRow("average", {sum / n, page_sum / n});
    std::cout << "\npaper: bind ~45%, others mostly 10-25%"
              << std::endl;
    collector.write();
    return 0;
}
