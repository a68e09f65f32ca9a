/**
 * @file
 * Figure 14: response-time slowdown when dirty pages are backed up
 * with conventional virtual checkpointing (whole-page copy on
 * demand), normalized to a run without any backup.
 *
 * Paper shape: large slowdowns (multiples, 2-14x), dominated by
 * page-to-page copying; worst for short-request / many-page daemons.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig14_page_copy_slowdown",
                            "Figure 14: slowdown with page-copy virtual checkpointing");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig paged = base;
    paged.checkpointScheme = CheckpointScheme::VirtualCheckpoint;

    benchutil::printHeader(
        "Figure 14: slowdown with page-copy virtual checkpointing",
        paged);

    benchutil::printCols({"slowdown_x"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig14_page_copy_slowdown",
                                      cli.obs());
    collector.resize(daemons.size());
    auto slowdowns = sweep.run(daemons.size(), [&](std::size_t i) {
        auto off = benchutil::runBenign(core::NodeConfig{base}, daemons[i], 2, 6);
        auto on = benchutil::runBenign(core::NodeConfig{paged}, daemons[i], 2, 6,
                                       collector.traceFor(i));
        collector.snapshot(i, daemons[i].name,
                           on.system->rootStats());
        return on.totalResponse() / off.totalResponse();
    });
    double sum = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name, {slowdowns[i]});
        sum += slowdowns[i];
    }
    benchutil::printRow("average", {sum / daemons.size()});
    std::cout << "\npaper: multi-x slowdowns (roughly 2-14x)"
              << std::endl;
    collector.write();
    return 0;
}
