/**
 * @file
 * Figure 11: service response-time overhead of INDRA monitoring
 * (backup and rollback excluded, exactly as in the paper).
 *
 * Paper shape: a small percentage for every daemon (all below ~10%).
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig11_monitor_overhead",
                            "Figure 11: monitoring overhead on service response time");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig base;
    base.monitorEnabled = false;
    base.checkpointScheme = CheckpointScheme::None;
    SystemConfig monitored = base;
    monitored.monitorEnabled = true;

    benchutil::printHeader(
        "Figure 11: monitoring overhead on service response time (%)",
        monitored);

    benchutil::printCols({"overhead_%"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig11_monitor_overhead",
                                      cli.obs());
    collector.resize(daemons.size());
    auto overheads = sweep.run(daemons.size(), [&](std::size_t i) {
        auto off = benchutil::runBenign(core::NodeConfig{base}, daemons[i], 3, 8);
        auto on = benchutil::runBenign(core::NodeConfig{monitored}, daemons[i], 3, 8,
                                       collector.traceFor(i));
        collector.snapshot(i, daemons[i].name,
                           on.system->rootStats());
        return (on.totalResponse() / off.totalResponse() - 1.0) * 100.0;
    });
    double sum = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name, {overheads[i]});
        sum += overheads[i];
    }
    benchutil::printRow("average", {sum / daemons.size()});
    std::cout << "\npaper: all daemons below ~10% overhead"
              << std::endl;
    collector.write();
    return 0;
}
