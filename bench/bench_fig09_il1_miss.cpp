/**
 * @file
 * Figure 9: L1 instruction-cache miss rate per daemon.
 *
 * Paper shape: low single-digit percentages for all six daemons
 * (roughly 0.5-4.5%), bind and nfs at the high end, average ~2%.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig09_il1_miss",
                            "Figure 9: L1 instruction cache miss rate");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader(
        "Figure 9: L1 instruction cache miss rate (%)", cfg);

    benchutil::printCols({"il1_miss_%"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig09_il1_miss",
                                      cli.obs());
    collector.resize(daemons.size());
    auto rates = sweep.run(daemons.size(), [&](std::size_t i) {
        auto run = benchutil::runBenign(core::NodeConfig{cfg}, daemons[i], 3, 10,
                                        collector.traceFor(i));
        collector.snapshot(i, daemons[i].name,
                           run.system->rootStats());
        // Miss rate per instruction fetch: sequential fetches within
        // an already-resident line always hit.
        double instr = static_cast<double>(
            run.serviceSlot().core->instructions());
        return instr > 0
            ? run.serviceSlot().hierarchy->l1iCache().misses() /
                instr * 100.0
            : 0.0;
    });
    double sum = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name, {rates[i]});
        sum += rates[i];
    }
    benchutil::printRow("average", {sum / daemons.size()});
    collector.write();
    return 0;
}
