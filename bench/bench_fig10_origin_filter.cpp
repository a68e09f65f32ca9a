/**
 * @file
 * Figure 10: percentage of code-origin checks remaining after the
 * filter CAM, for 32- and 64-entry CAMs.
 *
 * Paper shape: on average 92% of checks waived at 32 entries and 95%
 * at 64 (i.e. ~8% / ~5% of requests survive the filter).
 */

#include "bench_util.hh"

using namespace indra;

namespace
{

double
residualChecks(const net::DaemonProfile &profile, std::uint32_t cam,
               benchutil::ObsCollector &collector, std::size_t cell)
{
    SystemConfig cfg;
    cfg.filterCamEntries = cam;
    auto run = benchutil::runBenign(core::NodeConfig{cfg}, profile, 3, 8,
                                    collector.traceFor(cell));
    collector.snapshot(cell,
                       profile.name + ".cam" + std::to_string(cam),
                       run.system->rootStats());
    auto &filter = run.serviceSlot().core->filterCam();
    return filter.missRatio() * 100.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig10_origin_filter",
                            "Figure 10: code-origin checks surviving CAM filtering");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig cfg;
    benchutil::printHeader(
        "Figure 10: % of code-origin checks after CAM filtering", cfg);

    benchutil::printCols({"32-entry", "64-entry"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig10_origin_filter",
                                      cli.obs());
    collector.resize(daemons.size());
    struct Row { double r32, r64; };
    auto rows = sweep.run(daemons.size(), [&](std::size_t i) {
        return Row{residualChecks(daemons[i], 32, collector, i),
                   residualChecks(daemons[i], 64, collector, i)};
    });
    double s32 = 0, s64 = 0;
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name, {rows[i].r32, rows[i].r64});
        s32 += rows[i].r32;
        s64 += rows[i].r64;
    }
    std::size_t n = daemons.size();
    benchutil::printRow("average", {s32 / n, s64 / n});
    std::cout << "\npaper: average 8% residual at 32 entries, 5% at 64"
              << std::endl;
    collector.write();
    return 0;
}
