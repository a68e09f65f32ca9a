/**
 * @file
 * Figure 12: impact of the shared trace-FIFO size on normalized
 * service response time (averaged over the six daemons).
 *
 * Paper shape: a 16-entry queue noticeably stalls the resurrectees;
 * performance saturates from 32 entries up.
 */

#include "bench_util.hh"

using namespace indra;

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_fig12_queue_size",
                            "Figure 12: normalized response time vs trace-FIFO size");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    const std::vector<std::uint32_t> sizes = {8, 16, 24, 32, 48, 64};

    SystemConfig cfg;
    cfg.checkpointScheme = CheckpointScheme::None;
    benchutil::printHeader(
        "Figure 12: normalized response time vs trace-FIFO size", cfg);

    // Per-size mean response across daemons, normalized to the
    // largest queue. One sweep cell per (size, daemon) pair.
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_fig12_queue_size",
                                      cli.obs());
    collector.resize(sizes.size() * daemons.size());
    auto cellMeans =
        sweep.run(sizes.size() * daemons.size(), [&](std::size_t i) {
            SystemConfig c = cfg;
            c.traceFifoEntries = sizes[i / daemons.size()];
            auto run = benchutil::runBenign(
                core::NodeConfig{c}, daemons[i % daemons.size()], 2, 5,
                collector.traceFor(i));
            collector.snapshot(
                i,
                daemons[i % daemons.size()].name + ".fifo" +
                    std::to_string(c.traceFifoEntries),
                run.system->rootStats());
            return run.meanResponse();
        });
    std::vector<double> means;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        double total = 0;
        for (std::size_t d = 0; d < daemons.size(); ++d)
            total += cellMeans[s * daemons.size() + d];
        means.push_back(total / daemons.size());
    }

    std::cout << std::left << std::setw(12) << "entries"
              << std::right << std::setw(14) << "normalized"
              << std::setw(18) << "stall_cycles/req" << "\n";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::cout << std::left << std::setw(12) << sizes[i]
                  << std::right << std::setw(14) << std::fixed
                  << std::setprecision(4) << means[i] / means.back()
                  << "\n";
    }
    std::cout << "\npaper: 16 entries too small; saturation at >= 32"
              << std::endl;
    collector.write();
    return 0;
}
