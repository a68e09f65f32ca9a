/**
 * @file
 * Ablation: rollback-on-demand (the paper's design) vs eager rollback
 * at recovery time.
 *
 * Eager rollback pays the whole restoration cost on the recovery
 * critical path — exactly what INDRA's concurrent arming avoids
 * ("without the overhead of an explicit memory rollback",
 * Section 3.3.1). Measures time from detection to the completion of
 * the next benign response.
 */

#include "bench_util.hh"

using namespace indra;

namespace
{

/** Ticks from attack start to the next benign response completing. */
double
recoveryToNextResponse(const SystemConfig &cfg,
                       const net::DaemonProfile &profile,
                       benchutil::ObsCollector &collector,
                       std::size_t cell, const std::string &label)
{
    core::IndraSystem sys(core::NodeConfig{cfg});
    sys.attachTraceLog(collector.traceFor(cell));
    sys.boot();
    std::size_t slot = sys.deployService(profile);
    sys.runScript(net::ClientScript::benign(2), slot);

    net::ServiceRequest bad;
    bad.seq = 3;
    bad.attack = net::AttackKind::DosFlood;
    auto attacked = sys.processRequest(slot, bad);

    net::ServiceRequest next;
    next.seq = 4;
    auto served = sys.processRequest(slot, next);
    collector.snapshot(cell, label, sys.rootStats());
    return static_cast<double>(served.endTick - attacked.startTick);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    benchutil::BenchCli cli("bench_abl_eager_rollback",
                            "Ablation: rollback on demand vs eager rollback");
    cli.obsPreset();
    auto sweep = cli.parse(argc, argv);
    SystemConfig lazy;
    lazy.monitorEnabled = false;
    SystemConfig eager = lazy;
    eager.eagerRollback = true;

    benchutil::printHeader(
        "Ablation: rollback on demand vs eager rollback", lazy);

    benchutil::printCols({"lazy_cycles", "eager_cycles", "eager/lazy"});
    const auto &daemons = net::standardDaemons();
    benchutil::ObsCollector collector("bench_abl_eager_rollback",
                                      cli.obs());
    collector.resize(daemons.size());
    struct Row { double tl, te; };
    auto rows = sweep.run(daemons.size(), [&](std::size_t i) {
        std::string name = daemons[i].name;
        return Row{recoveryToNextResponse(lazy, daemons[i], collector,
                                          i, name + ".lazy"),
                   recoveryToNextResponse(eager, daemons[i], collector,
                                          i, name + ".eager")};
    });
    for (std::size_t i = 0; i < daemons.size(); ++i) {
        benchutil::printRow(daemons[i].name,
                            {rows[i].tl, rows[i].te,
                             rows[i].te / rows[i].tl});
    }
    std::cout << "\nlazy recovery overlaps restoration with the next "
                 "request; eager pays it up front" << std::endl;
    collector.write();
    return 0;
}
