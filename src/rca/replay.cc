#include "rca/replay.hh"

#include <limits>

#include "core/node_handle.hh"
#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "os/kernel.hh"
#include "rca/campaign.hh"
#include "sim/logging.hh"

namespace indra::rca
{

GoldenRun
ReplayDetector::rerun(const check::Scenario &sc,
                      const std::vector<net::ServiceRequest> &requests,
                      bool capture_memory)
{
    // Same node recipe as the faulted run, faults stripped: the twin
    // sees the identical rngSeed, scheme, and daemon, so any window
    // that differs is caused by an injection, not by build skew.
    core::NodeConfig node = check::nodeConfigFor(sc);
    node.faults = faults::FaultPlan{};

    core::IndraSystem sys(node);
    sys.boot();

    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);

    // legitRequests == 0: every window arrives through inject(), so
    // the handle schedules no storm traffic of its own and re-stamps
    // seqs 0, 1, 2, ... in execution order — the same numbering the
    // faulted run used.
    resilience::StormPlan plan;
    plan.seed = sc.seed;
    plan.legitRequests = 0;

    core::NodeHandle h(sys, slot, plan);
    h.collectEvents(true);

    // Far past any completion tick, so one advanceTo drains the
    // whole window including every recovery it triggers.
    const Tick farFuture = Tick(1) << 62;

    GoldenRun run;
    run.windows.reserve(requests.size());
    for (const net::ServiceRequest &req : requests) {
        // Inject at the core's current tick: arrival == service
        // start, so the completion delta below is the re-execution
        // cost of exactly this window with no queueing credit.
        Tick start = h.now();
        h.inject(start, req, /*legit=*/false);
        h.advanceTo(farFuture);

        std::vector<core::NodeEvent> events = h.drainEvents();
        fatal_if(events.empty(),
                 "golden replay window produced no completion event");
        const core::NodeEvent &ev = events.back();

        GoldenWindow w;
        w.seq = ev.seq;
        w.status = ev.status;
        w.violation = ev.violation;
        w.windowCycles = ev.tick - start;
        w.endTick = ev.tick;
        run.windows.push_back(w);
        run.totalCycles += w.windowCycles;
    }

    if (capture_memory) {
        Pid pid = sys.slot(slot).pid;
        const os::Process &proc = sys.kernel().process(pid);
        run.finalImage.captureFrom(*proc.space, sys.physMem());
    }
    return run;
}

} // namespace indra::rca
