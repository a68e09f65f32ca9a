#include "rca/campaign.hh"

#include <algorithm>

#include "check/ref_models.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "os/kernel.hh"
#include "sim/logging.hh"

namespace indra::rca
{

namespace
{

/** One drive of a scenario's request schedule through NodeHandle. */
struct WindowRun
{
    std::vector<WindowRecord> windows;
    /** The injector's site log (empty when no fault is armed). */
    std::vector<faults::FaultSite> sites;
    /** Final service memory image. */
    check::RefMemory finalImage;
};

std::uint64_t
slotCorruptionDetected(const core::ServiceSlot &s)
{
    std::uint64_t n = 0;
    if (s.policy)
        n += s.policy->corruptionDetected();
    if (s.macro)
        n += s.macro->corruptionDetected();
    return n;
}

/**
 * Build and boot @p node, deploy @p sc's daemon, and drive every
 * step x repeat of @p sc as one isolated request window: inject at
 * the core's current tick (arrival == service start, so a window's
 * cycles are the cost of exactly that request with no queueing
 * credit), then advance far enough to drain the request and every
 * recovery and guard probe it triggers.
 */
WindowRun
driveWindows(const check::Scenario &sc, const core::NodeConfig &node)
{
    core::IndraSystem sys(node);
    sys.boot();

    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);
    const faults::FaultInjector *inj = sys.faultInjector();

    // legitRequests == 0: every window arrives through inject(), so
    // the handle schedules no storm traffic of its own and stamps
    // seqs in execution order, probes included.
    resilience::StormPlan plan;
    plan.seed = sc.seed;
    plan.legitRequests = 0;
    core::NodeHandle h(sys, slot, plan);
    h.collectEvents(true);
    const Tick farFuture = Tick(1) << 62;

    WindowRun run;
    run.windows.reserve(sc.requestCount());
    // Requests executed so far: the seq the handle stamps next.
    std::uint64_t executed = 0;
    for (const check::ScenarioStep &step : sc.steps) {
        for (std::uint32_t r = 0; r < step.repeat; ++r) {
            std::size_t sites0 = inj ? inj->sites().size() : 0;
            std::uint64_t corrupt0 =
                slotCorruptionDetected(sys.slot(slot));

            net::ServiceRequest req;
            req.attack = step.attack;
            Tick start = h.now();
            h.inject(start, req, /*legit=*/false);
            h.advanceTo(farFuture);

            // Guard probes the window triggered drain after the
            // request itself; the window's outcome is its own event.
            std::vector<core::NodeEvent> events = h.drainEvents();
            auto own = std::find_if(
                events.begin(), events.end(),
                [](const core::NodeEvent &ev) { return !ev.probe; });
            fatal_if(own == events.end(), "rca window ",
                     run.windows.size(), " (seq ", executed,
                     ") drained no completion event of its own");
            executed += events.size();

            WindowRecord w;
            w.seq = own->seq;
            w.attack = step.attack;
            w.status = own->status;
            w.violation = own->violation;
            w.startTick = start;
            w.endTick = own->tick;
            w.failTick = own->failTick;
            w.sitesBegin = sites0;
            w.sitesEnd = inj ? inj->sites().size() : 0;
            w.corruptionDelta =
                slotCorruptionDetected(sys.slot(slot)) - corrupt0;
            run.windows.push_back(w);
        }
    }

    if (inj)
        run.sites = inj->sites();
    const os::Process &proc = sys.kernel().process(sys.slot(slot).pid);
    run.finalImage.captureFrom(*proc.space, sys.physMem());
    return run;
}

Cycles
absDelta(Cycles a, Cycles b)
{
    return a > b ? a - b : b - a;
}

/** Fill a Failure's site fields from the nearest prior injection. */
void
attachSite(Failure &f, const std::vector<faults::FaultSite> &sites,
           std::size_t sites_end)
{
    const faults::FaultSite *site = attributeSite(sites, sites_end);
    if (!site)
        return;
    f.hasSite = true;
    f.siteIndex = static_cast<std::size_t>(site - sites.data());
    f.kind = site->kind;
    f.component = site->component;
    f.siteTick = site->tick;
    f.siteStreamPos = site->streamPos;
}

} // anonymous namespace

CampaignResult
runCampaign(const check::Scenario &sc, const RcaConfig &rcfg)
{
    // The golden twin is the same node recipe with faults stripped:
    // identical rngSeed, scheme, and daemon, so any window that
    // differs is caused by an injection, not by build skew.
    core::NodeConfig node = check::nodeConfigFor(sc);
    WindowRun faulted = driveWindows(sc, node);
    node.faults = faults::FaultPlan{};
    WindowRun golden = driveWindows(sc, node);

    CampaignResult res;
    res.windows = std::move(faulted.windows);
    res.sites = std::move(faulted.sites);
    res.injectedTotal = res.sites.size();
    res.requests = res.windows.size();

    // ------------------------------------------- window comparison
    // Windows pair by index: both runs drive the same schedule, but
    // guard probes (which the faults may change) consume seqs.
    Cycles goldenTotal = 0;
    for (std::size_t i = 0; i < res.windows.size(); ++i) {
        const WindowRecord &w = res.windows[i];
        const WindowRecord &g = golden.windows[i];
        Cycles goldenCycles = g.endTick - g.startTick;
        goldenTotal += goldenCycles;

        Cycles skew = absDelta(w.endTick - w.startTick, goldenCycles);
        bool diverged = w.status != g.status ||
                        w.violation != g.violation ||
                        skew > rcfg.latencySlack;
        if (!diverged)
            continue;

        Failure f;
        f.seq = w.seq;
        f.attack = w.attack;
        attachSite(f, res.sites, w.sitesEnd);
        f.detectedByMonitor =
            w.failTick != 0 || w.corruptionDelta > 0;
        f.escaped = !f.detectedByMonitor;
        f.monitorLatency =
            w.failTick != 0 ? w.failTick - w.startTick : 0;
        f.replayLatency = goldenCycles;
        res.failures.push_back(f);
    }

    // --------------------------------------------- memory audit
    res.memoryDiverged =
        faulted.finalImage.pages() != golden.finalImage.pages();

    // Silent corruption: the final image diverged but no window ever
    // did — nothing in-band, nothing in the per-window compare.
    // Surface it as one synthesized escaped failure attributed to the
    // last injection.
    if (res.memoryDiverged && res.failures.empty() &&
        !res.windows.empty()) {
        Failure f;
        f.seq = res.windows.back().seq;
        f.attack = res.windows.back().attack;
        attachSite(f, res.sites, res.sites.size());
        f.detectedByMonitor = false;
        f.silent = true;
        f.escaped = true;
        f.replayLatency = goldenTotal;
        res.failures.push_back(f);
    }

    return res;
}

} // namespace indra::rca
