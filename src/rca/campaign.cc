#include "rca/campaign.hh"

#include <cstdlib>

#include "core/system.hh"
#include "net/daemon_profile.hh"
#include "os/kernel.hh"
#include "rca/replay.hh"
#include "sim/logging.hh"

namespace indra::rca
{

std::vector<net::ServiceRequest>
scenarioRequests(const check::Scenario &sc)
{
    std::vector<net::ServiceRequest> requests;
    requests.reserve(sc.requestCount());
    // 0-based seqs, matching what NodeHandle stamps on injected
    // arrivals: dormant-damage surfacing reads req.seq, so both runs
    // must number the schedule identically.
    std::uint64_t seq = 0;
    for (const check::ScenarioStep &step : sc.steps) {
        for (std::uint32_t r = 0; r < step.repeat; ++r) {
            net::ServiceRequest req;
            req.seq = seq++;
            req.attack = step.attack;
            requests.push_back(req);
        }
    }
    return requests;
}

namespace
{

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
    CampaignResult res;
    std::vector<net::ServiceRequest> requests = scenarioRequests(sc);
    res.requests = requests.size();

    // ------------------------------------------------- faulted run
    core::IndraSystem sys(check::nodeConfigFor(sc));
    sys.boot();

    net::DaemonProfile profile = net::daemonByName(sc.daemon);
    profile.instrPerRequest = sc.instrPerRequest;
    std::size_t slot = sys.deployService(profile);

    const faults::FaultInjector *inj = sys.faultInjector();
    res.windows.reserve(requests.size());
    for (const net::ServiceRequest &req : requests) {
        std::size_t sites0 = inj ? inj->sites().size() : 0;
        std::uint64_t corrupt0 = slotCorruptionDetected(sys.slot(slot));

        net::RequestOutcome out = sys.processRequest(slot, req);

        WindowRecord w;
        w.seq = req.seq;
        w.attack = req.attack;
        w.status = out.status;
        w.violation = out.violation;
        w.startTick = out.startTick;
        w.endTick = out.endTick;
        w.failTick = out.failTick;
        w.sitesBegin = sites0;
        w.sitesEnd = inj ? inj->sites().size() : 0;
        w.corruptionDelta =
            slotCorruptionDetected(sys.slot(slot)) - corrupt0;
        res.windows.push_back(w);
    }

    if (inj) {
        res.sites = inj->sites();
        res.injectedTotal = res.sites.size();
    }

    if (!rcfg.replay)
        return res;

    // ------------------------------------------------ golden replay
    GoldenRun golden =
        ReplayDetector::rerun(sc, requests, rcfg.memoryAudit);
    fatal_if(golden.windows.size() != res.windows.size(),
             "golden replay window count mismatch: faulted ",
             res.windows.size(), ", golden ", golden.windows.size());
    res.replayed = true;

    // ------------------------------------------- window comparison
    for (std::size_t i = 0; i < res.windows.size(); ++i) {
        const WindowRecord &w = res.windows[i];
        const GoldenWindow &g = golden.windows[i];
        fatal_if(w.seq != g.seq, "golden replay seq skew at window ",
                 i, ": faulted ", w.seq, ", golden ", g.seq);

        Cycles faultedCycles = w.endTick - w.startTick;
        Cycles skew = absDelta(faultedCycles, g.windowCycles);
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
        f.replayLatency = g.windowCycles;
        res.failures.push_back(f);
    }

    // --------------------------------------------- memory audit
    if (rcfg.memoryAudit) {
        Pid pid = sys.slot(slot).pid;
        const os::Process &proc = sys.kernel().process(pid);
        check::RefMemory faultedImage;
        faultedImage.captureFrom(*proc.space, sys.physMem());
        res.memoryDiverged =
            faultedImage.pages() != golden.finalImage.pages();

        // Silent corruption: the final image diverged but no window
        // ever did — nothing in-band, nothing in the per-window
        // replay compare. Surface it as one synthesized escaped
        // failure attributed to the last injection.
        if (res.memoryDiverged && res.failures.empty() &&
            !res.windows.empty()) {
            Failure f;
            f.seq = res.windows.back().seq;
            f.attack = res.windows.back().attack;
            attachSite(f, res.sites, res.sites.size());
            f.detectedByMonitor = false;
            f.silent = true;
            f.escaped = true;
            f.replayLatency = golden.totalCycles;
            res.failures.push_back(f);
        }
    }

    return res;
}

} // namespace indra::rca
