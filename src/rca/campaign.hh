/**
 * @file
 * The rca campaign runner: one request-window driver, run twice —
 * faulted, and on a fault-free golden twin (RepTFD-style replay
 * detection) — and the per-window comparison that turns "this cell
 * failed" into "this component's fault at this site became this
 * failure, detected by these detectors at these latencies".
 *
 * Both runs step the same core::NodeHandle (guard admission, probes
 * and proactive rejuvenation included), one request window at a
 * time, so a window differs only when an injection made it differ.
 * The golden window's cycles are the replay detector's detection
 * latency for a divergence found there, and the final memory images
 * of the two runs are diffed to catch silent corruption no window
 * ever showed.
 *
 * A campaign cell is a check::Scenario (pure value of its seed), so
 * every result here is a pure function of (scenario, RcaConfig) and
 * ParallelSweep cells stay bit-identical for any --jobs count.
 */

#ifndef INDRA_RCA_CAMPAIGN_HH
#define INDRA_RCA_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "check/scenario.hh"
#include "rca/attribution.hh"
#include "rca/rca_config.hh"

namespace indra::rca
{

/** Everything one campaign cell concluded. */
struct CampaignResult
{
    /** Faulted-run windows, in execution order. */
    std::vector<WindowRecord> windows;
    /** The injector's site log, copied out of the faulted system. */
    std::vector<faults::FaultSite> sites;
    /** Outcomes the fault turned into failures (divergences). */
    std::vector<Failure> failures;
    /** Injections fired (== sites.size(); cross-checked). */
    std::uint64_t injectedTotal = 0;
    /** Final faulted memory != final golden memory. */
    bool memoryDiverged = false;
    /** Requests executed (one per window). */
    std::uint64_t requests = 0;
};

/**
 * Run the campaign cell: faulted run, golden twin, window
 * comparison, site attribution, and the final-state memory audit.
 */
CampaignResult runCampaign(const check::Scenario &sc,
                           const RcaConfig &rcfg);

} // namespace indra::rca

#endif // INDRA_RCA_CAMPAIGN_HH
