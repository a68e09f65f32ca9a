/**
 * @file
 * NodeConfig: everything one revivable node is built from, in one
 * aggregate, and the single settings table that reaches it.
 *
 * A node is a resurrector plus its resurrectees built from one set of
 * parameters: the SystemConfig (Table 4 plus the checkpoint scheme),
 * a fault plan, the overload-resilience and rejuvenation knobs, the
 * adaptive-attacker knobs its storms use, and the root-cause-analysis
 * knobs its campaigns use. A cluster stamps many identical nodes out
 * of one value and tweaks any knob from config alone.
 *
 * applyNodeSetting() is the only way to set a key. It looks the key
 * up in one flat table (node_config.cc) of {key, apply} entries; each
 * entry parses its value with one of the strict shared parsers of
 * sim/config_reader.hh (unsigned with the field's width as maximum,
 * real with a range, flag) or an enum's *FromName function. Keys are
 * SystemConfig field names ("traceFifoEntries") or dotted names
 * ("faults.plan", "domain.count", "adversary.budget",
 * "resilience.queue_bound", "rejuvenation.trigger",
 * "rca.latency_slack").
 * Unknown keys, empty values and malformed or out-of-range values are
 * fatal errors naming the key.
 *
 * A default NodeConfig follows the zero-cost-when-off contract: empty
 * fault plan, disarmed resilience, disarmed adversary.
 */

#ifndef INDRA_CORE_NODE_CONFIG_HH
#define INDRA_CORE_NODE_CONFIG_HH

#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary_config.hh"
#include "faults/fault_plan.hh"
#include "rca/rca_config.hh"
#include "resilience/resilience_config.hh"
#include "sim/config.hh"

namespace indra::core
{

/** One revivable node's complete build recipe. */
struct NodeConfig
{
    NodeConfig() = default;
    /**
     * Build from the three configs IndraSystem consumes, so a call
     * site spells NodeConfig{cfg, plan, rcfg} (or any prefix of it)
     * without partial-aggregate warnings.
     */
    explicit NodeConfig(SystemConfig system_cfg,
                        faults::FaultPlan fault_plan = {},
                        resilience::ResilienceConfig resilience_cfg = {})
        : system(std::move(system_cfg)), faults(std::move(fault_plan)),
          resilience(std::move(resilience_cfg))
    {
    }

    /** Hardware + checkpoint-scheme configuration (Table 4 knobs). */
    SystemConfig system;
    /** Fault-injection plan; empty (the default) creates no injector. */
    faults::FaultPlan faults;
    /** Overload-resilience knobs; disarmed by default. */
    resilience::ResilienceConfig resilience;
    /**
     * Default adaptive-attacker knobs for storms against this node.
     * IndraSystem itself never reads these; storm drivers seed
     * StormPlan.adversary from them so a fleet can arm its attackers
     * from the same dotted keys as everything else.
     */
    adversary::AdversaryConfig adversary;
    /**
     * Root-cause-analysis knobs for fault campaigns over this node.
     * Like the adversary block, IndraSystem never reads these; the
     * rca campaign runner and its benches consume them, and they live
     * here so `rca.*` keys sit in the same settings table.
     */
    rca::RcaConfig rca;
};

/**
 * Apply one "key=value" setting through the settings table. Unknown
 * keys, empty values and malformed values are fatal, naming @p key.
 */
void applyNodeSetting(NodeConfig &node, const std::string &key,
                      const std::string &value);

/**
 * Apply every "key=value" token in @p settings; tokens without '='
 * are fatal, as are unknown keys.
 */
void applyNodeSettings(NodeConfig &node,
                       const std::vector<std::string> &settings);

/** Every key of the settings table, in table order (--help text). */
std::vector<std::string> nodeSettingKeys();

} // namespace indra::core

#endif // INDRA_CORE_NODE_CONFIG_HH
