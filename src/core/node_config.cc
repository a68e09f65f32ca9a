#include "core/node_config.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <type_traits>

#include "sim/config_reader.hh"
#include "sim/logging.hh"

namespace indra::core
{

namespace
{

using Apply = std::function<void(NodeConfig &, const std::string &key,
                                 const std::string &value)>;

/** One settable key and how its value lands in a NodeConfig. */
struct Setting
{
    const char *key;
    Apply apply;
};

using resilience::RejuvenationConfig;
using resilience::ResilienceConfig;

/** The member of @p node that holds an @p Owner. */
template <typename Owner> Owner &owner(NodeConfig &node);
template <> SystemConfig &owner(NodeConfig &n) { return n.system; }
template <> ResilienceConfig &owner(NodeConfig &n) { return n.resilience; }
template <>
RejuvenationConfig &
owner(NodeConfig &n)
{
    return n.resilience.rejuvenation;
}
template <>
adversary::AdversaryConfig &
owner(NodeConfig &n)
{
    return n.adversary;
}
template <> rca::RcaConfig &owner(NodeConfig &n) { return n.rca; }

constexpr double inf = std::numeric_limits<double>::infinity();

/** An unsigned field: at least @p min, at most what the field holds. */
template <typename Owner, typename T>
Apply
whole(T Owner::*field, std::uint64_t min = 0)
{
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
    return [field, min](NodeConfig &n, const std::string &k,
                        const std::string &v) {
        owner<Owner>(n).*field = static_cast<T>(
            parseUnsigned(k, v, min, std::numeric_limits<T>::max()));
    };
}

/** A real field in [lo, hi], or (lo, hi] when @p lo_open. */
template <typename Owner>
Apply
real(double Owner::*field, double lo, double hi, bool lo_open = false)
{
    return [=](NodeConfig &n, const std::string &k,
               const std::string &v) {
        owner<Owner>(n).*field = parseReal(k, v, lo, hi, lo_open);
    };
}

/** A boolean field. */
template <typename Owner>
Apply
flag(bool Owner::*field)
{
    return [field](NodeConfig &n, const std::string &k,
                   const std::string &v) {
        owner<Owner>(n).*field = parseFlag(k, v);
    };
}

/** One client class's entry of a per-class rate table, >= 0. */
Apply
perClass(std::array<double, net::clientClassCount> ResilienceConfig::*table,
         net::ClientClass c)
{
    return [=](NodeConfig &n, const std::string &k,
               const std::string &v) {
        (n.resilience.*table)[static_cast<std::size_t>(c)] =
            parseReal(k, v, 0.0, inf);
    };
}

const std::vector<Setting> &
settingsTable()
{
    using net::ClientClass;
    using S = SystemConfig;
    using A = adversary::AdversaryConfig;
    using R = ResilienceConfig;
    using J = RejuvenationConfig;
    using C = rca::RcaConfig;

    static const std::vector<Setting> table = {
        // ------------------------------------- SystemConfig (Table 4)
        {"numResurrectees", whole(&S::numResurrectees)},
        {"fetchWidth", whole(&S::fetchWidth)},
        {"commitWidth", whole(&S::commitWidth)},
        {"coreClockMHz", whole(&S::coreClockMHz)},
        {"physMemBytes", whole(&S::physMemBytes)},
        {"asymmetricMode", flag(&S::asymmetricMode)},
        {"traceFifoEntries", whole(&S::traceFifoEntries)},
        {"filterCamEntries", whole(&S::filterCamEntries)},
        {"codeOriginCheckCycles", whole(&S::codeOriginCheckCycles)},
        {"callReturnCheckCycles", whole(&S::callReturnCheckCycles)},
        {"ctrlTransferCheckCycles", whole(&S::ctrlTransferCheckCycles)},
        {"recordDequeueCycles", whole(&S::recordDequeueCycles)},
        {"checkpointScheme",
         [](NodeConfig &n, const std::string &k, const std::string &v) {
             n.system.checkpointScheme = checkpointSchemeFromName(v, k);
         }},
        {"backupLineBytes", whole(&S::backupLineBytes)},
        {"monitorEnabled", flag(&S::monitorEnabled)},
        {"sharedResurrector", flag(&S::sharedResurrector)},
        {"eagerRollback", flag(&S::eagerRollback)},
        {"backupRecordFetchCycles", whole(&S::backupRecordFetchCycles)},
        {"rollbackArmCycles", whole(&S::rollbackArmCycles)},
        {"pageRemapCycles", whole(&S::pageRemapCycles)},
        {"logUndoCycles", whole(&S::logUndoCycles)},
        {"logAppendCycles", whole(&S::logAppendCycles)},
        {"writeProtectFaultCycles", whole(&S::writeProtectFaultCycles)},
        {"pageCopySetupCycles", whole(&S::pageCopySetupCycles)},
        {"macroCheckpointPeriod", whole(&S::macroCheckpointPeriod)},
        {"consecutiveFailureThreshold",
         whole(&S::consecutiveFailureThreshold)},
        {"recoveryInterruptCycles", whole(&S::recoveryInterruptCycles)},
        {"serviceRestartCycles", whole(&S::serviceRestartCycles)},
        {"rngSeed", whole(&S::rngSeed)},

        // ------------------------------------------------ fault plan
        {"faults.plan",
         [](NodeConfig &n, const std::string &k, const std::string &v) {
             n.faults = faults::FaultPlan::parse(v, n.faults.seed(), k);
         }},

        // --------------------------------------------- domain rewind
        {"domain.count", whole(&S::domainCount)},
        {"domain.rewind_setup_cycles", whole(&S::domainRewindSetupCycles)},
        {"domain.heal_streak", whole(&R::domainHealStreak, 1)},

        // ------------------------------------------ adaptive attacker
        {"adversary.strategy",
         [](NodeConfig &n, const std::string &k, const std::string &v) {
             n.adversary.strategy = adversary::adversaryStrategyFromName(v, k);
             n.adversary.armed = true;
         }},
        {"adversary.budget", whole(&A::budget)},
        {"adversary.burst", whole(&A::burstLen, 1)},
        {"adversary.spacing", whole(&A::burstSpacing)},
        {"adversary.gap", whole(&A::baseGap, 1)},
        {"adversary.payload",
         [](NodeConfig &n, const std::string &k, const std::string &v) {
             n.adversary.payload = net::attackKindFromName(v, k);
         }},
        {"adversary.occupancy_fraction",
         real(&A::occupancyFraction, 0.0, 1.0)},
        {"adversary.gap_factor",
         real(&A::gapFactor, 0.0, inf, /*lo_open=*/true)},
        {"adversary.min_gap", whole(&A::minGap)},
        {"adversary.reinfect_delay", whole(&A::reinfectDelay)},

        // ---------------------------------------- overload resilience
        {"resilience.queue_bound", whole(&R::queueBound)},
        {"resilience.tokens.standard",
         perClass(&R::tokensPerMCycle, ClientClass::Standard)},
        {"resilience.tokens.bulk",
         perClass(&R::tokensPerMCycle, ClientClass::Bulk)},
        {"resilience.tokens.probe",
         perClass(&R::tokensPerMCycle, ClientClass::Probe)},
        {"resilience.burst.standard",
         perClass(&R::tokenBurst, ClientClass::Standard)},
        {"resilience.burst.bulk",
         perClass(&R::tokenBurst, ClientClass::Bulk)},
        {"resilience.burst.probe",
         perClass(&R::tokenBurst, ClientClass::Probe)},
        {"resilience.fifo_high_water",
         whole(&R::fifoHighWater)},
        {"resilience.fifo_low_water", whole(&R::fifoLowWater)},
        {"resilience.degrade_violations",
         whole(&R::degradeViolations)},
        {"resilience.quarantine_fail_streak",
         whole(&R::quarantineFailStreak)},
        {"resilience.heal_served_streak",
         whole(&R::healServedStreak)},
        {"resilience.degrade_queue_fraction",
         real(&R::degradeQueueFraction, 0.0, 1.0)},
        {"resilience.resource_pressure_pages",
         whole(&R::resourcePressurePages)},

        // -------------------------------------- proactive rejuvenation
        {"rejuvenation.trigger",
         [](NodeConfig &n, const std::string &k, const std::string &v) {
             n.resilience.rejuvenation.trigger =
                 resilience::rejuvenationTriggerFromName(v, k);
         }},
        {"rejuvenation.period", whole(&J::period, 1)},
        {"rejuvenation.epochs", whole(&J::epochLimit, 1)},
        {"rejuvenation.threshold",
         real(&J::suspicionThreshold, 0.0, inf, /*lo_open=*/true)},
        {"rejuvenation.decay",
         real(&J::suspicionDecay, 0.0, inf)},
        {"rejuvenation.cooldown", whole(&J::cooldown)},

        // ------------------------------------------ root-cause analysis
        {"rca.latency_slack", whole(&C::latencySlack)},
        {"rca.shrink_budget", whole(&C::shrinkBudget)},
        {"rca.max_reproducers", whole(&C::maxReproducers)},
    };
    return table;
}

/** The fatal for an unknown key, listing its dotted family if any. */
[[noreturn]] void
unknownKey(const std::string &key)
{
    std::size_t dot = key.find('.');
    std::string family = dot == std::string::npos
                             ? std::string()
                             : key.substr(0, dot + 1);
    std::string known;
    for (const Setting &s : settingsTable()) {
        std::string k = s.key;
        if (!family.empty() && k.rfind(family, 0) == 0)
            known += (known.empty() ? "" : ", ") + k.substr(dot + 1);
    }
    if (!known.empty())
        fatal("unknown node setting '", key, "' (", family,
              "* keys: ", known, ")");
    fatal("unknown node setting '", key,
          "' (expected a SystemConfig field or a dotted faults./domain./"
          "adversary./resilience./rejuvenation./rca. key)");
}

} // anonymous namespace

void
applyNodeSetting(NodeConfig &node, const std::string &key,
                 const std::string &value)
{
    for (const Setting &s : settingsTable()) {
        if (key == s.key) {
            fatal_if(value.empty(), "setting '", key, "': empty value");
            s.apply(node, key, value);
            return;
        }
    }
    unknownKey(key);
}

void
applyNodeSettings(NodeConfig &node,
                  const std::vector<std::string> &settings)
{
    for (const std::string &tok : settings) {
        std::size_t eq = tok.find('=');
        fatal_if(eq == std::string::npos,
                 "node setting '", tok, "' is not key=value");
        applyNodeSetting(node, tok.substr(0, eq), tok.substr(eq + 1));
    }
}

std::vector<std::string>
nodeSettingKeys()
{
    std::vector<std::string> keys;
    for (const Setting &s : settingsTable())
        keys.push_back(s.key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace indra::core
