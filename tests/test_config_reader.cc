/** @file Tests for the NodeConfig settings table and its parsers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/node_config.hh"
#include "net/request.hh"
#include "sim/config_reader.hh"

using namespace indra;
using core::applyNodeSetting;
using core::NodeConfig;

TEST(ConfigReader, NumericSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "traceFifoEntries", "64");
    applyNodeSetting(node, "filterCamEntries", "128");
    applyNodeSetting(node, "rngSeed", "999");
    EXPECT_EQ(node.system.traceFifoEntries, 64u);
    EXPECT_EQ(node.system.filterCamEntries, 128u);
    EXPECT_EQ(node.system.rngSeed, 999u);
}

TEST(ConfigReader, BooleanSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "monitorEnabled", "false");
    EXPECT_FALSE(node.system.monitorEnabled);
    applyNodeSetting(node, "monitorEnabled", "yes");
    EXPECT_TRUE(node.system.monitorEnabled);
    applyNodeSetting(node, "eagerRollback", "1");
    EXPECT_TRUE(node.system.eagerRollback);
    applyNodeSetting(node, "sharedResurrector", "on");
    EXPECT_TRUE(node.system.sharedResurrector);
    // Every flag key takes every spelling.
    for (const char *yes : {"1", "true", "yes", "on"}) {
        applyNodeSetting(node, "eagerRollback", "0");
        applyNodeSetting(node, "eagerRollback", yes);
        EXPECT_TRUE(node.system.eagerRollback) << yes;
    }
    for (const char *no : {"0", "false", "no", "off"}) {
        applyNodeSetting(node, "asymmetricMode", "1");
        applyNodeSetting(node, "asymmetricMode", no);
        EXPECT_FALSE(node.system.asymmetricMode) << no;
    }
}

TEST(ConfigReader, SchemeSetting)
{
    NodeConfig node;
    applyNodeSetting(node, "checkpointScheme", "memory-update-log");
    EXPECT_EQ(node.system.checkpointScheme,
              CheckpointScheme::MemoryUpdateLog);
}

TEST(ConfigReader, SchemeNamesRoundTrip)
{
    for (CheckpointScheme s :
         {CheckpointScheme::None, CheckpointScheme::DeltaBackup,
          CheckpointScheme::VirtualCheckpoint,
          CheckpointScheme::MemoryUpdateLog,
          CheckpointScheme::SoftwareCheckpoint,
          CheckpointScheme::DomainRewind}) {
        EXPECT_EQ(checkpointSchemeFromName(checkpointSchemeName(s)), s);
    }
}

TEST(ConfigReader, DomainSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "checkpointScheme", "domain-rewind");
    applyNodeSetting(node, "domain.count", "8");
    applyNodeSetting(node, "domain.rewind_setup_cycles", "5000");
    EXPECT_EQ(node.system.checkpointScheme, CheckpointScheme::DomainRewind);
    EXPECT_EQ(node.system.domainCount, 8u);
    EXPECT_EQ(node.system.domainRewindSetupCycles, 5000u);
}

TEST(ConfigReaderDeath, BadSchemeIsFatal)
{
    // The error must name both the offending value and the setting
    // key it arrived through.
    EXPECT_DEATH(checkpointSchemeFromName("gzip"),
                 "setting 'checkpointScheme'.*unknown checkpoint "
                 "scheme 'gzip'");
}

TEST(ConfigReaderDeath, BadSchemeNamesTheOriginatingKey)
{
    EXPECT_DEATH(checkpointSchemeFromName("gzip", "scheme"),
                 "setting 'scheme'");
}

TEST(ConfigReaderDeath, BadSchemeViaSettingIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(
        applyNodeSetting(node, "checkpointScheme", "delta-bakcup"),
        "setting 'checkpointScheme'.*unknown checkpoint scheme");
}

TEST(ConfigReaderDeath, BadNumberIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "traceFifoEntries", "lots"),
                 "setting 'traceFifoEntries': 'lots' is not an "
                 "unsigned integer");
}

TEST(ConfigReaderDeath, BadBooleanIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "monitorEnabled", "maybe"),
                 "setting 'monitorEnabled': 'maybe' is not a boolean");
}

TEST(ConfigReaderDeath, TypoedConfigLikeKeyIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "traceFifoEntriesX", "48"),
                 "unknown node setting 'traceFifoEntriesX'");
}

TEST(ConfigReader, KnownKeysNonEmptyAndSorted)
{
    auto keys = core::nodeSettingKeys();
    EXPECT_EQ(keys.size(), 66u);
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(ConfigReader, AttackNamesRoundTrip)
{
    for (net::AttackKind k :
         {net::AttackKind::None, net::AttackKind::StackSmash,
          net::AttackKind::CodeInjection, net::AttackKind::FuncPtrHijack,
          net::AttackKind::FormatString, net::AttackKind::DosFlood,
          net::AttackKind::Dormant}) {
        EXPECT_EQ(net::attackKindFromName(net::attackKindName(k)), k);
    }
}

// Every registered key rejects malformed input with a fatal that
// names the key: no silent default, truncation, wrap or exception.
TEST(NodeSettingsDeathTest, EveryKeyRejectsMalformedValues)
{
    // Keys whose value is a real number: 2^64 is a valid real, so the
    // overflow case for them is 1e999 (past a double's range).
    const std::set<std::string> realKeys = {
        "adversary.occupancy_fraction", "adversary.gap_factor",
        "resilience.degrade_queue_fraction", "rejuvenation.threshold",
        "rejuvenation.decay", "resilience.tokens.standard",
        "resilience.tokens.bulk", "resilience.tokens.probe",
        "resilience.burst.standard", "resilience.burst.bulk",
        "resilience.burst.probe",
    };
    // Keys backed by 32-bit fields: 2^32 overflows them.
    const std::set<std::string> narrowKeys = {
        "numResurrectees", "fetchWidth", "commitWidth", "coreClockMHz",
        "traceFifoEntries", "filterCamEntries", "backupLineBytes",
        "consecutiveFailureThreshold", "domain.count",
        "domain.heal_streak", "adversary.burst",
        "resilience.queue_bound", "resilience.fifo_high_water",
        "resilience.fifo_low_water", "resilience.degrade_violations",
        "resilience.quarantine_fail_streak",
        "resilience.heal_served_streak",
    };
    const std::vector<std::string> keys = core::nodeSettingKeys();
    for (const std::string &k : realKeys)
        EXPECT_EQ(std::count(keys.begin(), keys.end(), k), 1) << k;
    for (const std::string &k : narrowKeys)
        EXPECT_EQ(std::count(keys.begin(), keys.end(), k), 1) << k;

    for (const std::string &key : keys) {
        std::vector<std::string> bad = {"", "x", "7x", "-1", "1e999"};
        if (!realKeys.count(key))
            bad.push_back("18446744073709551616");
        if (narrowKeys.count(key))
            bad.push_back("4294967296");
        for (const std::string &value : bad) {
            NodeConfig node;
            EXPECT_DEATH(applyNodeSetting(node, key, value),
                         "fatal: setting '" + key + "'")
                << key << "=" << value;
        }
    }
}

TEST(NodeSettingsDeathTest, FormerlySilentInputsAreNamedFatals)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "traceFifoEntries", "48x"),
                 "setting 'traceFifoEntries': '48x' is not an unsigned");
    EXPECT_DEATH(
        applyNodeSetting(node, "traceFifoEntries", "4294967328"),
        "setting 'traceFifoEntries': '4294967328' is out of range");
    EXPECT_DEATH(applyNodeSetting(node, "numResurrectees", "-1"),
                 "setting 'numResurrectees': '-1'");
    EXPECT_DEATH(applyNodeSetting(node, "rca.latency_slack", "-1"),
                 "setting 'rca.latency_slack': '-1'");
    EXPECT_DEATH(applyNodeSetting(node, "adversary.budget", "-5"),
                 "setting 'adversary.budget': '-5'");
    // Every flag key accepts the same spellings.
    applyNodeSetting(node, "monitorEnabled", "yes");
    applyNodeSetting(node, "sharedResurrector", "yes");
    EXPECT_TRUE(node.system.monitorEnabled);
    EXPECT_TRUE(node.system.sharedResurrector);
}

TEST(NodeSettingsDeathTest, EachKeyKeepsItsBound)
{
    // Zero is out of range for the keys that must be positive (burst,
    // period and heal streak are pinned with the other death tests).
    NodeConfig node;
    for (const char *key : {"adversary.gap", "rejuvenation.epochs",
                            "rejuvenation.threshold",
                            "adversary.gap_factor"}) {
        EXPECT_DEATH(applyNodeSetting(node, key, "0"),
                     std::string("setting '") + key + "'.*out of range")
            << key;
    }
    EXPECT_DEATH(applyNodeSetting(node, "resilience.degrade_queue_fraction",
                                  "nan"),
                 "resilience.degrade_queue_fraction");
    // The closed ends of each range stay accepted.
    applyNodeSetting(node, "rejuvenation.decay", "0");
    applyNodeSetting(node, "resilience.tokens.bulk", "2.5");
    applyNodeSetting(node, "resilience.tokens.bulk", "0");
    applyNodeSetting(node, "adversary.occupancy_fraction", "1");
    EXPECT_EQ(node.resilience.rejuvenation.suspicionDecay, 0.0);
    EXPECT_EQ(node.resilience.tokensPerMCycle[static_cast<std::size_t>(
                  net::ClientClass::Bulk)],
              0.0);
    EXPECT_EQ(node.adversary.occupancyFraction, 1.0);
}
