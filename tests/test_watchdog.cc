/** @file Tests for the INDRA memory watchdog (Section 2.3.1). */

#include <gtest/gtest.h>

#include "mem/watchdog.hh"
#include "sim/stats.hh"

using namespace indra;
using mem::MemWatchdog;
using mem::WatchdogVerdict;

TEST(Watchdog, HighPrivilegeAlwaysAllowed)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    EXPECT_EQ(wd.check(0, Privilege::High, 123),
              WatchdogVerdict::Allowed);
    EXPECT_EQ(wd.denials(), 0u);
}

TEST(Watchdog, UngrantedFrameIsPrivate)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    EXPECT_EQ(wd.check(1, Privilege::Low, 42),
              WatchdogVerdict::DeniedPrivate);
    EXPECT_EQ(wd.denials(), 1u);
}

TEST(Watchdog, GrantAllowsSpecificCore)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(42, 1);
    EXPECT_EQ(wd.check(1, Privilege::Low, 42),
              WatchdogVerdict::Allowed);
    EXPECT_EQ(wd.check(2, Privilege::Low, 42),
              WatchdogVerdict::DeniedWrongCore);
}

TEST(Watchdog, MultipleGrantsOnOneFrame)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(7, 1);
    wd.grant(7, 2);
    EXPECT_EQ(wd.check(1, Privilege::Low, 7), WatchdogVerdict::Allowed);
    EXPECT_EQ(wd.check(2, Privilege::Low, 7), WatchdogVerdict::Allowed);
    EXPECT_EQ(wd.check(3, Privilege::Low, 7),
              WatchdogVerdict::DeniedWrongCore);
}

TEST(Watchdog, RevokeSingleCore)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(7, 1);
    wd.grant(7, 2);
    wd.revoke(7, 1);
    EXPECT_FALSE(wd.isGranted(7, 1));
    EXPECT_TRUE(wd.isGranted(7, 2));
}

TEST(Watchdog, RevokeLastGrantMakesPrivate)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(7, 1);
    wd.revoke(7, 1);
    EXPECT_EQ(wd.check(1, Privilege::Low, 7),
              WatchdogVerdict::DeniedPrivate);
}

TEST(Watchdog, RevokeAll)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(7, 1);
    wd.grant(7, 2);
    wd.revokeAll(7);
    EXPECT_FALSE(wd.isGranted(7, 1));
    EXPECT_FALSE(wd.isGranted(7, 2));
}

TEST(Watchdog, RevokeOnUngrantedFrameIsNoop)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.revoke(99, 1);
    wd.revokeAll(99);
    EXPECT_EQ(wd.denials(), 0u);
}

TEST(Watchdog, RevokeAllClearsEveryCore)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    for (CoreId c = 0; c < 64; ++c)
        wd.grant(7, c);
    for (CoreId c = 0; c < 64; ++c)
        EXPECT_TRUE(wd.isGranted(7, c));
    wd.revokeAll(7);
    for (CoreId c = 0; c < 64; ++c)
        EXPECT_FALSE(wd.isGranted(7, c)) << "core " << c;
    // The frame is private again, not wrong-core.
    EXPECT_EQ(wd.check(0, Privilege::Low, 7),
              WatchdogVerdict::DeniedPrivate);
}

TEST(Watchdog, WrongCoreTakesPrecedenceOverPrivate)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    // While ANY grant exists on the frame, a non-granted core gets
    // DeniedWrongCore (the frame is shared, just not with it).
    wd.grant(9, 3);
    EXPECT_EQ(wd.check(5, Privilege::Low, 9),
              WatchdogVerdict::DeniedWrongCore);
    // Once the last grant is revoked, the same access degrades to
    // DeniedPrivate (nobody may touch the frame).
    wd.revoke(9, 3);
    EXPECT_EQ(wd.check(5, Privilege::Low, 9),
              WatchdogVerdict::DeniedPrivate);
    EXPECT_EQ(wd.denials(), 2u);
}

TEST(Watchdog, HighestCoreIdIsUsable)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(11, 63);  // last representable core in the 64-bit mask
    EXPECT_EQ(wd.check(63, Privilege::Low, 11),
              WatchdogVerdict::Allowed);
    EXPECT_EQ(wd.check(62, Privilege::Low, 11),
              WatchdogVerdict::DeniedWrongCore);
    wd.revoke(11, 63);
    EXPECT_FALSE(wd.isGranted(11, 63));
}

TEST(WatchdogDeath, RejectsCoreBeyond64)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    EXPECT_DEATH(wd.grant(1, 64), "64 cores");
}

TEST(WatchdogDeath, CheckRejectsCoreBeyond64)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    // A low-privilege check with core 64 would shift out of the
    // 64-bit grant mask (undefined behaviour), so it must panic, not
    // silently alias some other core's grant.
    EXPECT_DEATH(wd.check(64, Privilege::Low, 1), "64 cores");
}

TEST(Watchdog, HighPrivilegeCheckSkipsCoreValidation)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    // High privilege short-circuits before the mask is consulted;
    // the resurrector's own accesses never carry a maskable core id.
    EXPECT_EQ(wd.check(64, Privilege::High, 1),
              WatchdogVerdict::Allowed);
}

TEST(WatchdogDeath, RevokeRejectsCoreBeyond64)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(1, 0);
    EXPECT_DEATH(wd.revoke(1, 64), "64 cores");
    // Even on a frame with no grants the id must be validated.
    EXPECT_DEATH(wd.revoke(99, 64), "64 cores");
}

TEST(WatchdogDeath, IsGrantedRejectsCoreBeyond64)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    EXPECT_DEATH((void)wd.isGranted(1, 64), "64 cores");
}

TEST(Watchdog, RevokingTheLastCoreLeavesTheFramePrivate)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(7, 1);
    wd.grant(7, 2);
    wd.revoke(7, 2);
    // Core 1 still holds a grant, so core 2 is merely the wrong core.
    EXPECT_EQ(wd.check(2, Privilege::Low, 7),
              WatchdogVerdict::DeniedWrongCore);
    wd.revoke(7, 1);
    // No core holds a grant any more: a zero mask is private, for the
    // core that had it and for any other.
    EXPECT_EQ(wd.check(1, Privilege::Low, 7),
              WatchdogVerdict::DeniedPrivate);
    EXPECT_EQ(wd.check(2, Privilege::Low, 7),
              WatchdogVerdict::DeniedPrivate);
    EXPECT_EQ(wd.grantTable()[7], 0u);
}

TEST(Watchdog, FramesPastEveryGrantArePrivate)
{
    stats::StatGroup g("t");
    MemWatchdog wd(g);
    wd.grant(5, 1);
    const std::size_t table = wd.grantTable().size();
    for (Pfn pfn : {Pfn{6}, Pfn{1} << 20, invalidPfn}) {
        EXPECT_EQ(wd.check(1, Privilege::Low, pfn),
                  WatchdogVerdict::DeniedPrivate)
            << "pfn " << pfn;
        EXPECT_FALSE(wd.isGranted(pfn, 1));
        // Revoking where nothing was granted does not grow the table.
        wd.revoke(pfn, 1);
        wd.revokeAll(pfn);
    }
    EXPECT_EQ(wd.grantTable().size(), table);
    EXPECT_EQ(wd.check(1, Privilege::Low, 5), WatchdogVerdict::Allowed);
}
