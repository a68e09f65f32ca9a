/** @file Tests for INDRA's delta backup engine (Figures 3-7). */

#include <gtest/gtest.h>

#include "checkpoint/delta_backup.hh"
#include "test_util.hh"

using namespace indra;
using ckpt::DeltaBackup;
using testutil::MemoryRig;

namespace
{

constexpr Addr pageBase = 0x10000000;  // first data page

class DeltaTest : public ::testing::Test
{
  protected:
    DeltaTest()
        : rig(),
          engine(rig.cfg, *rig.context, *rig.space, rig.phys,
                 *rig.hierarchy, rig.stats)
    {
        rig.space->mapRegion(pageBase, 8, os::Region::Data);
    }

    /** Architectural 8-byte store: hook first, then functional write. */
    Cycles
    store(Addr vaddr, std::uint64_t value)
    {
        Cycles c = engine.onStore(0, 1, vaddr, 8);
        rig.poke64(vaddr, value);
        return c;
    }

    /** Architectural 8-byte load with rollback-on-demand. */
    std::uint64_t
    load(Addr vaddr)
    {
        engine.onLoad(0, 1, vaddr, 8);
        return rig.peek64(vaddr);
    }

    /** Begin a new request: GTS++ then engine bookkeeping (Fig. 6). */
    void
    newRequest()
    {
        rig.context->incrementGts();
        engine.onRequestBegin(0);
    }

    Vpn vpnOf(Addr a) const { return a / rig.cfg.pageBytes; }

    MemoryRig rig;
    DeltaBackup engine;
};

} // anonymous namespace

TEST_F(DeltaTest, FirstWriteBacksUpLine)
{
    newRequest();
    store(pageBase, 0x1111);
    const auto *rec = engine.record(vpnOf(pageBase));
    ASSERT_NE(rec, nullptr);
    EXPECT_NE(rec->backupPfn, invalidPfn);
    EXPECT_TRUE(rec->dirtyBv.test(0));
    EXPECT_EQ(engine.linesBackedUp(), 1u);
    // Backup holds the ORIGINAL (zero) value.
    EXPECT_EQ(rig.phys.read64(rec->backupPfn, 0), 0u);
}

TEST_F(DeltaTest, SecondWriteSameLineSkipsBackup)
{
    newRequest();
    store(pageBase, 0x1111);
    store(pageBase + 8, 0x2222);  // same 64B line
    EXPECT_EQ(engine.linesBackedUp(), 1u);
}

TEST_F(DeltaTest, DistinctLinesEachBackedUp)
{
    newRequest();
    store(pageBase, 1);
    store(pageBase + 64, 2);
    store(pageBase + 128, 3);
    EXPECT_EQ(engine.linesBackedUp(), 3u);
}

TEST_F(DeltaTest, NewEpochRebacksLine)
{
    newRequest();
    store(pageBase, 0xaaaa);
    newRequest();  // success: epoch advances
    store(pageBase, 0xbbbb);
    EXPECT_EQ(engine.linesBackedUp(), 2u);
    // Backup now holds the value at the NEW epoch start.
    const auto *rec = engine.record(vpnOf(pageBase));
    EXPECT_EQ(rig.phys.read64(rec->backupPfn, 0), 0xaaaau);
}

TEST_F(DeltaTest, FailureArmsRollbackWithoutCopying)
{
    newRequest();
    store(pageBase, 0xdead);
    Cycles cost = engine.onFailure(0);
    const auto *rec = engine.record(vpnOf(pageBase));
    EXPECT_TRUE(rec->rollbackVld);
    EXPECT_TRUE(rec->rollbackBv.test(0));
    EXPECT_FALSE(rec->dirtyBv.test(0));
    // No copying at failure time: the active page still holds the
    // corrupt value until the line is read or rewritten.
    EXPECT_EQ(rig.peek64(pageBase), 0xdeadu);
    // Arming cost is per backup record, far below a page copy.
    EXPECT_LT(cost, 64u);
}

TEST_F(DeltaTest, ReadAfterFailureRecoversOnDemand)
{
    rig.poke64(pageBase, 0x600d);  // pre-request value
    newRequest();
    store(pageBase, 0xbad);
    engine.onFailure(0);
    EXPECT_EQ(load(pageBase), 0x600du);  // Figure 5 path
    const auto *rec = engine.record(vpnOf(pageBase));
    EXPECT_FALSE(rec->rollbackVld);
}

TEST_F(DeltaTest, WriteAfterFailureSupersedesRollback)
{
    rig.poke64(pageBase + 8, 0x01d);  // same line, different word
    newRequest();
    store(pageBase, 0xbad);
    engine.onFailure(0);
    newRequest();
    // Overwrite word 0 of the pending line: word 1 must come back
    // from the backup, word 0 takes the new value.
    store(pageBase, 0x11e);
    EXPECT_EQ(rig.peek64(pageBase), 0x11eu);
    EXPECT_EQ(rig.peek64(pageBase + 8), 0x01du);
}

TEST_F(DeltaTest, UntouchedLinesUnaffectedByRollback)
{
    rig.poke64(pageBase + 128, 0xcafe);
    newRequest();
    store(pageBase, 0xbad);
    engine.onFailure(0);
    EXPECT_EQ(load(pageBase + 128), 0xcafeu);
}

TEST_F(DeltaTest, ConsecutiveFailuresAccumulateRollback)
{
    rig.poke64(pageBase, 0xa0);
    rig.poke64(pageBase + 64, 0xb0);
    newRequest();
    store(pageBase, 0xa1);       // line 0 dirty
    engine.onFailure(0);         // rollback {0}
    newRequest();
    store(pageBase + 64, 0xb1);  // line 1 dirty in retry epoch
    engine.onFailure(0);         // rollback {0, 1}
    EXPECT_EQ(load(pageBase), 0xa0u);
    EXPECT_EQ(load(pageBase + 64), 0xb0u);
}

TEST_F(DeltaTest, DrainRollbackRestoresEverything)
{
    rig.poke64(pageBase, 0x1);
    rig.poke64(pageBase + 64, 0x2);
    rig.poke64(pageBase + 4096, 0x3);
    newRequest();
    store(pageBase, 0x91);
    store(pageBase + 64, 0x92);
    store(pageBase + 4096, 0x93);
    engine.onFailure(0);
    engine.drainRollback(0);
    EXPECT_EQ(rig.peek64(pageBase), 0x1u);
    EXPECT_EQ(rig.peek64(pageBase + 64), 0x2u);
    EXPECT_EQ(rig.peek64(pageBase + 4096), 0x3u);
}

TEST_F(DeltaTest, InvalidateDiscardsPendingRollback)
{
    newRequest();
    store(pageBase, 0x5);
    engine.onFailure(0);
    engine.invalidate();
    EXPECT_EQ(load(pageBase), 0x5u);  // no lazy restore happens
}

TEST_F(DeltaTest, EpochStatsTrackPagesAndLines)
{
    newRequest();
    store(pageBase, 1);
    store(pageBase + 64, 2);
    store(pageBase + 4096, 3);
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 2u);
    EXPECT_EQ(engine.linesBackedUpThisEpoch(), 3u);
    newRequest();
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 0u);
    // Figure 15 metric sampled: 3 lines over 2x64 page lines.
    EXPECT_NEAR(engine.dirtyLineRatio().mean(), 3.0 / 128.0, 1e-12);
}

TEST_F(DeltaTest, BackupPagesAllocatedOnDemandOnly)
{
    newRequest();
    EXPECT_EQ(engine.backupPagesAllocated(), 0u);
    store(pageBase, 1);
    EXPECT_EQ(engine.backupPagesAllocated(), 1u);
    load(pageBase + 4096);  // reads allocate nothing
    EXPECT_EQ(engine.backupPagesAllocated(), 1u);
}

TEST_F(DeltaTest, UnmappedStoreIgnored)
{
    newRequest();
    EXPECT_EQ(engine.onStore(0, 1, 0x70000000, 8), 0u);
    EXPECT_EQ(engine.backupPagesAllocated(), 0u);
}

TEST_F(DeltaTest, OtherProcessIgnored)
{
    newRequest();
    EXPECT_EQ(engine.onStore(0, 99, pageBase, 8), 0u);
    EXPECT_EQ(engine.record(vpnOf(pageBase)), nullptr);
}

TEST_F(DeltaTest, LineCrossingStoreBacksUpBothLines)
{
    newRequest();
    engine.onStore(0, 1, pageBase + 60, 8);  // spans lines 0 and 1
    const auto *rec = engine.record(vpnOf(pageBase));
    EXPECT_TRUE(rec->dirtyBv.test(0));
    EXPECT_TRUE(rec->dirtyBv.test(1));
    EXPECT_EQ(engine.linesBackedUp(), 2u);
}

/**
 * Literal replay of Figure 7 ("History of Backup States"), mapped to
 * our model: page p, lines 1/2/6/7; GTS 5 then 6. Our GTS advances on
 * every request begin (equivalent semantics, see DESIGN.md), so the
 * "next request after failure" rows run in a fresh epoch; the
 * invariant checked is the paper's: every rollback restores the value
 * the page held when the failed request began.
 */
TEST_F(DeltaTest, Figure7History)
{
    auto line = [&](int n) { return pageBase + n * 64; };
    // Initial state: epoch 5 equivalents.
    rig.poke64(line(1), 0x101);
    rig.poke64(line(2), 0x102);
    rig.poke64(line(6), 0x106);
    rig.poke64(line(7), 0x107);
    newRequest();  // "GTS = 5"

    // Action 2: write line 7 -> backed up.
    store(line(7), 0x207);
    // Action 3: write line 2 -> backed up.
    store(line(2), 0x202);
    // Action 4: write line 2 again -> direct write, no new backup.
    store(line(2), 0x212);
    EXPECT_EQ(engine.linesBackedUp(), 2u);

    // Action 5: request failed -> arm rollback {2, 7}.
    engine.onFailure(0);
    const auto *rec = engine.record(vpnOf(pageBase));
    EXPECT_TRUE(rec->rollbackBv.test(2));
    EXPECT_TRUE(rec->rollbackBv.test(7));
    EXPECT_TRUE(rec->rollbackVld);

    // Next request (paper keeps GTS=5; we open a new epoch).
    newRequest();
    // Action 6: read line 7 -> recovered from backup on demand.
    EXPECT_EQ(load(line(7)), 0x107u);
    // Action 7: write line 1 -> normal backup.
    store(line(1), 0x201);

    // Actions 8-9: this request fails too; rollback now covers the
    // current request's line 1 and the still-pending line 2.
    engine.onFailure(0);
    EXPECT_EQ(load(line(1)), 0x101u);
    EXPECT_EQ(load(line(2)), 0x102u);
    EXPECT_EQ(load(line(7)), 0x107u);  // already recovered, stable

    // Actions 10-12: the next request succeeds; a write in the new
    // epoch (paper: GTS=6) backs the line up afresh.
    newRequest();
    store(line(6), 0x306);
    const auto *rec2 = engine.record(vpnOf(pageBase));
    EXPECT_TRUE(rec2->dirtyBv.test(6));
    EXPECT_EQ(rig.phys.read64(rec2->backupPfn, 6 * 64), 0x106u);
}

TEST_F(DeltaTest, BackupCostIsCharged)
{
    newRequest();
    Cycles c = store(pageBase, 1);
    EXPECT_GT(c, 0u);
    EXPECT_GT(engine.backupCycles(), 0u);
}

TEST_F(DeltaTest, CleanLoadIsFree)
{
    newRequest();
    EXPECT_EQ(engine.onLoad(0, 1, pageBase, 8), 0u);
}

TEST_F(DeltaTest, RepeatedStoresToOnePageCountOnce)
{
    newRequest();
    for (int i = 0; i < 10; ++i)
        store(pageBase + (i % 4) * 64, i);
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 1u);
    store(pageBase + 4096, 1);
    store(pageBase, 2);
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 2u);
    EXPECT_EQ(engine.touchedSet(),
              (std::vector<Vpn>{vpnOf(pageBase), vpnOf(pageBase + 4096)}));
}

TEST_F(DeltaTest, TouchedListEmptiedByRequestFailureAndInvalidate)
{
    // Each way of ending an epoch empties the list, and a page touched
    // again afterwards joins the fresh list exactly once.
    auto touchTwice = [&] {
        store(pageBase, 1);
        store(pageBase + 64, 2);
        EXPECT_EQ(engine.pagesTouchedThisEpoch(), 1u);
    };
    newRequest();
    touchTwice();
    newRequest();
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 0u);
    touchTwice();
    engine.onFailure(0);
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 0u);
    newRequest();
    touchTwice();
    engine.invalidate();
    EXPECT_EQ(engine.pagesTouchedThisEpoch(), 0u);
    EXPECT_TRUE(engine.touchedSet().empty());
    touchTwice();
}

TEST_F(DeltaTest, LoadIsFreeUntilRollbackIsArmedThenRecoversLazily)
{
    rig.poke64(pageBase, 0x600d);
    newRequest();
    store(pageBase, 0xbad);
    // Nothing armed yet: every load is free, record or not, TLB hit
    // or not.
    EXPECT_EQ(engine.onLoad(0, 1, pageBase, 8), 0u);
    EXPECT_EQ(engine.onLoad(0, 1, pageBase + 4096, 8), 0u);
    EXPECT_EQ(engine.onLoad(0, 1, 0x70000000, 8), 0u);
    EXPECT_EQ(rig.peek64(pageBase), 0xbadu);

    engine.onFailure(0);
    EXPECT_GT(engine.onLoad(0, 1, pageBase, 8), 0u);
    EXPECT_EQ(rig.peek64(pageBase), 0x600du);
    // The line is recovered; a second read of it costs nothing.
    EXPECT_EQ(engine.onLoad(0, 1, pageBase, 8), 0u);
}
