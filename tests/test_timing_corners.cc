/** @file Corner-case timing tests: pipeline width sweep, DRAM bank
 * mapping, and FIFO/monitor interactions under bursts. */

#include <gtest/gtest.h>

#include "checkpoint/policy.hh"
#include "cpu/core.hh"
#include "mem/dram.hh"
#include "mem/trace_fifo.hh"
#include "monitor/monitor.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

// Width sweep: N warm ALU instructions retire in ceil(N/width) cycles.
class WidthSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(WidthSweep, WarmAluThroughputMatchesWidth)
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.commitWidth = GetParam();
    cfg.fetchWidth = GetParam();
    MemoryRig rig(cfg);
    rig.space->mapRegion(0x00400000, 4, os::Region::Code);
    cpu::Core core(cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
                   rig.stats);

    cpu::Instruction alu;
    alu.op = cpu::Op::Alu;
    alu.pc = 0x00400000;
    core.execute(1, alu);  // warm the line
    Tick warm = core.curTick();
    const std::uint32_t n = 24;
    for (std::uint32_t i = 1; i < n; ++i) {
        alu.pc = 0x00400000 + (i % 8) * 4;  // stay in one line
        core.execute(1, alu);
    }
    // Slots used: n total (1 warm + n-1); cycles elapsed floor(n/w).
    EXPECT_EQ(core.curTick(), warm + (n / GetParam()) -
                                  (1 + 0) / GetParam());
    EXPECT_EQ(core.instructions(), n);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// DRAM bank mapping: consecutive rows go to consecutive banks.
TEST(DramCorners, RowsInterleaveAcrossBanks)
{
    stats::StatGroup g("t");
    DramConfig d;
    d.numBanks = 4;
    d.rowBytes = 4096;
    mem::DramModel dram(d, 5, 8, g);
    // Touch rows 0..3 (banks 0..3): all row-misses, no conflicts.
    for (int r = 0; r < 4; ++r)
        dram.access(0, static_cast<Addr>(r) * 4096, 64);
    EXPECT_EQ(dram.rowConflicts(), 0u);
    // Row 4 lands back on bank 0 with row 0 open: conflict.
    dram.access(100000, 4ull * 4096, 64);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST(DramCorners, LatencyIncludesQueueingInResult)
{
    stats::StatGroup g("t");
    DramConfig d;
    mem::DramModel dram(d, 5, 8, g);
    auto r1 = dram.access(0, 0, 64);
    auto r2 = dram.access(0, 64, 64);  // same bank, queued
    EXPECT_EQ(r2.latency, r2.doneTick - 0);
    EXPECT_GT(r2.latency, r1.latency);
}

// A burst of records through a small FIFO stalls the producer by an
// exactly computable amount.
TEST(FifoCorners, BurstStallIsExact)
{
    stats::StatGroup g("t");
    mem::TraceFifo fifo(2, g);
    const Cycles cost = 100;
    // Push 10 records at tick 0. Service starts: 0,100,...,900. A
    // slot frees when its record *starts* service, so push i first
    // finds the FIFO full at i == 3 and waits for start(i-2).
    Tick last_done = 0;
    for (int i = 0; i < 10; ++i) {
        auto r = fifo.push(0, cost);
        last_done = r.pushDoneTick;
        if (i >= 3) {
            EXPECT_EQ(r.pushDoneTick,
                      static_cast<Tick>((i - 2) * 100));
        }
    }
    EXPECT_EQ(last_done, 700u);
    EXPECT_EQ(fifo.drainTick(), 1000u);
}

// Tick/Cycles widening at the event-skipping jump points: adding a
// whole event gap to a tick near the end of the representable range
// must pin to maxTick, never wrap behind the current time. Pre-fix
// code added raw uint64s, so `maxTick - 10 + 100` wrapped to 89 — a
// tick in the past — and every downstream comparison inverted.
TEST(TimingCorners, SaturatingAddPinsAtMaxTick)
{
    EXPECT_EQ(saturatingAdd(0, 0), 0u);
    EXPECT_EQ(saturatingAdd(100, 23), 123u);
    EXPECT_EQ(saturatingAdd(maxTick, 0), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick, 1), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick - 1, 1), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick - 10, 100), maxTick);
    EXPECT_EQ(saturatingAdd(1, maxTick), maxTick);
    EXPECT_EQ(saturatingAdd(maxTick, maxTick), maxTick);
    // The wrap the raw add would have produced, as a guard against
    // the assertion itself going stale: the saturated result must be
    // no less than either operand.
    const Tick near_end = maxTick - 10;
    EXPECT_GE(saturatingAdd(near_end, 100), near_end);
}

// The skip path is monotone through saturation: jumping a core's
// timeline by successive saturated gaps can never move time backward.
TEST(TimingCorners, SaturatedJumpsStayMonotone)
{
    Tick t = maxTick - 1000;
    Tick prev = t;
    for (Cycles gap : {1u, 999u, 1u, 5000u, 0u, 1u << 30}) {
        t = saturatingAdd(t, gap);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_EQ(t, maxTick);
}

// Monitor under a mixed burst keeps per-kind accounting straight.
TEST(MonitorCorners, MixedBurstAccounting)
{
    SystemConfig cfg;
    stats::StatGroup g("t");
    mon::Monitor monitor(cfg, g);
    monitor.registerCodePage(1, 0x00400000);
    monitor.registerFunctionEntry(1, 0x00400200);

    for (int i = 0; i < 5; ++i) {
        cpu::TraceRecord call;
        call.kind = cpu::TraceKind::Call;
        call.pid = 1;
        call.retAddr = 0x00400104 + i * 16;
        monitor.submit(call, i * 10);

        cpu::TraceRecord xfer;
        xfer.kind = cpu::TraceKind::CtrlTransfer;
        xfer.pid = 1;
        xfer.target = 0x00400200;
        monitor.submit(xfer, i * 10 + 1);
    }
    EXPECT_EQ(monitor.recordsProcessed(), 10u);
    EXPECT_EQ(monitor.violationsDetected(), 0u);
    // The serial consumer finished strictly after the naive sum of
    // the earlier arrivals would suggest (it had to queue).
    EXPECT_GE(monitor.drainTick(),
              5 * (cfg.recordDequeueCycles +
                   cfg.callReturnCheckCycles) +
                  5 * (cfg.recordDequeueCycles +
                       cfg.ctrlTransferCheckCycles));
}

// Backup-record TLB interplay: a store to a TLB-resident page skips
// the record-fetch surcharge.
TEST(DeltaCorners, TlbResidentRecordIsCheaper)
{
    MemoryRig rig;
    rig.space->mapRegion(0x10000000, 2, os::Region::Data);
    stats::StatGroup g("t");
    SystemConfig cfg = rig.cfg;
    auto policy = ckpt::makePolicy(cfg, *rig.context, *rig.space,
                                   rig.phys, *rig.hierarchy, g);
    rig.context->incrementGts();
    policy->onRequestBegin(0);

    // Cold: D-TLB does not hold the page -> record fetch surcharge.
    Cycles cold = policy->onStore(0, 1, 0x10000000, 8);
    // Warm the TLB through a real access, then store to a NEW line of
    // the same page: the record rides in the TLB entry.
    rig.hierarchy->load(0, 1, 0x10000000);
    Cycles warm = policy->onStore(1000, 1, 0x10000040, 8);
    EXPECT_GT(cold, warm);
}
