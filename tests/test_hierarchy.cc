/** @file Tests for the composed per-core memory hierarchy. */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : rig()
    {
        rig.space->mapRegion(0x00400000, 4, os::Region::Code);
        // Two 16KB-apart data regions so L1 conflict evictions can be
        // exercised with both addresses mapped.
        rig.space->mapRegion(0x10000000, 8, os::Region::Data);
    }

    MemoryRig rig;
};

} // anonymous namespace

TEST_F(HierarchyTest, ColdFetchGoesToDram)
{
    auto out = rig.hierarchy->fetch(0, 1, 0x00400000);
    EXPECT_EQ(out.fault, mem::MemFault::None);
    EXPECT_TRUE(out.l1iFill);
    EXPECT_TRUE(out.wentToDram);
    EXPECT_GT(out.latency, 100u);  // DRAM-class latency
}

TEST_F(HierarchyTest, WarmFetchIsOneCycle)
{
    rig.hierarchy->fetch(0, 1, 0x00400000);
    auto out = rig.hierarchy->fetch(1000, 1, 0x00400000);
    EXPECT_FALSE(out.l1iFill);
    EXPECT_EQ(out.latency, rig.cfg.l1i.hitLatency);
}

TEST_F(HierarchyTest, L1EvictedLineHitsInL2)
{
    rig.hierarchy->load(0, 1, 0x10000000);
    // Evict from the direct-mapped 16KB L1D with a conflicting line.
    rig.hierarchy->load(1000, 1, 0x10000000 + 16 * 1024);
    auto out = rig.hierarchy->load(2000, 1, 0x10000000);
    EXPECT_FALSE(out.wentToDram);  // L2 still holds it
    EXPECT_GT(out.latency, rig.cfg.l1d.hitLatency);
    EXPECT_LE(out.latency, rig.cfg.l1d.hitLatency +
                               rig.cfg.l2.hitLatency + 1);
}

TEST_F(HierarchyTest, UnmappedAccessFaults)
{
    auto out = rig.hierarchy->load(0, 1, 0x55000000);
    EXPECT_EQ(out.fault, mem::MemFault::Unmapped);
    EXPECT_EQ(out.pfn, invalidPfn);
    auto out2 = rig.hierarchy->store(0, 1, 0x55000000);
    EXPECT_EQ(out2.fault, mem::MemFault::Unmapped);
    EXPECT_EQ(out2.pfn, invalidPfn);
    auto out3 = rig.hierarchy->fetch(0, 1, 0x55000000);
    EXPECT_EQ(out3.fault, mem::MemFault::Unmapped);
    EXPECT_EQ(out3.pfn, invalidPfn);
}

TEST_F(HierarchyTest, WatchdogDeniesUngrantedFrame)
{
    MemoryRig guarded(testutil::smallConfig(), true);
    guarded.space->mapRegion(0x10000000, 1, os::Region::Data);
    // The rig grants mapped pages to core 1 (the hierarchy's owner),
    // so normal accesses pass...
    auto ok = guarded.hierarchy->load(0, 1, 0x10000000);
    EXPECT_EQ(ok.fault, mem::MemFault::None);
    // ...but a frame never granted (resurrector-private) faults. Map
    // the page table entry directly without a grant by revoking.
    Pfn pfn = guarded.space->translate(1, 0x10000000 / 4096);
    guarded.watchdog->revokeAll(pfn);
    guarded.hierarchy->flushTlbs();
    auto denied = guarded.hierarchy->load(0, 1, 0x10000000);
    EXPECT_EQ(denied.fault, mem::MemFault::Protection);
    // The translation succeeded, but a denied access names no frame.
    EXPECT_EQ(denied.pfn, invalidPfn);
    auto denied_store = guarded.hierarchy->store(0, 1, 0x10000000);
    EXPECT_EQ(denied_store.fault, mem::MemFault::Protection);
    EXPECT_EQ(denied_store.pfn, invalidPfn);
}

// The hierarchy translates each access once and hands the frame to
// the core, so the frame must be the kernel's translation whichever
// level of the hierarchy served the access.
TEST(HierarchyTranslateOnce, OutcomeFrameIsTheKernelTranslation)
{
    MemoryRig rig;
    stats::StatGroup group("translate_once");
    os::Kernel kernel(rig.phys, rig.cfg.pageBytes, nullptr, group);
    // A second process maps the same virtual pages to other frames.
    Pid other = kernel.createProcess("other", 1);
    kernel.process(other).space->mapRegion(0x10000000, 8,
                                           os::Region::Data);
    Pid pid = kernel.createProcess("svc", 1);
    kernel.process(pid).space->mapRegion(0x10000000, 8, os::Region::Data);
    mem::MemHierarchy h(rig.cfg, 1, Privilege::Low, kernel, nullptr,
                        rig.bus, rig.dram, group);

    auto frameOf = [&](Pid p, Addr a) {
        return kernel.translate(p, a / rig.cfg.pageBytes);
    };
    Tick t = 0;
    for (bool is_store : {false, true}) {
        SCOPED_TRACE(is_store ? "store" : "load");
        auto access = [&](Addr a) {
            t += 1000;
            return is_store ? h.store(t, pid, a) : h.load(t, pid, a);
        };
        // Loads use pages 0 and 4, stores pages 1 and 5: the second of
        // each pair conflicts with the first in the direct-mapped L1D.
        Addr a = 0x10000000 + (is_store ? 0x1000 : 0);
        Addr conflict = a + 16 * 1024;

        auto dram = access(a);
        EXPECT_TRUE(dram.wentToDram);
        EXPECT_EQ(dram.pfn, frameOf(pid, a));
        EXPECT_NE(dram.pfn, frameOf(other, a));

        auto l1 = access(a);
        EXPECT_EQ(l1.latency, rig.cfg.l1d.hitLatency);
        EXPECT_EQ(l1.pfn, frameOf(pid, a));

        EXPECT_EQ(access(conflict).pfn, frameOf(pid, conflict));
        auto l2 = access(a);
        EXPECT_FALSE(l2.wentToDram);
        EXPECT_GT(l2.latency, rig.cfg.l1d.hitLatency);
        EXPECT_EQ(l2.pfn, frameOf(pid, a));
    }
}

TEST_F(HierarchyTest, StoreMakesLineDirtyInL2OnEviction)
{
    rig.hierarchy->store(0, 1, 0x10000000);
    std::uint64_t wb_before = rig.hierarchy->l1dCache().writebacks();
    rig.hierarchy->store(1000, 1, 0x10000000 + 16 * 1024);
    EXPECT_EQ(rig.hierarchy->l1dCache().writebacks(), wb_before + 1);
}

TEST_F(HierarchyTest, TlbMissAddsPenalty)
{
    rig.hierarchy->load(0, 1, 0x10000000);      // cold: TLB miss
    rig.hierarchy->flushCaches();               // keep TLB, drop cache
    auto out = rig.hierarchy->load(1000, 1, 0x10000008);
    // Same page: TLB hit; only the cache path cost remains.
    auto out2_cold_tlb = [&] {
        rig.hierarchy->flushTlbs();
        rig.hierarchy->flushCaches();
        return rig.hierarchy->load(2000, 1, 0x10000010);
    }();
    EXPECT_GE(out2_cold_tlb.latency,
              out.latency + rig.cfg.dtlb.missPenalty -
                  rig.cfg.l2.hitLatency);
}

TEST_F(HierarchyTest, BackupAddrDisjointFromAppSpace)
{
    Addr a = rig.hierarchy->backupAddr(5, 64);
    EXPECT_GT(a, 1ULL << 39);
    EXPECT_NE(alignDown(a, 4096),
              alignDown(static_cast<Addr>(0x10000000), 4096));
}

TEST_F(HierarchyTest, UncachedTransferBypassesL2)
{
    std::uint64_t l2_accesses = rig.hierarchy->l2Cache().accesses();
    Cycles lat = rig.hierarchy->uncachedLineTransfer(0, 1ULL << 41);
    EXPECT_EQ(rig.hierarchy->l2Cache().accesses(), l2_accesses);
    EXPECT_GT(lat, 50u);  // always DRAM-class
}

TEST_F(HierarchyTest, LineTransferWarmsL2)
{
    Addr a = rig.hierarchy->backupAddr(7, 0);
    Cycles cold = rig.hierarchy->lineTransfer(0, a, true);
    Cycles warm = rig.hierarchy->lineTransfer(1000, a, false);
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, rig.cfg.l2.hitLatency);
}

TEST_F(HierarchyTest, FlushCachesForcesRefill)
{
    rig.hierarchy->load(0, 1, 0x10000000);
    rig.hierarchy->flushCaches();
    auto out = rig.hierarchy->load(1000, 1, 0x10000000);
    EXPECT_TRUE(out.wentToDram);
}
