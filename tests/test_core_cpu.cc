/** @file Tests for the core model: timing, trace emission, hooks,
 * and the synchronization rules of Section 3.2.5. */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hh"
#include "test_util.hh"

using namespace indra;
using testutil::MemoryRig;

namespace
{

/** Records every trace record; configurable push/drain behaviour. */
struct FakeSink : cpu::TraceSink
{
    std::vector<cpu::TraceRecord> records;
    Tick pushDelay = 0;
    Tick drain = 0;

    Tick
    submit(const cpu::TraceRecord &rec, Tick tick) override
    {
        records.push_back(rec);
        return tick + pushDelay;
    }

    Tick drainTick() const override { return drain; }

    int
    countKind(cpu::TraceKind k) const
    {
        int n = 0;
        for (const auto &r : records) {
            if (r.kind == k)
                ++n;
        }
        return n;
    }
};

/** Counts hook invocations and observes memory at hook time. */
struct FakeHooks : cpu::CheckpointHooks
{
    int stores = 0;
    int loads = 0;
    Cycles storeCost = 0;
    std::uint64_t observedAtStore = 0;
    MemoryRig *rig = nullptr;
    Addr watch = 0;

    Cycles
    onStore(Tick, Pid, Addr vaddr, std::uint32_t) override
    {
        ++stores;
        if (rig && vaddr == watch)
            observedAtStore = rig->peek64(watch);
        return storeCost;
    }

    Cycles onLoad(Tick, Pid, Addr, std::uint32_t) override
    {
        ++loads;
        return 0;
    }
};

struct FakeOs : cpu::SyscallHandler
{
    int calls = 0;
    bool terminate = false;

    cpu::SyscallResult
    syscall(Tick, Pid, std::uint32_t, std::uint64_t,
            std::uint64_t) override
    {
        ++calls;
        cpu::SyscallResult r;
        r.cycles = 50;
        r.terminated = terminate;
        return r;
    }
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : rig(),
          core(rig.cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
               rig.stats)
    {
        rig.space->mapRegion(0x00400000, 8, os::Region::Code);
        rig.space->mapRegion(0x10000000, 8, os::Region::Data);
        core.setTraceSink(&sink);
    }

    cpu::Instruction
    alu(Addr pc)
    {
        cpu::Instruction i;
        i.op = cpu::Op::Alu;
        i.pc = pc;
        return i;
    }

    MemoryRig rig;
    FakeSink sink;
    cpu::Core core;
};

} // anonymous namespace

TEST_F(CoreTest, EightWideRetirement)
{
    // 16 ALU ops in one resident line: 2 cycles once the line is warm.
    core.execute(1, alu(0x00400000));  // cold fetch
    Tick warm = core.curTick();
    for (int i = 1; i < 8; ++i)
        core.execute(1, alu(0x00400000 + i * 4));
    EXPECT_EQ(core.curTick(), warm + 1);
    EXPECT_EQ(core.instructions(), 8u);
}

TEST_F(CoreTest, FetchMissStalls)
{
    core.execute(1, alu(0x00400000));
    Tick t1 = core.curTick();
    core.execute(1, alu(0x00402000));  // new line: L2+DRAM fetch
    EXPECT_GT(core.curTick(), t1 + 1);
}

TEST_F(CoreTest, StoreWritesMemoryFunctionally)
{
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0x1234;
    core.execute(1, st);
    EXPECT_EQ(rig.peek64(0x10000040), 0x1234u);
}

TEST_F(CoreTest, LoadReadsValueBack)
{
    rig.poke64(0x10000080, 0xfeed);
    cpu::Instruction ld;
    ld.op = cpu::Op::Load;
    ld.pc = 0x00400000;
    ld.effAddr = 0x10000080;
    auto r = core.execute(1, ld);
    EXPECT_EQ(r.loadValue, 0xfeedu);
}

// The core reads and writes the frame its hierarchy translated the
// access to, and the hierarchy translates after the checkpoint hooks
// ran: a hook that remaps the page (as the page-remap schemes do)
// redirects the access to the new frame.
TEST_F(CoreTest, AccessUsesTheFrameTranslatedAfterTheHooks)
{
    struct RemapHooks : cpu::CheckpointHooks
    {
        MemoryRig *rig = nullptr;
        Pfn fresh = invalidPfn;

        Cycles
        remap(Addr vaddr)
        {
            fresh = rig->phys.allocFrame();
            rig->phys.write64(fresh, 0x80, 0x77);
            rig->space->remapPage(vaddr / rig->cfg.pageBytes, fresh);
            return 0;
        }
        Cycles onStore(Tick, Pid, Addr a, std::uint32_t) override
        {
            return remap(a);
        }
        Cycles onLoad(Tick, Pid, Addr a, std::uint32_t) override
        {
            return remap(a);
        }
    } hooks;
    hooks.rig = &rig;
    core.setCheckpointHooks(&hooks);

    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0x1234;
    EXPECT_EQ(core.execute(1, st).fault, mem::MemFault::None);
    EXPECT_EQ(rig.phys.read64(hooks.fresh, 0x40), 0x1234u);

    cpu::Instruction ld;
    ld.op = cpu::Op::Load;
    ld.pc = 0x00400000;
    ld.effAddr = 0x10000080;
    EXPECT_EQ(core.execute(1, ld).loadValue, 0x77u);
}

TEST(CoreWatchdog, DeniedAccessTouchesNoMemory)
{
    MemoryRig rig(testutil::smallConfig(), true);
    rig.space->mapRegion(0x00400000, 1, os::Region::Code);
    rig.space->mapRegion(0x10000000, 1, os::Region::Data);
    cpu::Core core(rig.cfg, 1, Privilege::Low, *rig.hierarchy, rig.phys,
                   rig.stats);
    rig.poke64(0x10000040, 0xaaaa);
    Pfn pfn = rig.space->translate(1, 0x10000000 / rig.cfg.pageBytes);
    rig.watchdog->revokeAll(pfn);
    std::uint64_t version = rig.phys.frameVersion(pfn);

    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0xbbbb;
    EXPECT_EQ(core.execute(1, st).fault, mem::MemFault::Protection);
    EXPECT_EQ(rig.peek64(0x10000040), 0xaaaau);
    EXPECT_EQ(rig.phys.frameVersion(pfn), version);

    cpu::Instruction ld = st;
    ld.op = cpu::Op::Load;
    auto r = core.execute(1, ld);
    EXPECT_EQ(r.fault, mem::MemFault::Protection);
    EXPECT_EQ(r.loadValue, 0u);
}

TEST_F(CoreTest, HookCalledBeforeFunctionalWrite)
{
    FakeHooks hooks;
    hooks.rig = &rig;
    hooks.watch = 0x10000040;
    core.setCheckpointHooks(&hooks);
    rig.poke64(0x10000040, 0xaaaa);  // old value

    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    st.value = 0xbbbb;
    core.execute(1, st);

    // The hook must observe the OLD value (backup-before-write).
    EXPECT_EQ(hooks.observedAtStore, 0xaaaau);
    EXPECT_EQ(rig.peek64(0x10000040), 0xbbbbu);
    EXPECT_EQ(hooks.stores, 1);
}

TEST_F(CoreTest, HookCostStallsPipeline)
{
    FakeHooks hooks;
    hooks.storeCost = 500;
    core.setCheckpointHooks(&hooks);
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x10000040;
    Tick before = core.curTick();
    core.execute(1, st);
    EXPECT_GE(core.curTick(), before + 500);
}

TEST_F(CoreTest, CallEmitsCallRecord)
{
    cpu::Instruction call;
    call.op = cpu::Op::Call;
    call.pc = 0x00400100;
    call.target = 0x00400400;
    call.effAddr = 0x7ffe0000;
    core.execute(1, call);
    ASSERT_EQ(sink.countKind(cpu::TraceKind::Call), 1);
    const auto &rec = sink.records.back();
    EXPECT_EQ(rec.target, 0x00400400u);
    EXPECT_EQ(rec.retAddr, 0x00400104u);
    EXPECT_EQ(rec.sp, 0x7ffe0000u);
    EXPECT_EQ(rec.pid, 1u);
}

TEST_F(CoreTest, IndirectCallEmitsCallAndTransfer)
{
    cpu::Instruction call;
    call.op = cpu::Op::CallInd;
    call.pc = 0x00400100;
    call.target = 0x00400800;
    core.execute(1, call);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Call), 1);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CtrlTransfer), 1);
}

TEST_F(CoreTest, ReturnAndJumpIndEmitRecords)
{
    cpu::Instruction ret;
    ret.op = cpu::Op::Return;
    ret.pc = 0x00400200;
    ret.target = 0x00400104;
    core.execute(1, ret);
    cpu::Instruction jmp;
    jmp.op = cpu::Op::JumpInd;
    jmp.pc = 0x00400204;
    jmp.target = 0x00400400;
    core.execute(1, jmp);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Return), 1);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CtrlTransfer), 1);
}

TEST_F(CoreTest, SetjmpLongjmpEmitRecords)
{
    cpu::Instruction sj;
    sj.op = cpu::Op::Setjmp;
    sj.pc = 0x00400100;
    sj.imm = 3;
    core.execute(1, sj);
    ASSERT_EQ(sink.countKind(cpu::TraceKind::Setjmp), 1);
    EXPECT_EQ(sink.records.back().env, 3u);
    EXPECT_EQ(sink.records.back().target, 0x00400104u);

    cpu::Instruction lj;
    lj.op = cpu::Op::Longjmp;
    lj.pc = 0x00400300;
    lj.target = 0x00400104;
    lj.imm = 3;
    core.execute(1, lj);
    EXPECT_EQ(sink.countKind(cpu::TraceKind::Longjmp), 1);
}

TEST_F(CoreTest, DirectJumpEmitsNothing)
{
    core.execute(1, alu(0x00400100));  // warm the fetch line
    sink.records.clear();
    cpu::Instruction jmp;
    jmp.op = cpu::Op::Jump;
    jmp.pc = 0x00400104;
    jmp.target = 0x00400200;
    core.execute(1, jmp);
    EXPECT_TRUE(sink.records.empty());
}

TEST_F(CoreTest, CodeOriginEmittedOnFillOnce)
{
    core.execute(1, alu(0x00400000));
    int first = sink.countKind(cpu::TraceKind::CodeOrigin);
    EXPECT_EQ(first, 1);
    // Same page, new line: CAM filters the second check.
    core.execute(1, alu(0x00400040));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 1);
    // Far page: CAM miss, new record.
    core.execute(1, alu(0x00402000));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 2);
}

TEST_F(CoreTest, SyscallWaitsForMonitorDrain)
{
    FakeOs osh;
    core.setSyscallHandler(&osh);
    sink.drain = 5000;
    cpu::Instruction sc;
    sc.op = cpu::Op::Syscall;
    sc.pc = 0x00400000;
    sc.imm = 99;
    core.execute(1, sc);
    EXPECT_GE(core.curTick(), 5000u);
    EXPECT_EQ(osh.calls, 1);
}

TEST_F(CoreTest, IoWriteWaitsForMonitorDrain)
{
    sink.drain = 7777;
    cpu::Instruction io;
    io.op = cpu::Op::IoWrite;
    io.pc = 0x00400000;
    core.execute(1, io);
    EXPECT_GE(core.curTick(), 7777u);
}

TEST_F(CoreTest, SyscallTerminationPropagates)
{
    FakeOs osh;
    osh.terminate = true;
    core.setSyscallHandler(&osh);
    cpu::Instruction sc;
    sc.op = cpu::Op::Syscall;
    sc.pc = 0x00400000;
    auto r = core.execute(1, sc);
    EXPECT_TRUE(r.terminated);
}

TEST_F(CoreTest, HaltSetsFlag)
{
    cpu::Instruction h;
    h.op = cpu::Op::Halt;
    h.pc = 0x00400000;
    auto r = core.execute(1, h);
    EXPECT_TRUE(r.halted);
}

TEST_F(CoreTest, UnmappedFetchFaults)
{
    auto r = core.execute(1, alu(0x50000000));
    EXPECT_EQ(r.fault, mem::MemFault::Unmapped);
}

TEST_F(CoreTest, UnmappedStoreFaults)
{
    cpu::Instruction st;
    st.op = cpu::Op::Store;
    st.pc = 0x00400000;
    st.effAddr = 0x60000000;
    auto r = core.execute(1, st);
    EXPECT_EQ(r.fault, mem::MemFault::Unmapped);
}

TEST_F(CoreTest, HighPrivilegeCoreEmitsNoRecords)
{
    cpu::Core high(rig.cfg, 0, Privilege::High, *rig.hierarchy,
                   rig.phys, rig.stats);
    high.setTraceSink(&sink);
    cpu::Instruction call;
    call.op = cpu::Op::Call;
    call.pc = 0x00400100;
    call.target = 0x00400400;
    high.execute(1, call);
    EXPECT_TRUE(sink.records.empty());
}

TEST_F(CoreTest, StallUntilMovesTimeForwardOnly)
{
    core.stallUntil(100);
    EXPECT_EQ(core.curTick(), 100u);
    core.stallUntil(50);
    EXPECT_EQ(core.curTick(), 100u);
}

TEST_F(CoreTest, ResetTimeClearsClock)
{
    core.execute(1, alu(0x00400000));
    core.resetTime();
    EXPECT_EQ(core.curTick(), 0u);
}

TEST_F(CoreTest, FlushPipelineForcesRefetch)
{
    core.execute(1, alu(0x00400000));
    std::uint64_t accesses =
        rig.hierarchy->l1iCache().accesses();
    core.execute(1, alu(0x00400004));  // same line: no new access
    EXPECT_EQ(rig.hierarchy->l1iCache().accesses(), accesses);
    core.flushPipeline();
    core.execute(1, alu(0x00400008));  // refetch after flush
    EXPECT_EQ(rig.hierarchy->l1iCache().accesses(), accesses + 1);
}

// FilterCam behaviour within the core.
TEST_F(CoreTest, ZeroEntryCamSendsEveryFill)
{
    SystemConfig cfg = rig.cfg;
    cfg.filterCamEntries = 0;
    cpu::Core nocam(cfg, 2, Privilege::Low, *rig.hierarchy, rig.phys,
                    rig.stats);
    nocam.setTraceSink(&sink);
    nocam.execute(1, alu(0x00400000));
    nocam.execute(1, alu(0x00400040));
    nocam.execute(1, alu(0x00400080));
    EXPECT_EQ(sink.countKind(cpu::TraceKind::CodeOrigin), 3);
}
