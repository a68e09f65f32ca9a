/**
 * @file
 * The in-order, width-8 core model (Table 4).
 *
 * Timing is instruction-granular: up to `commitWidth` simple ops
 * retire per cycle; cache/TLB/DRAM misses and FIFO backpressure stall
 * the whole pipeline. Resurrectee cores additionally:
 *
 *  - emit code-origin records at the L2->IL1 fill interface, filtered
 *    by the on-core CAM (Section 3.2.2);
 *  - emit call/return, indirect-transfer and setjmp/longjmp records
 *    at retire (Sections 3.2.1, 3.2.3);
 *  - synchronize with the resurrector before I/O writes and syscalls
 *    and when the trace FIFO fills (Section 3.2.5);
 *  - invoke the checkpoint engine's hooks around every load/store
 *    (Figures 4 and 5).
 */

#ifndef INDRA_CPU_CORE_HH
#define INDRA_CPU_CORE_HH

#include <cstdint>

#include "cpu/filter_cam.hh"
#include "cpu/hooks.hh"
#include "cpu/isa.hh"
#include "cpu/trace.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::cpu
{

/** What executing one instruction produced. */
struct ExecResult
{
    mem::MemFault fault = mem::MemFault::None;
    bool halted = false;      //!< Op::Halt retired
    bool terminated = false;  //!< the OS killed the service (crash)
    std::uint64_t loadValue = 0;
};

/**
 * One processor core.
 */
class Core
{
  public:
    /**
     * @param cfg      system configuration
     * @param id       core id (tags every memory access and record)
     * @param priv     privilege level in the asymmetric configuration
     * @param hierarchy this core's memory hierarchy
     * @param phys     functional memory
     * @param parent   stat group
     */
    Core(const SystemConfig &cfg, CoreId id, Privilege priv,
         mem::MemHierarchy &hierarchy, mem::PhysicalMemory &phys,
         stats::StatGroup &parent);

    /** Attach the monitor's trace sink (resurrectees only). */
    void setTraceSink(TraceSink *sink) { traceSink = sink; }

    /** Attach the checkpoint engine's hooks. */
    void setCheckpointHooks(CheckpointHooks *hooks) { ckptHooks = hooks; }

    /** Attach the OS syscall handler. */
    void setSyscallHandler(SyscallHandler *handler) { osHandler = handler; }

    /** Execute one instruction of process @p pid. */
    ExecResult
    execute(Pid pid, const Instruction &inst)
    {
        // Fast path: a simple op whose fetch line is already warm
        // retires with no memory access, trace record, or hook call —
        // only the retire accounting below has any effect, so the
        // general path is bypassed for the bulk of the stream.
        if ((inst.op == Op::Alu || inst.op == Op::Jump) &&
            alignDown(inst.pc, config.l1i.lineBytes) == lastFetchLine) {
            ++statInstructions;
            consumeSlot();
            return ExecResult{};
        }
        return executeSlow(pid, inst);
    }

    /** Current simulated time on this core. */
    Tick curTick() const { return tick; }

    /** Force time forward (resurrector-driven stall / resume point). */
    void stallUntil(Tick t);

    /** Add @p cycles of pipeline stall. */
    void stall(Cycles cycles);

    /**
     * Pipeline flush + fetch-state reset, as triggered by the
     * resurrector on recovery (Section 2.3.3).
     */
    void flushPipeline();

    /**
     * Context switch to another process: flush the pipeline and
     * invalidate the filter CAM (its entries are bare page addresses,
     * so stale entries would wrongly waive another process's
     * code-origin checks). The GTS travels with the process context
     * (paper footnote 5). Returns the switch cost in cycles.
     */
    Cycles onContextSwitch();

    /** Instructions retired so far. */
    std::uint64_t instructions() const;

    CoreId coreId() const { return id; }
    Privilege privilege() const { return priv; }
    mem::MemHierarchy &memSystem() { return hierarchy; }
    FilterCam &filterCam() { return cam; }

    /** Reset time to zero (between measurement runs). */
    void resetTime();

  private:
    /** Account one issue slot; rolls the cycle over at full width. */
    void
    consumeSlot()
    {
        if (++slotsUsed >= config.commitWidth) {
            slotsUsed = 0;
            ++tick;
        }
    }

    /** The general execute path (misses, memory ops, records). */
    ExecResult executeSlow(Pid pid, const Instruction &inst);

    /** Instruction-fetch path; returns any fault. */
    mem::MemFault doFetch(Pid pid, const Instruction &inst);

    /** Send @p rec to the monitor, applying FIFO backpressure. */
    void emitRecord(const TraceRecord &rec);

    /** Wait until all previously sent records are verified. */
    void syncWithMonitor();

    bool monitored() const
    {
        return traceSink != nullptr && priv == Privilege::Low;
    }

    const SystemConfig &config;
    CoreId id;
    Privilege priv;
    mem::MemHierarchy &hierarchy;
    mem::PhysicalMemory &phys;

    TraceSink *traceSink = nullptr;
    CheckpointHooks *ckptHooks = nullptr;
    SyscallHandler *osHandler = nullptr;

    Tick tick = 0;
    std::uint32_t slotsUsed = 0;
    Addr lastFetchLine = invalidAddr;

    FilterCam cam;

    stats::StatGroup statGroup;
    stats::Scalar statInstructions;
    stats::Scalar statLoads;
    stats::Scalar statStores;
    stats::Scalar statCalls;
    stats::Scalar statReturns;
    stats::Scalar statIndirect;
    stats::Scalar statSyscalls;
    stats::Scalar statIoWrites;
    stats::Scalar statRecordsSent;
    stats::Scalar statSyncStallCycles;
    stats::Scalar statMemStallCycles;
};

} // namespace indra::cpu

#endif // INDRA_CPU_CORE_HH
