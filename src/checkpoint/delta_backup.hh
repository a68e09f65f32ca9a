/**
 * @file
 * INDRA's delta state backup and recovery-on-demand engine
 * (Section 3.3.1, Figures 3-7 of the paper).
 *
 * Each virtual page requiring backup gets a physical *backup page*
 * holding the original values of the lines first modified since the
 * current global checkpoint (GTS). A backup page record carries the
 * page's local timestamp (LTS), a dirty-block bitvector, and a
 * rollback bitvector. On failure, rollback bitvectors are armed by
 * OR-ing in the dirty bits — no memory is copied; lines are recovered
 * lazily on their next read (or superseded by their next write), so
 * both backup and rollback costs are amortized into execution.
 */

#ifndef INDRA_CKPT_DELTA_BACKUP_HH
#define INDRA_CKPT_DELTA_BACKUP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "checkpoint/bitvec.hh"
#include "checkpoint/policy.hh"

namespace indra::ckpt
{

/** The backup page record of Figure 3. */
struct BackupPageRecord
{
    Pfn backupPfn = invalidPfn;   //!< physical backup page
    std::uint64_t lts = 0;        //!< local checkpoint timestamp
    LineBitVector dirtyBv;        //!< lines backed up this epoch
    LineBitVector rollbackBv;     //!< lines pending lazy rollback
    bool rollbackVld = false;     //!< fast "any rollback pending" flag
    /** Touch epoch in which the page last joined the touched list. */
    std::uint64_t touchStamp = 0;
    /**
     * Per-line FNV checksum of the backup copy, recorded when the
     * line entered the backup page; consulted for lines with a dirty
     * or rollback bit set before their backup copy is trusted.
     */
    std::vector<std::uint32_t> lineSums;
    /**
     * FNV checksum of the backup line's *current* bytes, updated on
     * every write to the backup copy (the seal itself and any injected
     * flip). Backup frames are written only through sealBackupLine, so
     * this cache is exact and integrity checks reduce to comparing it
     * against lineSums — no memory is re-read or re-hashed.
     */
    std::vector<std::uint32_t> liveSums;
};

/**
 * The delta-page engine.
 */
class DeltaBackup : public CheckpointPolicy
{
  public:
    DeltaBackup(const SystemConfig &cfg, os::ProcessContext &context,
                os::AddressSpace &space, mem::PhysicalMemory &phys,
                mem::MemHierarchy &mem, stats::StatGroup &parent);

    ~DeltaBackup() override;

    const char *name() const override { return "delta-backup"; }

    // Figure 4: the write path.
    Cycles onStore(Tick tick, Pid pid, Addr vaddr,
                   std::uint32_t bytes) override;

    // Figure 5: the read path (rollback on demand).
    Cycles onLoad(Tick tick, Pid pid, Addr vaddr,
                  std::uint32_t bytes) override;

    // Figure 6: success path — bookkeeping for per-request stats only
    // (epoch change is carried by the GTS the kernel already bumped).
    Cycles onRequestBegin(Tick tick) override;

    // Figure 6: failure path — arm rollback bitvectors, no copying.
    Cycles onFailure(Tick tick) override;

    /** Apply every pending lazy rollback now (tests / ablation). */
    Cycles drainRollback(Tick tick) override;

    /** Drop all dirty/rollback state (macro restore supersedes it). */
    void invalidate() override;

    /** Checksum-verify every backup line a micro recovery would use. */
    bool verifyIntegrity(Tick tick) override;

    /** The record for @p vpn, or nullptr if none exists yet. */
    const BackupPageRecord *record(Vpn vpn) const;

    /** All backup records, for invariant checkers (read-only). */
    const std::unordered_map<Vpn, BackupPageRecord> &
    recordMap() const
    {
        return records;
    }

    /** Vpns whose record's LTS equals the current GTS, once each. */
    const std::vector<Vpn> &
    touchedSet() const
    {
        return touchedThisEpoch;
    }

    /** Number of backup pages currently allocated. */
    std::uint64_t backupPagesAllocated() const;

    /** Pages written during the current epoch. */
    std::uint64_t pagesTouchedThisEpoch() const;

    /** Lines backed up during the current epoch. */
    std::uint64_t linesBackedUpThisEpoch() const;

    /**
     * Per-request ratio of backed-up lines to all lines of the pages
     * touched (the Figure 15 metric), sampled at each request end.
     */
    const stats::Distribution &dirtyLineRatio() const
    {
        return statDirtyLineRatio;
    }

    /** Pages touched per request distribution (~50 in the paper). */
    const stats::Distribution &pagesPerRequest() const
    {
        return statPagesPerRequest;
    }

  protected:
    /** Subclass constructor: same engine, its own stat subtree. */
    DeltaBackup(const SystemConfig &cfg, os::ProcessContext &context,
                os::AddressSpace &space, mem::PhysicalMemory &phys,
                mem::MemHierarchy &mem, stats::StatGroup &parent,
                const char *group_name);

  private:
    /**
     * records.find with a one-entry memo: stores and loads cluster on
     * the same page, so most lookups repeat the previous vpn. Node
     * pointers of std::unordered_map are stable across inserts and
     * records are never erased, so the memo cannot dangle.
     */
    BackupPageRecord *
    findRecord(Vpn vpn)
    {
        if (lastRec && lastVpn == vpn)
            return lastRec;
        auto it = records.find(vpn);
        if (it == records.end())
            return nullptr;
        lastVpn = vpn;
        lastRec = &it->second;
        return lastRec;
    }

    /** Get-or-create the record for @p vpn. */
    BackupPageRecord &recordFor(Vpn vpn, Tick tick, Cycles &cost);

    /** Sample the Figure 15 metrics if @p sample; start a new epoch. */
    void closeEpoch(bool sample);

    /** Checksum of one backup line's current bytes. */
    std::uint32_t lineChecksum(Pfn pfn, std::uint32_t off) const;

    /**
     * Record the checksum of a line just copied into the backup page,
     * then give the fault injector a shot at flipping a bit in it.
     */
    void sealBackupLine(BackupPageRecord &rec, std::uint32_t line);

    /** True when the backup copy of @p line still matches its seal. */
    bool lineIntact(const BackupPageRecord &rec,
                    std::uint32_t line) const;

    std::unordered_map<Vpn, BackupPageRecord> records;
    Vpn lastVpn = ~static_cast<Vpn>(0);
    BackupPageRecord *lastRec = nullptr;
    mutable std::vector<std::uint8_t> lineBuf;
    /** vpns whose record's LTS equals the current GTS, each once. */
    std::vector<Vpn> touchedThisEpoch;
    /** Bumped by closeEpoch; a record stamped with it is listed. */
    std::uint64_t touchEpoch = 1;
    std::uint64_t epochLinesBackedUp = 0;
    /** No record can be pending rollback while this is false. */
    bool rollbackArmed = false;

    stats::Scalar statRecordsAllocated;
    stats::Scalar statLazyLineRecoveries;
    stats::Scalar statSupersededLines;
    stats::Distribution statDirtyLineRatio;
    stats::Distribution statPagesPerRequest;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_DELTA_BACKUP_HH
