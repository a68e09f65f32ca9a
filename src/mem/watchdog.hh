/**
 * @file
 * The INDRA hardware memory watchdog (Sections 2.3.1 and 3.1.1).
 *
 * Every memory access is tagged with the issuing core's ID. The
 * watchdog holds, per physical frame, the set of low-privilege cores
 * allowed to touch it; high-privilege (resurrector) cores always pass.
 * Frames not explicitly granted are resurrector-private — this is the
 * "hardware sandbox" that makes the resurrector invisible to the
 * resurrectees.
 */

#ifndef INDRA_MEM_WATCHDOG_HH
#define INDRA_MEM_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace indra::mem
{

/** Outcome of a watchdog check. */
enum class WatchdogVerdict : std::uint8_t
{
    Allowed,            //!< access permitted
    DeniedPrivate,      //!< low-privilege core touched a private frame
    DeniedWrongCore,    //!< frame granted, but not to this core
};

/**
 * Per-frame access-rights table, consulted on every physical access
 * issued by a low-privilege core.
 */
class MemWatchdog
{
  public:
    explicit MemWatchdog(stats::StatGroup &parent);

    /**
     * Grant core @p core access to frame @p pfn. Only the resurrector
     * (during boot or page allocation) calls this.
     */
    void grant(Pfn pfn, CoreId core);

    /** Revoke core @p core's access to frame @p pfn. */
    void revoke(Pfn pfn, CoreId core);

    /** Revoke every grant on @p pfn (frame becomes private again). */
    void revokeAll(Pfn pfn);

    /**
     * Check an access. High-privilege cores are always allowed;
     * low-privilege cores must hold a grant on the frame.
     */
    WatchdogVerdict
    check(CoreId core, Privilege priv, Pfn pfn)
    {
        ++checks;
        if (priv == Privilege::High)
            return WatchdogVerdict::Allowed;
        // Guard the shift below: a core ID of 64+ would be undefined
        // behaviour, not a denial, and grant() already enforces the
        // limit on the producing side.
        panic_if(core >= 64, "watchdog supports at most 64 cores");
        std::uint64_t mask = maskOf(pfn);
        if (mask == 0) {
            ++denied;
            return WatchdogVerdict::DeniedPrivate;
        }
        if (!(mask & (1ULL << core))) {
            ++denied;
            return WatchdogVerdict::DeniedWrongCore;
        }
        return WatchdogVerdict::Allowed;
    }

    /** True if @p core currently holds a grant on @p pfn. */
    bool isGranted(Pfn pfn, CoreId core) const;

    /** Number of denied accesses observed so far. */
    std::uint64_t denials() const;

    /** Grant masks indexed by Pfn, for invariant checkers (read-only). */
    const std::vector<std::uint64_t> &
    grantTable() const
    {
        return grants;
    }

  private:
    /** Grant mask of @p pfn; 0 means resurrector-private. */
    std::uint64_t
    maskOf(Pfn pfn) const
    {
        return pfn < grants.size() ? grants[pfn] : 0;
    }

    /** Granted-core bitmask per Pfn (up to 64 cores), grown on grant. */
    std::vector<std::uint64_t> grants;

    stats::StatGroup statGroup;
    stats::Scalar checks;
    stats::Scalar denied;
};

} // namespace indra::mem

#endif // INDRA_MEM_WATCHDOG_HH
