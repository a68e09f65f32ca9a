#include "check/invariants.hh"

#include <sstream>

#include "checkpoint/delta_backup.hh"
#include "mem/phys_mem.hh"
#include "mem/watchdog.hh"
#include "os/address_space.hh"
#include "resilience/guard.hh"

namespace indra::check
{

const char *
invariantName(InvariantId id)
{
    switch (id) {
      case InvariantId::MemoryRestoreExact:
        return "memory-restore-exact";
      case InvariantId::DeltaRollbackConsistent:
        return "delta-rollback-consistent";
      case InvariantId::DeltaDirtySubsetTouched:
        return "delta-dirty-subset-touched";
      case InvariantId::BackupFramesLive:
        return "backup-frames-live";
      case InvariantId::HealthTransitionLegal:
        return "health-transition-legal";
      case InvariantId::TokenConservation:
        return "token-conservation";
      case InvariantId::WatchdogGrantsBacked:
        return "watchdog-grants-backed";
      case InvariantId::FifoModelConforms:
        return "fifo-model-conforms";
      case InvariantId::UndoLogModelConforms:
        return "undo-log-model-conforms";
      case InvariantId::RejuvenationClearsDormant:
        return "rejuvenation-clears-dormant";
      case InvariantId::DomainRewindConfined:
        return "domain-rewind-confined";
      case InvariantId::DomainRewindClearsDormant:
        return "domain-rewind-clears-dormant";
    }
    return "??";
}

std::string
Violation::describe() const
{
    std::ostringstream os;
    os << invariantName(id) << " pid " << pid << " epoch " << epoch
       << " tick " << tick;
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

bool
healthEdgeLegal(resilience::HealthState from, resilience::HealthState to)
{
    using resilience::HealthState;
    // Any state may enter Rejuvenating: the recovery ladder can
    // rebuild the service regardless of what admission thought of it.
    if (to == HealthState::Rejuvenating)
        return true;
    switch (from) {
      case HealthState::Healthy:
        return to == HealthState::Degraded;
      case HealthState::Degraded:
        return to == HealthState::Quarantined ||
               to == HealthState::Healthy;
      case HealthState::Quarantined:
        return to == HealthState::Degraded;
      case HealthState::Rejuvenating:
        return to == HealthState::Healthy;
    }
    return false;
}

namespace
{

bool
deltaRollbackConsistent(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.delta)
        return true;
    for (const auto &[vpn, rec] : ctx.delta->recordMap()) {
        bool any = rec.rollbackBv.any();
        if (rec.rollbackVld != any) {
            std::ostringstream os;
            os << "vpn 0x" << std::hex << vpn << std::dec
               << ": rollbackVld=" << rec.rollbackVld
               << " but rollback bits " << (any ? "set" : "clear");
            detail = os.str();
            return false;
        }
    }
    return true;
}

bool
deltaDirtySubsetTouched(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.delta)
        return true;
    const auto &records = ctx.delta->recordMap();
    for (Vpn vpn : ctx.delta->touchedSet()) {
        auto it = records.find(vpn);
        std::ostringstream os;
        os << "touched vpn 0x" << std::hex << vpn << std::dec;
        if (it == records.end()) {
            detail = os.str() + " has no backup record";
            return false;
        }
        if (it->second.lts != ctx.gts) {
            os << " has stale lts " << it->second.lts << " (gts "
               << ctx.gts << ")";
            detail = os.str();
            return false;
        }
        if (!it->second.dirtyBv.any()) {
            detail = os.str() + " has no dirty lines backed up";
            return false;
        }
    }
    return true;
}

bool
backupFramesLive(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.delta || !ctx.phys)
        return true;
    for (const auto &[vpn, rec] : ctx.delta->recordMap()) {
        if (rec.backupPfn == invalidPfn)
            continue;
        if (!ctx.phys->isAllocated(rec.backupPfn)) {
            std::ostringstream os;
            os << "vpn 0x" << std::hex << vpn
               << ": backup pfn 0x" << rec.backupPfn
               << " is not an allocated frame";
            detail = os.str();
            return false;
        }
    }
    return true;
}

bool
healthTransitionLegal(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.guard)
        return true;
    const auto &log = ctx.guard->health().transitionLog();
    for (std::size_t i = 1; i < log.size(); ++i) {
        if (!healthEdgeLegal(log[i - 1].second, log[i].second)) {
            std::ostringstream os;
            os << "illegal edge "
               << resilience::healthStateName(log[i - 1].second)
               << " -> "
               << resilience::healthStateName(log[i].second)
               << " at tick " << log[i].first;
            detail = os.str();
            return false;
        }
        if (log[i].first < log[i - 1].first) {
            std::ostringstream os;
            os << "transition log ticks not monotone at entry " << i;
            detail = os.str();
            return false;
        }
    }
    return true;
}

bool
tokenConservation(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.guard)
        return true;
    // Replenishment is clamped at the burst depth and takes never
    // overdraw, so a bucket's level must stay inside [0, burst].
    // A small epsilon absorbs accumulated floating-point error.
    constexpr double eps = 1e-6;
    for (std::size_t c = 0; c < net::clientClassCount; ++c) {
        auto cls = static_cast<net::ClientClass>(c);
        const auto &bucket = ctx.guard->admission().bucket(cls);
        if (!bucket.limiting())
            continue;
        double level = bucket.tokens();
        if (level < -eps || level > bucket.burstDepth() + eps) {
            std::ostringstream os;
            os << net::clientClassName(cls) << " bucket level "
               << level << " outside [0, " << bucket.burstDepth()
               << "]";
            detail = os.str();
            return false;
        }
    }
    return true;
}

bool
watchdogGrantsBacked(const CheckContext &ctx, std::string &detail)
{
    if (!ctx.watchdog || !ctx.phys)
        return true;
    // The kernel revokes grants when a page is unmapped or remapped,
    // so no live grant may point at a freed frame.
    const auto &grants = ctx.watchdog->grantTable();
    for (Pfn pfn = 0; pfn < grants.size(); ++pfn) {
        std::uint64_t mask = grants[pfn];
        if (mask == 0)
            continue;
        if (!ctx.phys->isAllocated(pfn)) {
            std::ostringstream os;
            os << "grant mask 0x" << std::hex << mask << " on freed"
               << " pfn 0x" << pfn;
            detail = os.str();
            return false;
        }
    }
    return true;
}

} // anonymous namespace

InvariantRegistry::InvariantRegistry()
{
    add(InvariantId::DeltaRollbackConsistent, deltaRollbackConsistent);
    add(InvariantId::DeltaDirtySubsetTouched, deltaDirtySubsetTouched);
    add(InvariantId::BackupFramesLive, backupFramesLive);
    add(InvariantId::HealthTransitionLegal, healthTransitionLegal);
    add(InvariantId::TokenConservation, tokenConservation);
    add(InvariantId::WatchdogGrantsBacked, watchdogGrantsBacked);
}

void
InvariantRegistry::add(InvariantId id, Predicate fn)
{
    entries.push_back(Entry{id, std::move(fn)});
}

std::size_t
InvariantRegistry::evaluate(const CheckContext &ctx, Tick tick, Pid pid,
                            std::uint64_t epoch,
                            std::vector<Violation> &out) const
{
    std::size_t fired = 0;
    for (const Entry &entry : entries) {
        std::string detail;
        if (!entry.fn(ctx, detail)) {
            out.push_back(
                Violation{entry.id, tick, pid, epoch, 0, detail});
            ++fired;
        }
    }
    return fired;
}

} // namespace indra::check
