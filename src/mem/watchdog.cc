#include "mem/watchdog.hh"

#include "sim/logging.hh"

namespace indra::mem
{

MemWatchdog::MemWatchdog(stats::StatGroup &parent)
    : statGroup(parent, "watchdog"),
      checks(statGroup, "checks", "accesses checked"),
      denied(statGroup, "denied", "accesses denied")
{
}

void
MemWatchdog::grant(Pfn pfn, CoreId core)
{
    panic_if(core >= 64, "watchdog supports at most 64 cores");
    if (pfn >= grants.size())
        grants.resize(pfn + 1, 0);
    grants[pfn] |= (1ULL << core);
}

void
MemWatchdog::revoke(Pfn pfn, CoreId core)
{
    panic_if(core >= 64, "watchdog supports at most 64 cores");
    if (pfn < grants.size())
        grants[pfn] &= ~(1ULL << core);
}

void
MemWatchdog::revokeAll(Pfn pfn)
{
    if (pfn < grants.size())
        grants[pfn] = 0;
}

bool
MemWatchdog::isGranted(Pfn pfn, CoreId core) const
{
    panic_if(core >= 64, "watchdog supports at most 64 cores");
    return (maskOf(pfn) & (1ULL << core)) != 0;
}

std::uint64_t
MemWatchdog::denials() const
{
    return static_cast<std::uint64_t>(denied.value());
}

} // namespace indra::mem
