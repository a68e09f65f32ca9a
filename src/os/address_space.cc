#include "os/address_space.hh"

#include "sim/logging.hh"

namespace indra::os
{

const char *
regionName(Region r)
{
    switch (r) {
      case Region::Code:
        return "code";
      case Region::Data:
        return "data";
      case Region::Heap:
        return "heap";
      case Region::Stack:
        return "stack";
      case Region::DynCode:
        return "dyncode";
    }
    return "??";
}

AddressSpace::AddressSpace(Pid pid, mem::PhysicalMemory &phys_ref,
                           std::uint32_t page_bytes,
                           mem::MemWatchdog *watchdog_ptr,
                           CoreId owner_core)
    : _pid(pid), phys(phys_ref), pageSize(page_bytes),
      watchdog(watchdog_ptr), ownerCore(owner_core)
{
}

AddressSpace::~AddressSpace()
{
    for (auto &[vpn, info] : table) {
        if (watchdog)
            watchdog->revokeAll(info.pfn);
        phys.freeFrame(info.pfn);
    }
}

Pfn
AddressSpace::translate(Pid pid, Vpn vpn) const
{
    if (pid != _pid)
        return invalidPfn;
    const PageInfo *info = find(vpn);
    return info ? info->pfn : invalidPfn;
}

void
AddressSpace::mapRegion(Addr base, std::uint64_t num_pages, Region region)
{
    panic_if(!isAligned(base, pageSize), "region base not page-aligned");
    Vpn first = base / pageSize;
    for (std::uint64_t i = 0; i < num_pages; ++i)
        mapPage(first + i, region);
}

Pfn
AddressSpace::mapPage(Vpn vpn, Region region)
{
    panic_if(table.count(vpn), "vpn ", vpn, " already mapped");
    PageInfo info;
    info.pfn = phys.allocFrame();
    info.region = region;
    info.executable =
        (region == Region::Code || region == Region::DynCode);
    table[vpn] = info;
    if (watchdog)
        watchdog->grant(info.pfn, ownerCore);
    return info.pfn;
}

bool
AddressSpace::unmapPage(Vpn vpn)
{
    auto it = table.find(vpn);
    if (it == table.end())
        return false;
    if (watchdog)
        watchdog->revokeAll(it->second.pfn);
    phys.freeFrame(it->second.pfn);
    table.erase(it);
    return true;
}

Pfn
AddressSpace::remapPage(Vpn vpn, Pfn new_pfn)
{
    auto it = table.find(vpn);
    panic_if(it == table.end(), "remapping unmapped vpn ", vpn);
    Pfn old = it->second.pfn;
    if (watchdog) {
        watchdog->revokeAll(old);
        watchdog->grant(new_pfn, ownerCore);
    }
    phys.freeFrame(old);
    it->second.pfn = new_pfn;
    return old;
}

const PageInfo &
AddressSpace::pageInfo(Vpn vpn) const
{
    const PageInfo *info = find(vpn);
    panic_if(!info, "pageInfo on unmapped vpn ", vpn);
    return *info;
}

std::vector<Vpn>
AddressSpace::mappedPages() const
{
    std::vector<Vpn> out;
    out.reserve(table.size());
    for (const auto &[vpn, info] : table)
        out.push_back(vpn);
    return out;
}

} // namespace indra::os
