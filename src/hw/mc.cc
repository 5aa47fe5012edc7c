#include "hw/mc.hh"

#include "hw/dma.hh"
#include "obs/debug.hh"

namespace ap::hw
{

Mc::Mc(CellMemory &mem) : mem(mem)
{
}

bool
Mc::increment_flag(Addr addr)
{
    if (addr == no_flag)
        return true;
    Translation t = mmuUnit.translate(addr, true);
    if (!t.valid) {
        ++mcStats.flagFaults;
        AP_DPRINTF(MC, "flag fault at 0x%llx",
                   static_cast<unsigned long long>(addr));
        return false;
    }
    mem.fetch_increment_u32(t.paddr);
    ++mcStats.flagIncrements;
    if (tracer)
        tracer->instant(traceTrack, "flag", "flag_increment");
    AP_DPRINTF(MC, "flag increment at 0x%llx",
               static_cast<unsigned long long>(addr));
    flagCond.notify_all();
    return true;
}

std::uint32_t
Mc::read_flag(Addr addr)
{
    if (addr == no_flag)
        return 0;
    Translation t = mmuUnit.translate(addr, false);
    if (!t.valid) {
        ++mcStats.accessFaults;
        return 0;
    }
    return mem.read_u32(t.paddr);
}

bool
Mc::load(Addr addr, std::span<std::uint8_t> buf)
{
    ++mcStats.loads;
    if (!DmaEngine::read_run(mmuUnit, mem, addr, buf).ok) {
        ++mcStats.accessFaults;
        return false;
    }
    return true;
}

bool
Mc::store(Addr addr, std::span<const std::uint8_t> buf)
{
    ++mcStats.stores;
    if (!DmaEngine::write_run(mmuUnit, mem, addr, buf).ok) {
        ++mcStats.accessFaults;
        return false;
    }
    return true;
}

} // namespace ap::hw
