#include "hw/mmu.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::hw
{

namespace
{

constexpr Addr
page_mask(std::size_t bits)
{
    return (Addr{1} << bits) - 1;
}

constexpr std::uint64_t pte_valid = 1;
constexpr std::uint64_t pte_writable = 2;

constexpr std::uint64_t
make_pte(Addr pframe, bool writable)
{
    return (pframe << 2) | (writable ? pte_writable : 0) | pte_valid;
}

constexpr Addr
pte_frame(std::uint64_t e)
{
    return e >> 2;
}

constexpr bool
pte_writable_bit(std::uint64_t e)
{
    return (e & pte_writable) != 0;
}

/** Orders page-table directory entries by their top-level index. */
constexpr auto top_below = [](const auto &d, Addr top) {
    return d.top < top;
};

} // namespace

const Mmu::PageTable::DirEntry *
Mmu::PageTable::find(Addr top) const
{
    auto it = std::lower_bound(dir.begin(), dir.end(), top, top_below);
    return it != dir.end() && it->top == top ? &*it : nullptr;
}

Mmu::Pte
Mmu::PageTable::get(Addr vpn) const
{
    const DirEntry *d = find(vpn >> leaf_bits);
    return d ? (*d->leaf)[vpn & (leaf_entries - 1)] : 0;
}

Mmu::Pte &
Mmu::PageTable::slot(Addr vpn)
{
    Addr top = vpn >> leaf_bits;
    auto it = std::lower_bound(dir.begin(), dir.end(), top, top_below);
    if (it == dir.end() || it->top != top)
        it = dir.insert(it, DirEntry{top, std::make_unique<Leaf>()});
    return (*it->leaf)[vpn & (leaf_entries - 1)];
}

void
Mmu::PageTable::clear(Addr vpn)
{
    const DirEntry *d = find(vpn >> leaf_bits);
    if (d)
        (*d->leaf)[vpn & (leaf_entries - 1)] = 0;
}

void
Mmu::map(Addr vaddr, Addr paddr, bool large, bool writable)
{
    std::size_t bits = large ? large_page_bits : small_page_bits;
    if (vaddr & page_mask(bits))
        fatal("map: logical %#llx not aligned to %zu-bit page",
              static_cast<unsigned long long>(vaddr), bits);
    if (paddr & page_mask(bits))
        fatal("map: physical %#llx not aligned to %zu-bit page",
              static_cast<unsigned long long>(paddr), bits);
    (large ? largeTable : smallTable).slot(vaddr >> bits) =
        make_pte(paddr >> bits, writable);
}

void
Mmu::unmap(Addr vaddr)
{
    smallTable.clear(vaddr >> small_page_bits);
    largeTable.clear(vaddr >> large_page_bits);
    flush_tlb();
}

void
Mmu::map_linear(std::size_t bytes, bool writable)
{
    Addr pages = (bytes + page_mask(small_page_bits)) >>
                 small_page_bits;
    // One fill per leaf.
    for (Addr p = 0; p < pages;) {
        Pte *e = &smallTable.slot(p);
        Addr end = std::min(pages, (p | (PageTable::leaf_entries - 1)) + 1);
        for (; p < end; ++p)
            *e++ = make_pte(p, writable);
    }
}

Mmu::Pte
Mmu::lookup_table(Addr vaddr, bool &large_out) const
{
    large_out = false;
    if (Pte e = smallTable.get(vaddr >> small_page_bits))
        return e;
    large_out = true;
    return largeTable.get(vaddr >> large_page_bits);
}

Translation
Mmu::translate(Addr vaddr, bool write)
{
    Translation t;

    // TLB probe: both arrays, direct-mapped.
    Addr svpn = vaddr >> small_page_bits;
    TlbEntry &se = smallTlb[svpn % small_tlb_entries];
    if (se.valid && se.vpn == svpn) {
        if (write && !se.writable) {
            ++tlbStats.faults;
            return t;
        }
        ++tlbStats.hits;
        t.valid = true;
        t.tlbHit = true;
        t.writable = se.writable;
        t.paddr = (se.pframe << small_page_bits) |
                  (vaddr & page_mask(small_page_bits));
        return t;
    }
    Addr lvpn = vaddr >> large_page_bits;
    TlbEntry &le = largeTlb[lvpn % large_tlb_entries];
    if (le.valid && le.vpn == lvpn) {
        if (write && !le.writable) {
            ++tlbStats.faults;
            return t;
        }
        ++tlbStats.hits;
        t.valid = true;
        t.tlbHit = true;
        t.writable = le.writable;
        t.paddr = (le.pframe << large_page_bits) |
                  (vaddr & page_mask(large_page_bits));
        return t;
    }

    // TLB miss: walk the page table.
    bool large = false;
    Pte entry = lookup_table(vaddr, large);
    if (!entry) {
        ++tlbStats.faults;
        return t;
    }
    ++tlbStats.misses;
    bool writable = pte_writable_bit(entry);
    if (write && !writable) {
        ++tlbStats.faults;
        return t;
    }

    // Fill the appropriate TLB (direct-mapped replacement).
    Addr pframe = pte_frame(entry);
    if (large) {
        largeTlb[lvpn % large_tlb_entries] =
            TlbEntry{true, writable, lvpn, pframe};
        t.paddr = (pframe << large_page_bits) |
                  (vaddr & page_mask(large_page_bits));
    } else {
        smallTlb[svpn % small_tlb_entries] =
            TlbEntry{true, writable, svpn, pframe};
        t.paddr = (pframe << small_page_bits) |
                  (vaddr & page_mask(small_page_bits));
    }
    t.valid = true;
    t.tlbHit = false;
    t.writable = writable;
    return t;
}

Translation
Mmu::peek(Addr vaddr) const
{
    Translation t;
    bool large = false;
    Pte entry = lookup_table(vaddr, large);
    if (!entry)
        return t;
    std::size_t bits = large ? large_page_bits : small_page_bits;
    t.valid = true;
    t.writable = pte_writable_bit(entry);
    t.paddr = (pte_frame(entry) << bits) | (vaddr & page_mask(bits));
    return t;
}

void
Mmu::flush_tlb()
{
    for (auto &e : smallTlb)
        e.valid = false;
    for (auto &e : largeTlb)
        e.valid = false;
}

} // namespace ap::hw
