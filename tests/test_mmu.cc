/**
 * @file
 * MMU and TLB tests: the direct-mapped 256-entry 4 KB / 64-entry
 * 256 KB configuration of the MC (Section 4.1).
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>

#include "hw/mmu.hh"

using namespace ap;
using namespace ap::hw;

TEST(Mmu, LinearMapIsIdentity)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    for (Addr a : {Addr{0}, Addr{4095}, Addr{4096}, Addr{999999}}) {
        Translation t = mmu.translate(a, false);
        ASSERT_TRUE(t.valid) << a;
        EXPECT_EQ(t.paddr, a);
    }
}

TEST(Mmu, UnmappedAddressFaults)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    Translation t = mmu.translate(Addr{1} << 21, false);
    EXPECT_FALSE(t.valid);
    EXPECT_EQ(mmu.stats().faults, 1u);
}

TEST(Mmu, NonIdentityMappingTranslates)
{
    Mmu mmu;
    mmu.map(0x10000, 0x40000);
    Translation t = mmu.translate(0x10123, false);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 0x40123u);
}

TEST(Mmu, ReadOnlyPageRejectsWrites)
{
    Mmu mmu;
    mmu.map(0, 0, false, /*writable=*/false);
    EXPECT_TRUE(mmu.translate(0x10, false).valid);
    EXPECT_FALSE(mmu.translate(0x10, true).valid);
    EXPECT_EQ(mmu.stats().faults, 1u);
}

TEST(Mmu, FirstAccessMissesThenHits)
{
    Mmu mmu;
    mmu.map_linear(1 << 20);
    mmu.translate(0x1000, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 0u);
    mmu.translate(0x1004, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 1u);
}

TEST(Mmu, DirectMappedConflictEvicts)
{
    Mmu mmu;
    // Two pages whose VPNs collide in the 256-entry direct map.
    Addr a = 0;
    Addr b = Addr{256} << 12;
    mmu.map(a, a);
    mmu.map(b, b);
    mmu.translate(a, false); // miss, fill
    mmu.translate(b, false); // miss, evicts a
    mmu.translate(a, false); // miss again (conflict)
    EXPECT_EQ(mmu.stats().misses, 3u);
    EXPECT_EQ(mmu.stats().hits, 0u);
}

TEST(Mmu, NonConflictingPagesBothHit)
{
    Mmu mmu;
    Addr a = 0;
    Addr b = 1 << 12;
    mmu.map(a, a);
    mmu.map(b, b);
    mmu.translate(a, false);
    mmu.translate(b, false);
    mmu.translate(a, false);
    mmu.translate(b, false);
    EXPECT_EQ(mmu.stats().misses, 2u);
    EXPECT_EQ(mmu.stats().hits, 2u);
}

TEST(Mmu, LargePageCoversWholeRange)
{
    Mmu mmu;
    mmu.map(0, 0, /*large=*/true);
    Translation t = mmu.translate(200000, false); // < 256 KB
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 200000u);
    // A single TLB entry serves the whole page: one miss, rest hits.
    mmu.translate(100, false);
    mmu.translate(262143, false);
    EXPECT_EQ(mmu.stats().misses, 1u);
    EXPECT_EQ(mmu.stats().hits, 2u);
}

TEST(Mmu, SmallPageShadowsLargePage)
{
    Mmu mmu;
    mmu.map(0, 0x100000, /*large=*/true);
    mmu.map(0x1000, 0x9000, /*large=*/false);
    // Address in the small page goes through the small mapping.
    Translation t = mmu.peek(0x1234);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.paddr, 0x9234u);
    // Address outside it falls back to the large mapping.
    Translation u = mmu.peek(0x3000);
    ASSERT_TRUE(u.valid);
    EXPECT_EQ(u.paddr, 0x103000u);
}

TEST(Mmu, FlushTlbForcesMisses)
{
    Mmu mmu;
    mmu.map_linear(1 << 16);
    mmu.translate(0, false);
    mmu.translate(0, false);
    EXPECT_EQ(mmu.stats().hits, 1u);
    mmu.flush_tlb();
    mmu.translate(0, false);
    EXPECT_EQ(mmu.stats().misses, 2u);
}

TEST(Mmu, UnmapRemovesTranslation)
{
    Mmu mmu;
    mmu.map(0x2000, 0x2000);
    EXPECT_TRUE(mmu.translate(0x2000, false).valid);
    mmu.unmap(0x2000);
    EXPECT_FALSE(mmu.translate(0x2000, false).valid);
}

TEST(Mmu, PeekDoesNotTouchStats)
{
    Mmu mmu;
    mmu.map_linear(1 << 16);
    mmu.peek(0x100);
    EXPECT_EQ(mmu.stats().hits + mmu.stats().misses, 0u);
}

TEST(MmuDeath, MisalignedMapIsFatal)
{
    Mmu mmu;
    EXPECT_DEATH(mmu.map(0x123, 0), "aligned");
}

namespace
{

/**
 * The MMU as first written: a page table keyed by (vpn << 1) | large
 * in an ordered map, in front of the same two direct-mapped TLBs. The
 * radix page table must be indistinguishable from it.
 */
class ReferenceMmu
{
  public:
    void
    map(Addr vaddr, Addr paddr, bool large, bool writable)
    {
        std::size_t bits = large ? Mmu::large_page_bits
                                 : Mmu::small_page_bits;
        table[((vaddr >> bits) << 1) | (large ? 1 : 0)] =
            Page{paddr >> bits, writable};
    }

    void
    unmap(Addr vaddr)
    {
        table.erase((vaddr >> Mmu::small_page_bits) << 1);
        table.erase(((vaddr >> Mmu::large_page_bits) << 1) | 1);
        for (auto &e : smallTlb)
            e.valid = false;
        for (auto &e : largeTlb)
            e.valid = false;
    }

    Translation
    peek(Addr vaddr) const
    {
        Translation t;
        const Page *p = nullptr;
        std::size_t bits = 0;
        if (!lookup(vaddr, p, bits))
            return t;
        t.valid = true;
        t.writable = p->writable;
        t.paddr = (p->frame << bits) | (vaddr & mask(bits));
        return t;
    }

    Translation
    translate(Addr vaddr, bool write)
    {
        Translation t;
        for (bool large : {false, true}) {
            std::size_t bits = large ? Mmu::large_page_bits
                                     : Mmu::small_page_bits;
            Addr vpn = vaddr >> bits;
            Tlb &e = large ? largeTlb[vpn % largeTlb.size()]
                           : smallTlb[vpn % smallTlb.size()];
            if (!e.valid || e.vpn != vpn)
                continue;
            if (write && !e.writable) {
                ++st.faults;
                return t;
            }
            ++st.hits;
            t.valid = t.tlbHit = true;
            t.writable = e.writable;
            t.paddr = (e.frame << bits) | (vaddr & mask(bits));
            return t;
        }
        const Page *p = nullptr;
        std::size_t bits = 0;
        if (!lookup(vaddr, p, bits)) {
            ++st.faults;
            return t;
        }
        ++st.misses;
        if (write && !p->writable) {
            ++st.faults;
            return t;
        }
        Addr vpn = vaddr >> bits;
        Tlb &e = bits == Mmu::large_page_bits
                     ? largeTlb[vpn % largeTlb.size()]
                     : smallTlb[vpn % smallTlb.size()];
        e = Tlb{true, p->writable, vpn, p->frame};
        t.valid = true;
        t.writable = p->writable;
        t.paddr = (p->frame << bits) | (vaddr & mask(bits));
        return t;
    }

    const TlbStats &stats() const { return st; }

  private:
    struct Page
    {
        Addr frame;
        bool writable;
    };
    struct Tlb
    {
        bool valid = false;
        bool writable = false;
        Addr vpn = 0;
        Addr frame = 0;
    };

    static Addr mask(std::size_t bits) { return (Addr{1} << bits) - 1; }

    bool
    lookup(Addr vaddr, const Page *&p, std::size_t &bits) const
    {
        auto it = table.find((vaddr >> Mmu::small_page_bits) << 1);
        bits = Mmu::small_page_bits;
        if (it == table.end()) {
            it = table.find(((vaddr >> Mmu::large_page_bits) << 1) | 1);
            bits = Mmu::large_page_bits;
        }
        if (it == table.end())
            return false;
        p = &it->second;
        return true;
    }

    std::map<Addr, Page> table;
    std::array<Tlb, Mmu::small_tlb_entries> smallTlb{};
    std::array<Tlb, Mmu::large_tlb_entries> largeTlb{};
    TlbStats st;
};

void
expect_same(const Translation &a, const Translation &b, Addr va, int op)
{
    EXPECT_EQ(a.valid, b.valid) << "op " << op << " va " << va;
    EXPECT_EQ(a.paddr, b.paddr) << "op " << op << " va " << va;
    EXPECT_EQ(a.tlbHit, b.tlbHit) << "op " << op << " va " << va;
    EXPECT_EQ(a.writable, b.writable) << "op " << op << " va " << va;
}

} // namespace

TEST(Mmu, MatchesReferenceModelOnRandomSequences)
{
    // Regions: the default DRAM range, a small-TLB alias of it, and
    // sparse high ones up to the top of the address space.
    const Addr regions[] = {0,
                            Addr{1} << 22,
                            Addr{1} << 32,
                            Addr{1} << 47,
                            Addr{1} << 63,
                            ~Addr{0} - (Addr{4} << Mmu::large_page_bits) +
                                1};
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&](std::uint64_t n) {
            return std::uniform_int_distribution<std::uint64_t>(
                0, n - 1)(rng);
        };
        // Addresses fall in four large pages of a region, so small
        // and large mappings overlap and TLB sets collide.
        auto addr = [&] {
            return regions[pick(std::size(regions))] +
                   pick(Addr{4} << Mmu::large_page_bits);
        };
        Mmu mmu;
        ReferenceMmu ref;
        if (seed % 2) {
            mmu.map_linear(1 << 20, seed % 4 == 1);
            for (Addr p = 0; p < (1 << 20); p += 4096)
                ref.map(p, p, false, seed % 4 == 1);
        }
        for (int op = 0; op < 4000; ++op) {
            Addr va = addr();
            switch (pick(10)) {
              case 0: {
                bool large = pick(3) == 0;
                std::size_t bits = large ? Mmu::large_page_bits
                                         : Mmu::small_page_bits;
                Addr v = va & ~((Addr{1} << bits) - 1);
                Addr pa = (addr() >> bits) << bits;
                bool w = pick(4) != 0;
                mmu.map(v, pa, large, w);
                ref.map(v, pa, large, w);
                break;
              }
              case 1:
                mmu.unmap(va);
                ref.unmap(va);
                break;
              case 2:
                expect_same(mmu.peek(va), ref.peek(va), va, op);
                break;
              default: {
                bool w = pick(2) == 0;
                expect_same(mmu.translate(va, w), ref.translate(va, w),
                            va, op);
                break;
              }
            }
            ASSERT_EQ(mmu.stats().hits, ref.stats().hits) << seed;
            ASSERT_EQ(mmu.stats().misses, ref.stats().misses) << seed;
            ASSERT_EQ(mmu.stats().faults, ref.stats().faults) << seed;
        }
        // The sequences must exercise every outcome.
        EXPECT_GT(ref.stats().hits, 0u);
        EXPECT_GT(ref.stats().misses, 0u);
        EXPECT_GT(ref.stats().faults, 0u);
    }
}
