/**
 * @file
 * The MC's MMU and TLB.
 *
 * PUT/GET commands carry *logical* addresses; the MSC+ asks the MC to
 * translate them (Section 4.1, "MMU and protection"). The TLB is
 * direct-mapped with 256 entries for 4-kilobyte pages and 64 entries
 * for 256-kilobyte pages. An unmapped logical address is a page
 * fault; during a remote transfer the MSC+ reacts by interrupting the
 * OS and pulling the remainder of the message from the network.
 */

#ifndef AP_HW_MMU_HH
#define AP_HW_MMU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"

namespace ap::hw
{

/** Result of a translation attempt. */
struct Translation
{
    bool valid = false;     ///< false = page fault
    Addr paddr = 0;         ///< physical address when valid
    bool tlbHit = false;    ///< whether the TLB already held the entry
    bool writable = false;  ///< page permits writes
};

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t faults = 0;
};

/**
 * Per-cell page table plus the MC's two direct-mapped TLBs.
 *
 * Pages are mapped explicitly with map(); map_linear() installs the
 * identity mapping the runtime uses by default. Both the paper's page
 * sizes are supported; a mapping chooses its size at map time.
 */
class Mmu
{
  public:
    static constexpr std::size_t small_page_bits = 12;  // 4 KB
    static constexpr std::size_t large_page_bits = 18;  // 256 KB
    static constexpr std::size_t small_tlb_entries = 256;
    static constexpr std::size_t large_tlb_entries = 64;

    /**
     * Map one page.
     * @param vaddr page-aligned logical address
     * @param paddr page-aligned physical address
     * @param large use a 256 KB page instead of 4 KB
     * @param writable permit stores
     */
    void map(Addr vaddr, Addr paddr, bool large = false,
             bool writable = true);

    /** Remove the mapping containing @p vaddr (if any). */
    void unmap(Addr vaddr);

    /**
     * Identity-map [0, bytes) with 4 KB pages (a final partial page
     * is rounded up).
     */
    void map_linear(std::size_t bytes, bool writable = true);

    /**
     * Translate a logical address, updating TLB state and stats.
     * @param vaddr logical address
     * @param write whether the access is a store
     */
    Translation translate(Addr vaddr, bool write);

    /**
     * Translate without touching TLB state (diagnostics/tests).
     */
    Translation peek(Addr vaddr) const;

    /** TLB/fault statistics. */
    const TlbStats &stats() const { return tlbStats; }

    /** Forget all TLB entries (page table survives). */
    void flush_tlb();

  private:
    /**
     * A page-table entry packed into one word: frame << 2, bit 1 =
     * writable, bit 0 = valid. Zero is "not mapped".
     */
    using Pte = std::uint64_t;

    /**
     * Two-level radix page table for one page size. The top level is
     * a sorted array of populated leaves (the default 4 MB identity
     * map fills exactly one); a leaf is allocated when a page in its
     * range is first mapped, so a sparse high mapping costs one leaf.
     */
    class PageTable
    {
      public:
        static constexpr unsigned leaf_bits = 10;
        static constexpr Addr leaf_entries = Addr{1} << leaf_bits;

        /** Entry of @p vpn; 0 when unmapped. */
        Pte get(Addr vpn) const;

        /** The entry of @p vpn, for writing; allocates its leaf. The
         *  rest of the leaf follows it in memory. */
        Pte &slot(Addr vpn);

        /** Clear the entry of @p vpn (allocates nothing). */
        void clear(Addr vpn);

      private:
        using Leaf = std::array<Pte, leaf_entries>;
        struct DirEntry
        {
            Addr top;
            std::unique_ptr<Leaf> leaf;
        };
        const DirEntry *find(Addr top) const;

        std::vector<DirEntry> dir;
    };

    struct TlbEntry
    {
        bool valid = false;
        bool writable = false;
        Addr vpn = 0;
        Addr pframe = 0;
    };

    /** Page-table lookup: small pages take precedence, a large
     *  mapping acts as backstop. 0 = fault. */
    Pte lookup_table(Addr vaddr, bool &large_out) const;

    PageTable smallTable;
    PageTable largeTable;
    std::array<TlbEntry, small_tlb_entries> smallTlb{};
    std::array<TlbEntry, large_tlb_entries> largeTlb{};
    TlbStats tlbStats;
};

} // namespace ap::hw

#endif // AP_HW_MMU_HH
