/**
 * @file
 * Send/receive DMA data movement with 1-D stride support.
 *
 * The MSC+'s DMA controllers move 4 bytes to 4 megabytes per command
 * and implement the one-dimensional gather/scatter of
 * put_stride()/get_stride() (Sections 3.1, 4.1). All addresses are
 * logical: every page touched goes through the MC's MMU, and a
 * missing mapping aborts the transfer with a fault (the caller — the
 * MSC+ — then raises the OS interrupt and flushes the message).
 */

#ifndef AP_HW_DMA_HH
#define AP_HW_DMA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/types.hh"
#include "hw/memory.hh"
#include "hw/mmu.hh"
#include "net/message.hh"

namespace ap::hw
{

/** Outcome of a DMA pass. */
struct DmaResult
{
    bool ok = true;              ///< false = page fault
    Addr faultAddr = 0;          ///< faulting logical address
    std::uint64_t bytesMoved = 0;///< bytes completed before any fault
};

/** Stateless gather/scatter helpers used by the MSC+. */
class DmaEngine
{
  public:
    /**
     * Gather @p spec's pattern starting at logical @p addr into
     * @p out (appended). Partial data may be appended on fault.
     */
    static DmaResult gather(Mmu &mmu, const CellMemory &mem, Addr addr,
                            net::StrideSpec spec,
                            std::vector<std::uint8_t> &out);

    /**
     * Scatter @p buf over @p spec's pattern starting at logical
     * @p addr. @p buf must hold exactly spec.total_bytes() bytes.
     */
    static DmaResult scatter(Mmu &mmu, CellMemory &mem, Addr addr,
                             net::StrideSpec spec,
                             std::span<const std::uint8_t> buf);

    /** Read one contiguous logical run, page by page. Partial data
     *  may land in @p buf on fault. */
    static DmaResult read_run(Mmu &mmu, const CellMemory &mem,
                              Addr addr, std::span<std::uint8_t> buf);

    /** Write one contiguous logical run, page by page. */
    static DmaResult write_run(Mmu &mmu, CellMemory &mem, Addr addr,
                               std::span<const std::uint8_t> buf);
};

} // namespace ap::hw

#endif // AP_HW_DMA_HH
