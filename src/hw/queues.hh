/**
 * @file
 * MSC+ command queues with DRAM overflow (Section 4.1).
 *
 * Each queue holds at most 64 words (8 commands of 8 words each) in
 * MSC+ RAM. When the hardware queue is full, further commands go
 * directly to a pre-allocated buffer in DRAM; once the hardware queue
 * drains, the MSC+ interrupts the operating system, which reloads
 * commands from DRAM back into the queue. The paper's own MLSim
 * "assumes that queues are long enough" — this model is the piece
 * they left out, and the queue ablation bench measures its cost.
 */

#ifndef AP_HW_QUEUES_HH
#define AP_HW_QUEUES_HH

#include <cstdint>

#include "base/fifo.hh"
#include "base/types.hh"
#include "hw/command.hh"

namespace ap::hw
{

/** Occupancy and overflow statistics of one queue. */
struct QueueStats
{
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t spills = 0;          ///< commands written to DRAM
    std::uint64_t refillInterrupts = 0;///< OS reload episodes
    std::uint64_t maxHwDepth = 0;      ///< high-water MSC+ RAM depth
    std::uint64_t maxSpillDepth = 0;   ///< worst DRAM backlog
};

/** One MSC+ command queue (send or reply) with DRAM spill. */
class CommandQueue
{
  public:
    /** Hardware queue capacity in words (paper: 64). */
    static constexpr int default_capacity_words = 64;

    /**
     * @param capacity_words MSC+ RAM capacity of this queue
     */
    explicit CommandQueue(int capacity_words = default_capacity_words);

    /**
     * Enqueue a command. Goes to MSC+ RAM when it fits, otherwise to
     * the DRAM spill buffer. @p force_spill sends the command to DRAM
     * even when the hardware queue has room (fault injection: the
     * overflow path must behave identically under pressure and under
     * a forced spill). @return true when it spilled.
     */
    bool push(Command cmd, bool force_spill = false);

    /** @return true when no command is queued anywhere. */
    bool empty() const { return hw.empty() && spill.empty(); }

    /** @return true when the hardware part is empty but DRAM holds
     *  commands — the condition that raises the refill interrupt. */
    bool
    needs_refill() const
    {
        return hw.empty() && !spill.empty();
    }

    /**
     * OS refill: move spilled commands back into MSC+ RAM up to
     * capacity. @return number of commands moved.
     */
    int refill();

    /** Peek the head command; queue must not need a refill first. */
    const Command &front() const;

    /** Pop the head command. */
    Command pop();

    /** Commands currently in MSC+ RAM. */
    int hw_depth() const { return static_cast<int>(hw.size()); }

    /** Commands currently spilled to DRAM. */
    int spill_depth() const { return static_cast<int>(spill.size()); }

    /** True while an OS refill interrupt is in flight (MSC+ state). */
    bool refill_scheduled() const { return refillScheduled; }

    /** Mark/unmark an in-flight refill interrupt. */
    void set_refill_scheduled(bool v) { refillScheduled = v; }

    const QueueStats &stats() const { return queueStats; }

  private:
    int capacityWords;
    bool refillScheduled = false;
    Fifo<Command> hw;
    Fifo<Command> spill;
    QueueStats queueStats;
};

} // namespace ap::hw

#endif // AP_HW_QUEUES_HH
