#include "hw/queues.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::hw
{

const char *
to_string(CommandKind kind)
{
    switch (kind) {
      case CommandKind::put:
        return "put";
      case CommandKind::get:
        return "get";
      case CommandKind::send:
        return "send";
      case CommandKind::get_reply:
        return "get_reply";
      case CommandKind::remote_store:
        return "remote_store";
      case CommandKind::remote_load:
        return "remote_load";
      case CommandKind::remote_load_reply:
        return "remote_load_reply";
    }
    return "?";
}

CommandQueue::CommandQueue(int capacity_words)
    : capacityWords(capacity_words)
{
    if (capacity_words < Command::queue_words)
        fatal("queue capacity %d words cannot hold one %d-word command",
              capacity_words, Command::queue_words);
}

bool
CommandQueue::push(Command cmd, bool force_spill)
{
    ++queueStats.pushes;
    int used = static_cast<int>(hw.size()) * Command::queue_words;
    // Once anything has spilled, later commands must also spill to
    // preserve FIFO order ("all data written by the processor after
    // the queue becomes full is written into the buffer in DRAM").
    if (force_spill || !spill.empty() ||
        used + Command::queue_words > capacityWords) {
        spill.push_back(std::move(cmd));
        ++queueStats.spills;
        queueStats.maxSpillDepth =
            std::max<std::uint64_t>(queueStats.maxSpillDepth,
                                    spill.size());
        return true;
    }
    hw.push_back(std::move(cmd));
    queueStats.maxHwDepth =
        std::max<std::uint64_t>(queueStats.maxHwDepth, hw.size());
    return false;
}

int
CommandQueue::refill()
{
    if (!needs_refill())
        return 0;
    ++queueStats.refillInterrupts;
    int moved = 0;
    while (!spill.empty() &&
           (static_cast<int>(hw.size()) + 1) * Command::queue_words <=
               capacityWords) {
        hw.push_back(spill.pop_front());
        ++moved;
    }
    queueStats.maxHwDepth =
        std::max<std::uint64_t>(queueStats.maxHwDepth, hw.size());
    return moved;
}

const Command &
CommandQueue::front() const
{
    if (hw.empty())
        panic("front() on empty hardware queue (refill needed?)");
    return hw.front();
}

Command
CommandQueue::pop()
{
    if (hw.empty())
        panic("pop() on empty hardware queue (refill needed?)");
    Command c = hw.pop_front();
    ++queueStats.pops;
    return c;
}

} // namespace ap::hw
