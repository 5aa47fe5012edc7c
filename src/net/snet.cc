#include "net/snet.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace ap::net
{

Snet::Snet(sim::Simulator &sim, int cells, const mlsim::Params &cost)
    : sim(sim), numCells(cells), cost(cost),
      failedCells(static_cast<std::size_t>(cells), false)
{
}

Snet::ContextId
Snet::create_context(std::vector<CellId> members)
{
    if (members.empty()) {
        members.resize(static_cast<std::size_t>(numCells));
        for (int i = 0; i < numCells; ++i)
            members[static_cast<std::size_t>(i)] = i;
    }
    for (CellId c : members)
        if (c < 0 || c >= numCells)
            fatal("barrier member %d outside machine of %d cells", c,
                  numCells);

    Context ctx;
    ctx.members = std::move(members);
    ctx.arrived.assign(static_cast<std::size_t>(numCells), false);
    std::lock_guard<std::mutex> lock(ctxMutex);
    contexts.push_back(std::move(ctx));
    return static_cast<ContextId>(contexts.size()) - 1;
}

void
Snet::arrive(ContextId id, CellId cell, std::function<void()> on_release)
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    if (id < 0 || static_cast<std::size_t>(id) >= contexts.size())
        panic("unknown barrier context %d", id);
    Context &ctx = contexts[static_cast<std::size_t>(id)];

    bool member = std::find(ctx.members.begin(), ctx.members.end(),
                            cell) != ctx.members.end();
    if (!member)
        panic("cell %d is not a member of barrier context %d", cell,
              id);
    if (ctx.arrived[static_cast<std::size_t>(cell)])
        panic("cell %d arrived twice at barrier context %d", cell, id);

    ctx.arrived[static_cast<std::size_t>(cell)] = true;
    ctx.callbacks.emplace_back(cell, std::move(on_release));
    if (ctx.count == 0)
        ctx.episodeBegin = sim.now();
    ctx.count++;

    maybe_release(ctx);
}

void
Snet::maybe_release(Context &ctx)
{
    if (ctx.callbacks.empty())
        return;
    // Release once every live member has arrived. With no failed
    // cells this is exactly the classic "count == members" condition.
    for (CellId m : ctx.members)
        if (!ctx.arrived[static_cast<std::size_t>(m)] &&
            !failedCells[static_cast<std::size_t>(m)])
            return;

    Tick release = sim.now() + us_to_ticks(cost.barrier_time);
    if (spans)
        if (std::uint64_t tid = spans->new_trace())
            spans->record(-1, tid, obs::SpanStage::barrier,
                          ctx.episodeBegin, release,
                          obs::SpanOp::barrier);
    std::vector<std::pair<CellId, std::function<void()>>> cbs;
    cbs.swap(ctx.callbacks);
    ctx.count = 0;
    ctx.completed++;
    for (CellId m : ctx.members)
        ctx.arrived[static_cast<std::size_t>(m)] = false;
    // Each release callback resumes its own cell: route it to that
    // cell's shard, not the shard of whichever arrival released us.
    for (auto &cb : cbs)
        sim.schedule_for(cb.first, release, std::move(cb.second));
}

void
Snet::fail_cell(CellId cell)
{
    if (cell < 0 || cell >= numCells)
        panic("fail_cell %d outside machine of %d cells", cell,
              numCells);
    std::lock_guard<std::mutex> lock(ctxMutex);
    failedCells[static_cast<std::size_t>(cell)] = true;
    // Contexts already blocked only on the dead cell release now.
    for (Context &ctx : contexts)
        maybe_release(ctx);
}

std::uint64_t
Snet::total_episodes() const
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    std::uint64_t n = 0;
    for (const Context &ctx : contexts)
        n += ctx.completed;
    return n;
}

std::uint64_t
Snet::episodes(ContextId id) const
{
    std::lock_guard<std::mutex> lock(ctxMutex);
    if (id < 0 || static_cast<std::size_t>(id) >= contexts.size())
        panic("unknown barrier context %d", id);
    return contexts[static_cast<std::size_t>(id)].completed;
}

} // namespace ap::net
