#include "sim/process.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::sim
{

/**
 * One chain of deadline events per process instead of one event per
 * timed wait (DESIGN.md "The flag-wait watchdog").
 *
 * Every wait_until() reserves the key its own deadline event would
 * get, but pushes an event (a *link*) only when that key precedes
 * every link already queued. Links therefore form a stack, earliest
 * on top, and fire in that order: a firing link is always `head`. It
 * times the wait out only when its key is the current wait's key;
 * otherwise it re-pushes at the next key still needed — the current
 * wait's, or else the latest key ever armed, so the chain ends where
 * the last per-wait event would have fired and run() drains at the
 * same tick.
 *
 * Only the process's own fiber and its links (both on the process's
 * shard) write this state; ~Process writes it only for a process
 * destroyed mid-wait, which no link can be racing.
 */
struct Process::Watchdog
{
    Simulator &sim;
    int affinity;
    Process *owner;
    EventKey head;    ///< earliest queued link (none: default key)
    EventKey wait;    ///< current timed wait's deadline (none: default)
    EventKey last{0}; ///< latest deadline key ever armed

    /** Push a link at @p key on top of the stack. */
    static void
    link(const std::shared_ptr<Watchdog> &st, EventKey key)
    {
        st->sim.schedule_at_key(
            st->affinity, key,
            [st, below = st->head]() { fire(st, below); });
        st->head = key;
    }

    static void fire(const std::shared_ptr<Watchdog> &st,
                     EventKey below);
};

void
Process::Watchdog::fire(const std::shared_ptr<Watchdog> &st,
                        EventKey below)
{
    EventKey k = st->head;
    st->head = below;
    Process *p = st->owner;
    bool timeout = false;
    if (st->wait == k && p->parkedOn) {
        auto &parked = p->parkedOn->parked;
        auto it = std::find(parked.begin(), parked.end(), p);
        // Not found: a notification at this tick beat the watchdog.
        if (it != parked.end()) {
            parked.erase(it);
            st->wait = EventKey{};
            timeout = true;
        }
    }

    // Relink before resuming: the fiber may arm its next wait.
    EventKey next;
    if (k < st->last)
        next = st->last;
    if (k < st->wait && st->wait < next)
        next = st->wait;
    if (next < st->head)
        link(st, next);

    if (timeout) {
        p->parkedOn = nullptr;
        p->blockedTicks += st->sim.now() - p->parkStart;
        p->timedOut = true;
        p->resume_from_event();
    }
}

Process::Process(Simulator &sim, std::string name,
                 std::function<void(Process &)> body)
    : sim(sim),
      label(std::move(name)),
      fiber([this, body = std::move(body)]() { body(*this); })
{
}

Process::~Process()
{
    // Destroyed mid-wait (never resumed): let the chain run out
    // without touching this process. Test before writing: a finished
    // process is reaped from another shard while its links may fire.
    if (watchdog && watchdog->wait != EventKey{})
        watchdog->wait = EventKey{};
}

void
Process::start(Tick at)
{
    sim.schedule_for(aff, at, [this]() { resume_from_event(); });
}

void
Process::resume_from_event()
{
    fiber.resume();
}

void
Process::delay(Tick dt)
{
    if (Fiber::current() != &fiber)
        panic("Process::delay called from outside process '%s'",
              label.c_str());
    if (dt == 0)
        return;
    Tick wake = sim.now() + dt;
    delayedTicks += dt;
    sim.schedule_for(aff, wake, [this]() { resume_from_event(); });
    Fiber::yield();
}

void
Process::wait(Condition &cond)
{
    if (Fiber::current() != &fiber)
        panic("Process::wait called from outside process '%s'",
              label.c_str());
    parkedOn = &cond;
    parkStart = sim.now();
    cond.parked.push_back(this);
    Fiber::yield();
}

bool
Process::wait_until(Condition &cond, Tick deadline)
{
    if (Fiber::current() != &fiber)
        panic("Process::wait_until called from outside process '%s'",
              label.c_str());
    if (deadline <= sim.now())
        return false;

    parkedOn = &cond;
    parkStart = sim.now();
    timedOut = false;
    cond.parked.push_back(this);

    if (!watchdog)
        watchdog = std::make_shared<Watchdog>(sim, aff, this);
    EventKey key = sim.reserve_key(aff, deadline);
    watchdog->wait = key;
    if (watchdog->last < key)
        watchdog->last = key;
    if (key < watchdog->head)
        Watchdog::link(watchdog, key);

    Fiber::yield();
    watchdog->wait = EventKey{};
    return !timedOut;
}

void
Condition::notify_all()
{
    // Resumes are scheduled, never run inline, so nothing parks here
    // during the loop; clearing afterwards keeps the capacity.
    for (Process *p : parked) {
        p->parkedOn = nullptr;
        p->blockedTicks += p->sim.now() - p->parkStart;
        // Resume on the parked process's own shard: the notifier may
        // be an event of a different cell (e.g. a barrier release).
        p->sim.schedule_for(p->aff, p->sim.now(),
                            [p]() { p->resume_from_event(); });
    }
    parked.clear();
}

} // namespace ap::sim
