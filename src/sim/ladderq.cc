#include "sim/ladderq.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ap::sim
{

namespace
{

/** Overflow-heap comparator: std::*_heap keep the "largest" at the
 *  top, so ordering by *later* (when, seq) yields a min-heap. */
struct NodeLater
{
    bool
    operator()(const EventNode *a, const EventNode *b) const
    {
        if (a->when != b->when)
            return a->when > b->when;
        return a->seq > b->seq;
    }
};

/** Front-heap comparator over the inline keys; same order. */
struct EntryLater
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace

LadderQueue::LadderQueue()
{
    buckets.assign(num_buckets, nullptr);
    front.reserve(64);
}

LadderQueue::~LadderQueue()
{
    clear();
}

void
LadderQueue::push(Tick when, std::uint64_t seq, int affinity,
                  EventFn fn)
{
    // max_tick is the kernel-wide "nothing pending" sentinel (the
    // parallel run loop already treats it as queue-empty), so an
    // event AT the horizon was never executable; refuse it loudly.
    if (when == max_tick)
        panic("event scheduled at the tick horizon");
    EventNode *n = pool.acquire(when, seq, affinity, std::move(fn));
    ++numEvents;

    if (numEvents == 1) {
        // Empty queue: re-anchor the window just past this event so
        // a long-idle queue never funnels a new burst through stale
        // bucket bounds. All buckets are empty here by invariant.
        cur = (when >> wShift) + 1;
        frontEnd = bucket_start(cur);
    }

    if (when < frontEnd) {
        front.push_back({when, seq, n});
        std::push_heap(front.begin(), front.end(), EntryLater{});
        return;
    }
    // when >= frontEnd implies (when >> wShift) >= cur.
    if ((when >> wShift) - cur < static_cast<std::uint64_t>(num_buckets)) {
        bucket_push(n);
        return;
    }
    overflow.push_back(n);
    std::push_heap(overflow.begin(), overflow.end(), NodeLater{});
}

void
LadderQueue::pull_overflow()
{
    std::uint64_t end = cur + num_buckets;
    while (!overflow.empty() && (overflow.front()->when >> wShift) < end) {
        std::pop_heap(overflow.begin(), overflow.end(), NodeLater{});
        EventNode *n = overflow.back();
        overflow.pop_back();
        bucket_push(n);
    }
}

void
LadderQueue::drain_bucket(std::uint64_t b)
{
    EventNode *&head = buckets[b & (num_buckets - 1)];
    EventNode *chain = head;
    head = nullptr;
    std::size_t took = 0;
    while (chain) {
        EventNode *next = chain->next;
        chain->next = nullptr;
        front.push_back({chain->when, chain->seq, chain});
        ++took;
        chain = next;
    }
    ringCount -= took;
    std::make_heap(front.begin(), front.end(), EntryLater{});
}

bool
LadderQueue::materialize()
{
    while (front.empty()) {
        if (ringCount > 0) {
            // ringCount > 0 guarantees a non-empty bucket within the
            // window, and the overflow holds nothing below its end.
            while (buckets[cur & (num_buckets - 1)] == nullptr)
                ++cur;
            drain_bucket(cur);
            ++cur;
            frontEnd = bucket_start(cur);
            pull_overflow(); // the window slid past the empty buckets too
            continue;
        }
        if (overflow.empty())
            return false;
        rebase();
    }
    return true;
}

void
LadderQueue::rebase()
{
    // Front and ring are empty; jump the window to the overflow's
    // near edge. First re-derive the bucket width from observed
    // density: aim for ~8 events per bucket given the average
    // inter-event gap seen since the last rebase.
    Tick newBase = overflow.front()->when;
    if (drainedSinceRebase >= 64 && newBase > lastRebaseBase) {
        Tick gap = (newBase - lastRebaseBase) / drainedSinceRebase;
        unsigned shift = 0;
        while (shift < 13 && (static_cast<Tick>(1) << shift) < gap + 1)
            ++shift;
        // 2^shift ≈ the average inter-event gap; widen by 8x so a
        // bucket holds ~8 events.
        wShift = shift + 3;
    }
    drainedSinceRebase = 0;
    lastRebaseBase = newBase;

    cur = newBase >> wShift;
    frontEnd = bucket_start(cur);
    pull_overflow();
}

EventNode *
LadderQueue::pop()
{
    if (!materialize())
        return nullptr;
    std::pop_heap(front.begin(), front.end(), EntryLater{});
    EventNode *n = front.back().node;
    front.pop_back();
    --numEvents;
    ++drainedSinceRebase;
    return n;
}

void
LadderQueue::clear()
{
    for (const Entry &e : front)
        pool.release(e.node);
    front.clear();
    for (auto &head : buckets) {
        while (head) {
            EventNode *next = head->next;
            pool.release(head);
            head = next;
        }
    }
    ringCount = 0;
    for (EventNode *n : overflow)
        pool.release(n);
    overflow.clear();
    numEvents = 0;
}

} // namespace ap::sim
