/**
 * @file
 * Ladder (calendar) event queue — the one pending-event structure
 * behind every shard of the simulation kernel.
 *
 * The machine's tick distribution is near-monotonic: almost every
 * event lands within a few microseconds of the clock (DMA stages,
 * network hops, flag updates), with a thin far tail (watchdog
 * deadlines, serve-layer reaps). A global binary heap pays
 * O(log n) sifts per event over the whole mixed population; this
 * queue splits it by distance into three rungs:
 *
 *   front     a small binary min-heap over (when, seq) holding only
 *             the events of the bucket currently draining — pops and
 *             near-now pushes are O(log f) with f ≪ n.
 *   ring      num_buckets buckets of width 2^wShift ticks covering
 *             [bucketBase, bucketBase + span). Insertion is O(1)
 *             (push onto an intrusive chain); a bucket is heapified
 *             into `front` only when its turn comes.
 *   overflow  a binary heap over (when, seq) for everything past the
 *             ring — the far-future rung. When the ring is exhausted
 *             the queue *rebases*: the overflow's near edge is carved
 *             into fresh buckets, with the bucket width re-derived
 *             from the observed event density so the ring stays
 *             loaded at a few events per bucket.
 *
 * Ordering contract (the determinism contract): pop() returns nodes
 * in exactly ascending (when, seq) — identical to the binary heap it
 * replaces — so same-tick insertion order (FIFO via the caller's
 * monotonic seq) is preserved bit-for-bit. tests/test_ladderq.cc
 * cross-checks random schedules against a reference heap.
 *
 * Not thread-safe; see event.hh for the ownership rules.
 */

#ifndef AP_SIM_LADDERQ_HH
#define AP_SIM_LADDERQ_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/event.hh"

namespace ap::sim
{

class LadderQueue
{
  public:
    static constexpr int num_buckets = 128;

    LadderQueue();
    ~LadderQueue();

    LadderQueue(LadderQueue &&) = default;
    LadderQueue &operator=(LadderQueue &&) = default;
    LadderQueue(const LadderQueue &) = delete;
    LadderQueue &operator=(const LadderQueue &) = delete;

    /** Schedule. @p seq must be unique and, within a tick,
     *  monotonically increasing (the FIFO tie-break). */
    void push(Tick when, std::uint64_t seq, int affinity,
              EventFn fn);

    /**
     * Earliest pending node, or nullptr when empty. Logically const:
     * may materialize the next bucket into the front heap, which
     * reorders internal storage but never the pending set. Callers
     * must hold whatever lock guards push()/pop().
     */
    const EventNode *
    peek() const
    {
        return const_cast<LadderQueue *>(this)->materialize();
    }

    /** Earliest pending tick (max_tick when empty); see peek(). */
    Tick
    min_when() const
    {
        const EventNode *n = peek();
        return n ? n->when : max_tick;
    }

    /**
     * Remove and return the earliest node. The caller runs the
     * closure, then must hand the node back via release().
     */
    EventNode *pop();

    /** Recycle a node obtained from pop(). */
    void release(EventNode *n) { pool.release(n); }

    bool empty() const { return numEvents == 0; }
    std::size_t size() const { return numEvents; }

    /** Drop every pending event (closures destroyed). */
    void clear();

    const EventPoolStats &pool_stats() const { return pool.stats(); }

  private:
    /** Ensure the front heap holds the earliest pending node (or
     *  the queue is empty). @return the heap top or nullptr. */
    EventNode *materialize();
    /** Re-anchor the ring at the overflow's near edge. */
    void rebase();
    void heap_push(std::vector<EventNode *> &heap, EventNode *n);
    EventNode *heap_pop(std::vector<EventNode *> &heap);

    EventPool pool;

    /** Min-heap by (when, seq): every pending event below frontEnd. */
    std::vector<EventNode *> front;
    /** Exclusive tick bound of the front region. Invariant while the
     *  ring is live: frontEnd == bucketBase + nextBucket * width. */
    Tick frontEnd = 0;

    std::vector<EventNode *> buckets; ///< chain heads, num_buckets
    Tick bucketBase = 0;
    int nextBucket = num_buckets;     ///< first not-yet-drained bucket
    unsigned wShift = 6;              ///< bucket width = 2^wShift ticks
    std::size_t ringCount = 0;        ///< events currently bucketed

    std::vector<EventNode *> overflow; ///< min-heap by (when, seq)

    std::size_t numEvents = 0;

    /** Density bookkeeping for adaptive bucket width at rebase. */
    std::uint64_t drainedSinceRebase = 0;
    Tick lastRebaseBase = 0;
};

} // namespace ap::sim

#endif // AP_SIM_LADDERQ_HH
