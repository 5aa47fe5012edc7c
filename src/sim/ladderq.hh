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
 *   front     a small binary min-heap of inline {when, seq, node}
 *             entries holding only the events of the buckets already
 *             drained (when < frontEnd) — pops and near-now pushes
 *             are O(log f) with f ≪ n, and a compare touches no node.
 *   ring      a circular array of num_buckets buckets of width
 *             2^wShift ticks. Absolute bucket b = when >> wShift lives
 *             in slot b & (num_buckets - 1); the ring covers the
 *             sliding window [cur, cur + num_buckets) of absolute
 *             buckets. Insertion is O(1) (push onto an intrusive
 *             chain); a bucket is heapified into `front` when its turn
 *             comes, which advances `cur` by one and slides the window.
 *   overflow  a binary heap of node pointers over (when, seq) for
 *             everything past the window — the far-future rung. Each
 *             time the window slides, the overflow events it now
 *             covers move into the ring, so a near-future push lands
 *             in a bucket whatever the drain position.
 *
 * Every popped tick is below frontEnd = cur << wShift, and the kernel
 * never schedules before the clock, so near-future pushes never touch
 * the overflow rung. The ring is re-anchored (*rebased*) only when it
 * is empty: `cur` jumps to the overflow's near edge, with the bucket
 * width re-derived from the observed event density so a bucket holds
 * a few events.
 *
 * Ordering contract (the determinism contract): pop() returns nodes
 * in exactly ascending (when, seq) — identical to the binary heap it
 * replaces — so same-tick insertion order (FIFO via the caller's
 * monotonic seq) is preserved bit-for-bit. tests/test_ladderq.cc
 * cross-checks random and hold-model schedules against a reference
 * sort.
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
    /** Ring size; a power of two so a slot is a mask away. */
    static constexpr int num_buckets = 1024;

    LadderQueue();
    ~LadderQueue();

    LadderQueue(LadderQueue &&) = default;
    LadderQueue &operator=(LadderQueue &&) = default;
    LadderQueue(const LadderQueue &) = delete;
    LadderQueue &operator=(const LadderQueue &) = delete;

    /** Schedule. @p seq must be unique within a tick (the
     *  tie-break); pushes may come in any key order. */
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
        return const_cast<LadderQueue *>(this)->materialize()
                   ? front.front().node
                   : nullptr;
    }

    /** Earliest pending tick (max_tick when empty); see peek(). */
    Tick
    min_when() const
    {
        return const_cast<LadderQueue *>(this)->materialize()
                   ? front.front().when
                   : max_tick;
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

    /** Current bucket width, log2 ticks (it changes only at rebase). */
    unsigned bucket_shift() const { return wShift; }

    /** Drop every pending event (closures destroyed). */
    void clear();

    const EventPoolStats &pool_stats() const { return pool.stats(); }

  private:
    /** A front-heap slot: the sort key inline, so sifting never
     *  dereferences a node. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventNode *node;
    };

    /** Ensure the front heap holds the earliest pending node (or
     *  the queue is empty). @return false when empty. */
    bool materialize();
    /** Move absolute bucket @p b's chain into the front heap. */
    void drain_bucket(std::uint64_t b);
    /** Move the overflow events the window now covers into the ring. */
    void pull_overflow();
    /** Re-anchor the (empty) ring at the overflow's near edge. */
    void rebase();
    /** Chain @p n into its ring bucket (must be inside the window). */
    void
    bucket_push(EventNode *n)
    {
        EventNode *&head =
            buckets[(n->when >> wShift) & (num_buckets - 1)];
        n->next = head;
        head = n;
        ++ringCount;
    }
    /** First tick of absolute bucket @p b, clamped to the horizon. */
    Tick
    bucket_start(std::uint64_t b) const
    {
        return b > (max_tick >> wShift) ? max_tick : b << wShift;
    }

    EventPool pool;

    /** Min-heap by (when, seq): every pending event below frontEnd. */
    std::vector<Entry> front;
    /** Exclusive tick bound of the front region; always
     *  bucket_start(cur). */
    Tick frontEnd = 0;

    std::vector<EventNode *> buckets; ///< chain heads, num_buckets
    std::uint64_t cur = 0;            ///< first absolute bucket in ring
    unsigned wShift = 6;              ///< bucket width = 2^wShift ticks
    std::size_t ringCount = 0;        ///< events currently bucketed

    /** Min-heap by (when, seq) of events at or past bucket
     *  cur + num_buckets. */
    std::vector<EventNode *> overflow;

    std::size_t numEvents = 0;

    /** Density bookkeeping for adaptive bucket width at rebase. */
    std::uint64_t drainedSinceRebase = 0;
    Tick lastRebaseBase = 0;
};

} // namespace ap::sim

#endif // AP_SIM_LADDERQ_HH
