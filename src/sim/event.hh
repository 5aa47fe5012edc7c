/**
 * @file
 * Pooled event representation for the simulation kernels.
 *
 * Two pieces, shared by every shard of the Simulator kernel
 * (sim/ladderq.hh ties them together):
 *
 *   EventFn   A move-only, small-buffer-optimized callable replacing
 *             the per-event std::function<void()>. Closures up to
 *             inline_capacity bytes live inside the event node; only
 *             oversized or throwing-move captures fall back to the
 *             heap (counted, so the zero-allocation CI assertion can
 *             see them).
 *
 *   EventPool A freelist + arena for EventNode. Nodes are carved from
 *             block allocations and recycled forever; after warmup a
 *             steady-state simulation schedules events without
 *             touching the host allocator. Hits (freelist reuse) and
 *             misses (fresh carve / new block) feed the sim.alloc.*
 *             stats subtree.
 *
 * Neither type is thread-safe on its own: a pool is owned by exactly
 * one queue, and every queue is only touched by one thread at a time
 * (a one-shard kernel trivially; shard queues by the owning worker
 * during rounds and by the coordinator at barriers, ordered by the
 * round handshake).
 */

#ifndef AP_SIM_EVENT_HH
#define AP_SIM_EVENT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace ap::sim
{

/** Process-global count of EventFn closures that spilled to the
 *  heap (capture too large for the inline buffer). Monotonic;
 *  steady-state simulation must not grow it. */
std::uint64_t eventfn_heap_allocs();

namespace detail
{
extern std::atomic<std::uint64_t> eventFnHeapAllocs;
} // namespace detail

/**
 * Move-only type-erased void() callable with a fixed inline buffer.
 *
 * Unlike std::function this never copies the target, and the common
 * case (a lambda capturing a Message, a Command, or a handful of
 * pointers) is stored inline in the event node — no allocation on
 * the scheduling hot path.
 */
class EventFn
{
  public:
    /** Inline closure budget. Sized for the fattest hot-path
     *  capture (a lambda holding a net::Message by value); checked
     *  by static_asserts at the hot call sites. */
    static constexpr std::size_t inline_capacity = 192;

    /** True when callables of type F are stored inline. */
    template <typename F>
    static constexpr bool
    fits()
    {
        return sizeof(F) <= inline_capacity &&
               alignof(F) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<F>;
    }

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fits<Fn>()) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            ops = ops_inline<Fn>();
        } else {
            auto *p = new Fn(std::forward<F>(f));
            ::new (static_cast<void *>(buf)) Fn *(p);
            ops = ops_heap<Fn>();
            detail::eventFnHeapAllocs.fetch_add(
                1, std::memory_order_relaxed);
        }
    }

    EventFn(EventFn &&o) noexcept
    {
        if (o.ops) {
            o.ops->relocate(buf, o.buf);
            ops = o.ops;
            o.ops = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            if (o.ops) {
                o.ops->relocate(buf, o.buf);
                ops = o.ops;
                o.ops = nullptr;
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Destroy the target (no-op when empty). */
    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    explicit operator bool() const { return ops != nullptr; }

    void operator()() { ops->invoke(buf); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static const Ops *
    ops_inline()
    {
        static constexpr Ops ops = {
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *dst, void *src) {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) { static_cast<Fn *>(p)->~Fn(); },
        };
        return &ops;
    }

    template <typename Fn>
    static const Ops *
    ops_heap()
    {
        static constexpr Ops ops = {
            [](void *p) { (**static_cast<Fn **>(p))(); },
            [](void *dst, void *src) {
                ::new (dst) Fn *(*static_cast<Fn **>(src));
            },
            [](void *p) { delete *static_cast<Fn **>(p); },
        };
        return &ops;
    }

    alignas(std::max_align_t) unsigned char buf[inline_capacity];
    const Ops *ops = nullptr;
};

/** One scheduled event. Lives in an EventPool block; `next` chains
 *  freelist slots and ladder-queue bucket membership. */
struct EventNode
{
    Tick when = 0;
    std::uint64_t seq = 0;
    int affinity = 0;
    EventNode *next = nullptr;
    EventFn fn;
};

/** EventPool counters, surfaced as sim.alloc.event.*. */
struct EventPoolStats
{
    std::uint64_t hits = 0;   ///< acquires served from the freelist
    std::uint64_t misses = 0; ///< acquires that carved a fresh node
    std::uint64_t blocks = 0; ///< block allocations (malloc calls)
};

/**
 * Arena + freelist of EventNode. acquire() recycles released nodes;
 * only growth past the high-water mark allocates (one block of
 * block_nodes at a time).
 */
class EventPool
{
  public:
    static constexpr std::size_t block_nodes = 256;

    EventPool() = default;
    EventPool(EventPool &&) = default;
    EventPool &operator=(EventPool &&) = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    EventNode *
    acquire(Tick when, std::uint64_t seq, int affinity, EventFn fn)
    {
        EventNode *n;
        if (freeHead) {
            n = freeHead;
            freeHead = n->next;
            ++st.hits;
        } else {
            if (bump == block_nodes) {
                blocks.push_back(
                    std::make_unique<EventNode[]>(block_nodes));
                bump = 0;
                ++st.blocks;
            }
            n = &blocks.back()[bump++];
            ++st.misses;
        }
        n->when = when;
        n->seq = seq;
        n->affinity = affinity;
        n->next = nullptr;
        n->fn = std::move(fn);
        return n;
    }

    /** Return @p n to the freelist, destroying its closure now (the
     *  closure may own pooled payload buffers that must go home). */
    void
    release(EventNode *n)
    {
        n->fn.reset();
        n->next = freeHead;
        freeHead = n;
    }

    const EventPoolStats &stats() const { return st; }

  private:
    std::vector<std::unique_ptr<EventNode[]>> blocks;
    EventNode *freeHead = nullptr;
    std::size_t bump = block_nodes; ///< next fresh slot in back block
    EventPoolStats st;
};

/** Aggregated kernel allocation counters (sim.alloc.*). */
struct SimAllocStats
{
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
    std::uint64_t poolBlocks = 0;
    /** Process-global EventFn heap spills (see eventfn_heap_allocs). */
    std::uint64_t fnHeap = 0;
};

} // namespace ap::sim

#endif // AP_SIM_EVENT_HH
