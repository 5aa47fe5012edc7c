/**
 * @file
 * Payload buffer pool for the message hot path.
 *
 * A PUT/SEND payload is gathered into a vector on the sending cell,
 * rides the message by value (moves only) and dies at the destination
 * after the receive DMA scatters it — one short-lived heap allocation
 * per message. The pool breaks that cycle: send-side gathers acquire
 * a recycled vector with its capacity intact, and the destination
 * releases the buffer after consuming it, so steady-state traffic
 * performs no payload allocations at all.
 *
 * One pool exists per kernel shard (a single machine-wide pool with
 * one shard), not per cell: a one-directional flow —
 * every cell PUTting to a fixed partner — recirculates buffers only
 * if the acquire side and the release side share a pool. The pool is
 * deliberately NOT thread-safe: acquires happen inside send events on
 * the owning shard and releases inside receive events on the owning
 * shard, and a shard's events never run concurrently with each other.
 *
 * Cold paths (remote-load replies parked in the token map, spilled
 * commands) keep plain vectors; pooling needs a release point.
 */

#ifndef AP_HW_BUFPOOL_HH
#define AP_HW_BUFPOOL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace ap::hw
{

/** BufferPool counters, surfaced as sim.alloc.payload.*. */
struct BufferPoolStats
{
    std::uint64_t hits = 0;     ///< acquires served from the freelist
    std::uint64_t misses = 0;   ///< acquires that allocated
    std::uint64_t releases = 0; ///< buffers offered back
    std::uint64_t discards = 0; ///< releases freed instead of kept
};

/**
 * Freelists of payload vectors with retained capacity, one per
 * power-of-two size class.
 *
 * A class keeps at most as many buffers as it ever had handed out at
 * once: that is all its acquires can use again. Releases also bring
 * buffers the pool never made (remote-store words, B-net payloads);
 * a class that never served an acquire keeps none of them, so they
 * cannot pile up.
 */
class BufferPool
{
  public:
    /** Largest capacity worth keeping — a stray giant transfer must
     *  not pin megabytes in the freelist forever. */
    static constexpr std::size_t max_retained_capacity = 256 * 1024;

    /**
     * An empty vector with capacity for @p bytes: a recycled one of
     * the size class when there is one, else a fresh one reserved to
     * the class size (the next power of two) so it can serve the
     * class again.
     */
    std::vector<std::uint8_t>
    acquire(std::size_t bytes)
    {
        std::vector<std::uint8_t> b;
        if (bytes == 0 || bytes > max_retained_capacity) {
            ++st.misses;
            b.reserve(bytes);
            return b;
        }
        SizeClass &c = classes[std::bit_width(bytes - 1)];
        if (!c.free.empty()) {
            b = std::move(c.free.back());
            c.free.pop_back();
            ++st.hits;
        } else {
            b.reserve(std::bit_ceil(bytes));
            ++st.misses;
        }
        c.peakOut = std::max(c.peakOut, ++c.out);
        return b;
    }

    /** Offer @p buf back. Capacity-less vectors are ignored (they
     *  carry nothing worth recycling). */
    void
    release(std::vector<std::uint8_t> buf)
    {
        if (buf.capacity() == 0)
            return;
        ++st.releases;
        if (buf.capacity() > max_retained_capacity) {
            ++st.discards;
            return;
        }
        // The class whose requests this capacity can serve.
        SizeClass &c = classes[std::bit_width(buf.capacity()) - 1];
        if (c.out > 0)
            --c.out;
        if (c.free.size() >= c.peakOut) {
            ++st.discards;
            return;
        }
        buf.clear();
        c.free.push_back(std::move(buf));
    }

    const BufferPoolStats &stats() const { return st; }

  private:
    struct SizeClass
    {
        std::vector<std::vector<std::uint8_t>> free;
        std::size_t out = 0;     ///< handed out, not yet back
        std::size_t peakOut = 0; ///< most ever out at once
    };

    /** Class k serves requests of (2^(k-1), 2^k] bytes. */
    std::array<SizeClass, std::bit_width(max_retained_capacity)>
        classes;
    BufferPoolStats st;
};

} // namespace ap::hw

#endif // AP_HW_BUFPOOL_HH
