/**
 * @file
 * A FIFO ring that keeps its storage.
 *
 * The MSC+ command queues and the SEND ring buffer are FIFOs that
 * fill and drain all run long. std::deque allocates a map and a
 * 512-byte node when it is built and then a node per 512 bytes
 * pushed, freeing nodes again as they drain, so every cell paid
 * eleven deques' allocations up front and traffic churned nodes
 * forever. This ring allocates on its first push, doubles when full
 * and never shrinks: after warm-up, pushes and pops allocate
 * nothing.
 */

#ifndef AP_BASE_FIFO_HH
#define AP_BASE_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace ap
{

/** Growable power-of-two ring of default-constructible values. */
template <typename T>
class Fifo
{
  public:
    /** Slots allocated by the first push. */
    static constexpr std::size_t initial_capacity = 8;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    /** The @p i-th oldest value (0 = front). */
    T &operator[](std::size_t i) { return slots[index(i)]; }
    const T &operator[](std::size_t i) const { return slots[index(i)]; }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }

    void
    push_back(T v)
    {
        if (count == slots.size())
            grow();
        slots[index(count)] = std::move(v);
        ++count;
    }

    /** Remove and return the front value. */
    T
    pop_front()
    {
        T v = std::move(slots[head]);
        head = index(1);
        --count;
        return v;
    }

    /**
     * Remove and return the @p i-th oldest value; the others keep
     * their order. Shifts whichever side of @p i is shorter.
     */
    T
    take(std::size_t i)
    {
        T v = std::move((*this)[i]);
        if (i < count / 2) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            head = index(1);
        } else {
            for (std::size_t j = i; j + 1 < count; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --count;
        return v;
    }

  private:
    std::size_t
    index(std::size_t i) const
    {
        return (head + i) & (slots.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? initial_capacity
                                            : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace ap

#endif // AP_BASE_FIFO_HH
