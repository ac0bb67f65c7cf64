/**
 * @file
 * Growable circular FIFO with deque-style accessors.
 *
 * The router input/output FIFOs, the NoC endpoint delivery queues and
 * the DRAM channel's request and response queues are small, bounded
 * queues on the per-tick hot path. A contiguous ring with power-of-two
 * capacity replaces the std::deque chunk map with a mask and two
 * indices, and allocates nothing in steady state. The ring grows
 * (doubling, relinearizing) whenever a push would overflow it, so a
 * default-constructed ring costs nothing until first use and a
 * capacity hint only pre-sizes it.
 */

#ifndef NEUROCUBE_COMMON_RING_HH
#define NEUROCUBE_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace neurocube
{

/** A circular FIFO of T that also supports ordered removal. */
template <typename T>
class Ring
{
  public:
    /** An empty ring; storage is allocated by the first push. */
    Ring() = default;

    /** @param capacity_hint expected bound on resident elements */
    explicit Ring(size_t capacity_hint)
        : buf_(roundUp(capacity_hint)), cap_(buf_.size())
    {
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T &front() const { return buf_[head_]; }
    T &front() { return buf_[head_]; }
    const T &back() const { return buf_[slot(size_ - 1)]; }
    T &back() { return buf_[slot(size_ - 1)]; }

    /** Element @p i positions behind the front. @pre i < size() */
    const T &operator[](size_t i) const { return buf_[slot(i)]; }
    T &operator[](size_t i) { return buf_[slot(i)]; }

    void
    pop_front()
    {
        head_ = slot(1);
        --size_;
    }

    void
    push_back(const T &value)
    {
        if (size_ == cap_)
            grow();
        buf_[slot(size_)] = value;
        ++size_;
    }

    /**
     * Remove elements [idx, idx + n), keeping the order of the rest.
     * Whichever side of the gap is shorter moves, so erasing at the
     * front only advances the head. @pre idx + n <= size()
     */
    void
    erase(size_t idx, size_t n)
    {
        if (idx < size_ - idx - n) {
            for (size_t i = idx; i-- > 0;)
                buf_[slot(i + n)] = std::move(buf_[slot(i)]);
            head_ = slot(n);
        } else {
            for (size_t i = idx + n; i < size_; ++i)
                buf_[slot(i - n)] = std::move(buf_[slot(i)]);
        }
        size_ -= n;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    static size_t
    roundUp(size_t n)
    {
        size_t cap = 4;
        while (cap < n)
            cap *= 2;
        return cap;
    }

    /** Buffer index of the element @p i positions behind the head. */
    size_t slot(size_t i) const { return (head_ + i) & (cap_ - 1); }

    void
    grow()
    {
        std::vector<T> wider(cap_ == 0 ? 4 : cap_ * 2);
        for (size_t i = 0; i < size_; ++i)
            wider[i] = std::move(buf_[slot(i)]);
        head_ = 0;
        buf_ = std::move(wider);
        cap_ = buf_.size();
    }

    std::vector<T> buf_;
    /**
     * buf_.size(), a power of two (or 0 before the first push). Kept
     * apart because the size of a vector of non-power-of-two-sized
     * elements costs a division on every index.
     */
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_COMMON_RING_HH
