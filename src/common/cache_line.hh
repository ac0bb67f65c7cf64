/**
 * @file
 * Cache-line padding for state that two threads write side by side.
 *
 * SimEngine::ThreadedLanes steps disjoint node groups of one machine
 * on several threads. Per-node entries of a shared array (a fabric's
 * delivery queue headers, a counter block) are written only by the
 * thread that owns the node, but neighbouring entries that share a
 * cache line still make the line bounce between cores on every
 * write. Padding each entry to its own line (alignas(cacheLineBytes)
 * on the entry type, or the allocator below for an array of words)
 * removes that traffic without changing any value.
 */

#ifndef NEUROCUBE_COMMON_CACHE_LINE_HH
#define NEUROCUBE_COMMON_CACHE_LINE_HH

#include <cstddef>
#include <new>
#include <vector>

namespace neurocube
{

/** Cache-line size the padding assumes (x86-64 and AArch64 cores). */
inline constexpr size_t cacheLineBytes = 64;

/** Allocator whose arrays start on a cache-line boundary. */
template <class T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <class U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(cacheLineBytes)));
    }

    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t(cacheLineBytes));
    }

    template <class U>
    bool
    operator==(const CacheLineAllocator<U> &) const
    {
        return true;
    }
};

/** A vector whose first element starts a cache line. */
template <class T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

} // namespace neurocube

#endif // NEUROCUBE_COMMON_CACHE_LINE_HH
