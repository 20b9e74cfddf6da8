#ifndef VMSIM_BASE_ALIGNED_HH
#define VMSIM_BASE_ALIGNED_HH

// Cache-line-aligned vector storage for the structure-of-arrays hot
// structures (DESIGN.md "Hot-path data layout").  The TLB's packed key
// / stamp / valid arrays each start on their own 64-byte line so a
// linear probe touches the minimum number of lines and the arrays
// never false-share a line with unrelated members.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace vmsim {

inline constexpr std::size_t kCacheLineBytes = 64;

template <class T>
struct CacheAlignedAlloc {
    using value_type = T;

    CacheAlignedAlloc() = default;
    template <class U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U> &) {}

    T *allocate(std::size_t n) {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kCacheLineBytes}));
    }

    void deallocate(T *p, std::size_t) {
        ::operator delete(p, std::align_val_t{kCacheLineBytes});
    }

    template <class U>
    bool operator==(const CacheAlignedAlloc<U> &) const { return true; }
    template <class U>
    bool operator!=(const CacheAlignedAlloc<U> &) const { return false; }
};

template <class T>
using AlignedVec = std::vector<T, CacheAlignedAlloc<T>>;

// Anonymous-mmap storage for large, short-lived buffers (recorded
// traces). Freeing such a buffer through malloc raises glibc's dynamic
// mmap threshold, after which the next buffers of the same size come
// from the brk heap and the process's resident peak grows with the
// heap's fragmentation. Mapping them directly returns every page to
// the OS on free. Buffers below kMinMappedBytes use operator new.
// A value-less construct() leaves the element unwritten, so resize()
// before a bulk fill writes each element once instead of twice.
template <class T>
struct PageMappedAlloc {
    using value_type = T;
    static constexpr std::size_t kMinMappedBytes = std::size_t{1} << 20;

    PageMappedAlloc() = default;
    template <class U>
    PageMappedAlloc(const PageMappedAlloc<U> &) {}

    T *allocate(std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMinMappedBytes)
            return static_cast<T *>(::operator new(bytes));
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMinMappedBytes)
            ::operator delete(p);
        else
            ::munmap(p, bytes);
    }

    template <class U>
    void construct(U *) noexcept {
        static_assert(std::is_trivially_copyable_v<U> &&
                          std::is_trivially_destructible_v<U>,
                      "only implicit-lifetime elements may stay unwritten");
    }

    template <class U, class... Args>
    void construct(U *p, Args &&...args) {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    bool operator==(const PageMappedAlloc<U> &) const { return true; }
    template <class U>
    bool operator!=(const PageMappedAlloc<U> &) const { return false; }
};

} // namespace vmsim

#endif // VMSIM_BASE_ALIGNED_HH
