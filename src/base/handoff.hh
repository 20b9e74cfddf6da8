/**
 * @file
 * What a run's helper threads share: the budget that admits one, and
 * the wait on a handoff counter. Two helpers exist, the trace
 * prefetcher's producer (trace/prefetch.hh) and the split back end's
 * worker (os/vm_system.hh); each hands blocks to or from the
 * simulation thread through counters published with release/acquire.
 */

#ifndef VMSIM_BASE_HANDOFF_HH
#define VMSIM_BASE_HANDOFF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace vmsim
{

/**
 * Whether a run may add a helper thread: true while every run in
 * flight could have two hardware threads, i.e. 2 x @p runs_in_flight
 * <= @p hardware_threads. An unknown thread count (0) never admits one.
 */
constexpr bool
helperThreadAffordable(unsigned runs_in_flight, unsigned hardware_threads)
{
    return hardware_threads != 0 &&
           2ull * runs_in_flight <= hardware_threads;
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Wait until @p a differs from @p old; returns the new value. The
 * waiter polls with a pause for about a microsecond, then polls
 * yielding the CPU (should the other side share it) for 50 us, and
 * only then blocks in std::atomic::wait: a futex sleep and wake-up
 * costs more than a handed-off block on a virtual machine, so a wait
 * the other side is about to end must not pay for one. The other side
 * calls notify_one() after each store.
 */
inline std::uint32_t
awaitChange(const std::atomic<std::uint32_t> &a, std::uint32_t old)
{
    constexpr int kPauses = 64;
    constexpr auto kSpin = std::chrono::microseconds(50);
    for (int i = 0; i < kPauses; ++i) {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        cpuRelax();
    }
    const auto until = std::chrono::steady_clock::now() + kSpin;
    do {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < until);
    for (;;) {
        a.wait(old, std::memory_order_acquire);
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

} // namespace vmsim

#endif // VMSIM_BASE_HANDOFF_HH
