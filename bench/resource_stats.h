// Shared resource accounting for the bench binaries: peak RSS and heap
// allocation counters, reported alongside throughput so the perf trajectory
// tracks memory as well as speed.
//
// Peak RSS is the kernel's high-water mark for the whole process
// (getrusage), so it is monotone: a sweep that wants per-point peaks must
// isolate each point in its own process (see run_isolated in fork_util.h).
//
// Allocation counting is opt-in per binary: define
// BSUB_RESOURCE_STATS_COUNT_ALLOCS in exactly one TU (before including this
// header) to replace the global allocation functions with counting
// versions; allocs_now() then reports the process-lifetime allocation
// count and allocated_bytes_now() the cumulative bytes requested (both
// monotone — frees are not subtracted, so a delta across a code region is
// exactly the bytes that region allocated, regardless of what it later
// freed). Without the macro, the counters return 0.
#pragma once

#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#if defined(BSUB_RESOURCE_STATS_COUNT_ALLOCS)
#include <atomic>
#include <cstdlib>
#include <new>
#endif

namespace bsub::bench {

/// Peak resident set size of this process so far, in bytes (0 when the
/// platform offers no getrusage).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // reported in bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // in KiB
#endif
#else
  return 0;
#endif
}

}  // namespace bsub::bench

#if defined(BSUB_RESOURCE_STATS_COUNT_ALLOCS)

namespace bsub::bench::detail {
inline std::atomic<std::uint64_t> g_alloc_count{0};
inline std::atomic<std::uint64_t> g_alloc_bytes{0};

/// Counts one allocation of `size` bytes and returns the block, or null
/// when malloc (or aligned_alloc) fails.
inline void* try_counted_alloc(std::size_t size, std::size_t align = 0) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align == 0) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

inline void* counted_alloc(std::size_t size, std::size_t align = 0) {
  if (void* p = try_counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}
}  // namespace bsub::bench::detail

// Replacing the global allocation functions in this TU counts every heap
// allocation the process makes (atomic, so multi-threaded benches count
// correctly), over-aligned ones included: the TCBF counter block comes
// from the std::align_val_t forms.
void* operator new(std::size_t size) {
  return bsub::bench::detail::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return bsub::bench::detail::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return bsub::bench::detail::try_counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return bsub::bench::detail::try_counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return bsub::bench::detail::counted_alloc(size,
                                            static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return bsub::bench::detail::counted_alloc(size,
                                            static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return bsub::bench::detail::try_counted_alloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return bsub::bench::detail::try_counted_alloc(
      size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bsub::bench {
inline std::uint64_t allocs_now() {
  return detail::g_alloc_count.load(std::memory_order_relaxed);
}
inline std::uint64_t allocated_bytes_now() {
  return detail::g_alloc_bytes.load(std::memory_order_relaxed);
}
}  // namespace bsub::bench

#else  // !BSUB_RESOURCE_STATS_COUNT_ALLOCS

namespace bsub::bench {
inline std::uint64_t allocs_now() { return 0; }
inline std::uint64_t allocated_bytes_now() { return 0; }
}  // namespace bsub::bench

#endif
