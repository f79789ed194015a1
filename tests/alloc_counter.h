#ifndef GEOLIC_TESTS_ALLOC_COUNTER_H_
#define GEOLIC_TESTS_ALLOC_COUNTER_H_

// Counts every heap allocation of the process: replaces global operator
// new/delete (the plain, nothrow and over-aligned forms) with
// malloc/aligned_alloc/free plus one relaxed counter increment per new. Include it in exactly one source file
// of a binary (the replacements are definitions); tests and benches read
// AllocationCount() around the code they measure.
//
// Pool-recycled LicenseSet spans never reach operator new; with the pool
// compiled out (GEOLIC_LICENSE_SET_NO_POOL, the sanitizer builds) every
// spilled set allocates, so counts there are higher.
//
// The replacements must stay out of the inliner: if GCC inlines a delete
// body (sees the free) without the paired new body, -Wmismatched-new-delete
// misfires on perfectly matched replacement pairs.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__GNUC__) || defined(__clang__)
#define GEOLIC_ALLOC_NOINLINE __attribute__((noinline))
#else
#define GEOLIC_ALLOC_NOINLINE
#endif

namespace geolic::testing {

inline std::atomic<uint64_t> g_allocations{0};

// Allocations made so far by the whole process.
inline uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace geolic::testing

GEOLIC_ALLOC_NOINLINE void* operator new(std::size_t size) {
  geolic::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

GEOLIC_ALLOC_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

GEOLIC_ALLOC_NOINLINE void* operator new(std::size_t size,
                                         const std::nothrow_t&) noexcept {
  geolic::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

GEOLIC_ALLOC_NOINLINE void* operator new[](std::size_t size,
                                           const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// Over-aligned types (alignas above the default) come here; the memory
// comes from aligned_alloc, which free releases.
GEOLIC_ALLOC_NOINLINE void* operator new(std::size_t size,
                                         std::align_val_t align) {
  geolic::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

GEOLIC_ALLOC_NOINLINE void* operator new[](std::size_t size,
                                           std::align_val_t align) {
  return ::operator new(size, align);
}

GEOLIC_ALLOC_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
GEOLIC_ALLOC_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete[](void* p,
                                             std::align_val_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete(void* p, std::size_t,
                                           std::align_val_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete[](void* p, std::size_t,
                                             std::align_val_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete(void* p,
                                           const std::nothrow_t&) noexcept {
  std::free(p);
}
GEOLIC_ALLOC_NOINLINE void operator delete[](void* p,
                                             const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // GEOLIC_TESTS_ALLOC_COUNTER_H_
