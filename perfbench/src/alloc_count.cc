// perfbench: a counting global allocator for the benchmark binary. While
// counting is on, every heap allocation — library code included, on any
// thread — bumps one relaxed atomic. Kept in its own translation unit so
// no inlined container code sees both the malloc-backed new and free().

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

}  // namespace

namespace perfbench {

void SetAllocCounting(bool on) {
  if (on) g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

// Sized and unsized deletes route to free(); aligned new/delete keep their
// default pairing.
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
