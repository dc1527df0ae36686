#include "bench/alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_excluded = false;

void* counted(std::size_t n) {
  if (!t_excluded) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* counted_or_throw(std::size_t n) {
  void* p = counted(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t n, std::size_t align) {
  if (!t_excluded) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t counted_allocs() { return g_allocs.load(std::memory_order_relaxed); }

void exclude_this_thread_from_alloc_count() { t_excluded = true; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_or_throw(n); }
void* operator new[](std::size_t n) { return perfbench::counted_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return perfbench::counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
