// Replaces the global operator new of the benchmark binary so that it can
// count the allocations made inside Tick() (monitor.allocs_per_tick).
// Counting is off unless the traced run switches it on.

#include <cstdlib>
#include <new>

#include "monitor_bench.h"

void* operator new(std::size_t size) {
  perfbench::CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
