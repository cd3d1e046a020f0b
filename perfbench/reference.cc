#include "reference.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

// Read at run time, so the compiler cannot fold the kernel's work away.
volatile uint64_t g_kernel_seed = 0x243f6a8885a308d3ULL;

// 64-bit LCG; the kernel keeps its own generator so that nothing it runs
// belongs to the program under test.
struct Lcg {
  uint64_t state = g_kernel_seed;
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

struct Buffers {
  std::vector<uint32_t> ring;   // One cycle through 2^16 slots (256 KiB).
  std::vector<uint64_t> table;  // Open-addressing hash set, 2^14 slots.
  std::vector<uint64_t> keys;   // Sort input.
};

Buffers& TheBuffers() {
  static Buffers buffers = [] {
    Buffers b;
    constexpr uint32_t kSlots = 1u << 16;
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      order[i] = i;
    }
    Lcg lcg;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[lcg.Next() % (i + 1)]);
    }
    b.ring.resize(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      b.ring[order[i]] = order[(i + 1) % kSlots];
    }
    b.table.resize(1u << 14);
    b.keys.resize(8192);
    return b;
  }();
  return buffers;
}

uint64_t Kernel(Buffers& b) {
  uint64_t x = g_kernel_seed;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  uint32_t at = 0;
  for (int i = 0; i < 32768; ++i) {
    at = b.ring[at];
  }
  std::fill(b.table.begin(), b.table.end(), 0);
  const uint64_t mask = b.table.size() - 1;
  Lcg lcg;
  uint64_t hits = 0;
  for (int i = 0; i < 12288; ++i) {
    uint64_t key = lcg.Next() % 8192 + 1;
    uint64_t slot = (key * 0x9e3779b97f4a7c15ULL) >> 50;
    while (b.table[slot & mask] != 0 && b.table[slot & mask] != key) {
      ++slot;
    }
    if (i < 4096) {
      b.table[slot & mask] = key;
    } else {
      hits += b.table[slot & mask] == key ? 1 : 0;
    }
  }
  for (uint64_t& k : b.keys) {
    k = lcg.Next();
  }
  std::sort(b.keys.begin(), b.keys.end());
  return x + at + hits + b.keys[b.keys.size() / 2];
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ReferenceKernelMs() {
  Buffers& b = TheBuffers();
  volatile uint64_t sink = Kernel(b);
  double start = ThreadCpuMs();
  sink = Kernel(b);
  double ms = ThreadCpuMs() - start;
  (void)sink;
  return ms;
}

}  // namespace perfbench
