// ConversionArena tests (DESIGN.md §5g): warm slot reuse must produce
// matrices identical to fresh AnyMatrix::build, and — the property the
// arena exists for — re-converting a same-shaped (or smaller) matrix
// must perform ZERO heap allocations. Proven with a replacement global
// operator new that counts every allocation in the process; each gtest
// case runs in its own process (gtest_discover_tests), so the counter
// only sees this file's work. A threaded case exercises one-arena-per-
// thread under tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "sparse/arena.hpp"
#include "sparse/spmv.hpp"
#include "synth/generators.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Counting replacements for the whole test binary. The nothrow variants
// must be replaced alongside the plain ones: libstdc++'s temporary
// buffers (stable_sort) allocate nothrow, and under ASan the intercepted
// nothrow new would otherwise mismatch our free-based delete. Aligned
// overloads are deliberately not replaced: the sparse buffers are plain
// vectors of double/index_t and never use them.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace spmvml {
namespace {

Csr<double> test_matrix(index_t rows, double mu, std::uint64_t seed) {
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = rows;
  spec.cols = rows;
  spec.row_mu = mu;
  spec.row_cv = 0.6;
  spec.seed = seed;
  return generate(spec);
}

/// Allocations performed by `fn`.
template <typename F>
std::size_t allocs_during(F&& fn) {
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(Arena, WarmConversionEqualsFreshBuild) {
  const auto csr = test_matrix(200, 9.0, 42);
  ConversionArena<double> arena;
  for (const Format f : kAllFormats) {
    arena.convert(f, csr);  // cold: allocates
    const AnyMatrix<double>& warm = arena.convert(f, csr);
    EXPECT_EQ(warm, AnyMatrix<double>::build(f, csr)) << format_name(f);
  }
}

TEST(Arena, WarmConversionAllocatesNothing) {
  const auto csr = test_matrix(300, 12.0, 7);
  ConversionArena<double> arena;
  for (const Format f : kAllFormats) {
    arena.convert(f, csr);
    arena.convert(f, csr);  // second round settles any growth
    const std::size_t n = allocs_during([&] { arena.convert(f, csr); });
    EXPECT_EQ(n, 0u) << format_name(f) << " warm convert allocated";
  }
}

TEST(Arena, ShrinkingMatrixReusesCapacity) {
  const auto big = test_matrix(400, 16.0, 11);
  const auto small = test_matrix(150, 6.0, 12);
  ConversionArena<double> arena;
  for (const Format f : kAllFormats) {
    arena.convert(f, big);
    const std::size_t n = allocs_during([&] { arena.convert(f, small); });
    EXPECT_EQ(n, 0u) << format_name(f) << " shrink convert allocated";
    EXPECT_EQ(arena.convert(f, small), AnyMatrix<double>::build(f, small))
        << format_name(f);
  }
}

TEST(Arena, GrowingMatrixStaysCorrect) {
  const auto small = test_matrix(100, 5.0, 21);
  const auto big = test_matrix(350, 14.0, 22);
  ConversionArena<double> arena;
  for (const Format f : kAllFormats) {
    arena.convert(f, small);
    EXPECT_EQ(arena.convert(f, big), AnyMatrix<double>::build(f, big))
        << format_name(f);
  }
}

TEST(Arena, SlotsAreIndependent) {
  // Converting one format must not disturb another format's slot.
  const auto a = test_matrix(120, 8.0, 31);
  const auto b = test_matrix(90, 4.0, 32);
  ConversionArena<double> arena;
  const AnyMatrix<double>& ell = arena.convert(Format::kEll, a);
  arena.convert(Format::kCsr5, b);
  arena.convert(Format::kHyb, b);
  EXPECT_EQ(ell, AnyMatrix<double>::build(Format::kEll, a));
}

TEST(Arena, ClearDropsCachedState) {
  const auto csr = test_matrix(150, 7.0, 51);
  ConversionArena<double> arena;
  for (const Format f : kAllFormats) arena.convert(f, csr);
  arena.clear();
  // Conversions after clear() are cold again but still correct.
  for (const Format f : kAllFormats)
    EXPECT_EQ(arena.convert(f, csr), AnyMatrix<double>::build(f, csr))
        << format_name(f);
}

TEST(Arena, FormatSwitchOnSameSlotStaysCorrect) {
  // The serving path rebuilds whatever format the selector picks; a slot
  // is per-format so switching formats uses different slots, but the
  // shared CSR5 scratch is reused across rebuilds — interleave to prove
  // no cross-talk.
  const auto a = test_matrix(180, 10.0, 61);
  const auto b = test_matrix(180, 10.0, 62);
  ConversionArena<double> arena;
  arena.convert(Format::kCsr5, a);
  arena.convert(Format::kMergeCsr, a);
  const AnyMatrix<double>& c5 = arena.convert(Format::kCsr5, b);
  EXPECT_EQ(c5, AnyMatrix<double>::build(Format::kCsr5, b));
  const AnyMatrix<double>& mc = arena.convert(Format::kMergeCsr, b);
  EXPECT_EQ(mc, AnyMatrix<double>::build(Format::kMergeCsr, b));
}

TEST(Arena, OneArenaPerThreadIsRaceFree) {
  // The serving design: each worker owns a thread_local arena. Run four
  // threads with private arenas over shared (const) CSR inputs — tsan
  // must see no races, and every thread's results must match fresh
  // builds.
  const auto a = test_matrix(160, 9.0, 71);
  const auto b = test_matrix(110, 5.0, 72);
  std::vector<int> failures(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ConversionArena<double> arena;
      for (int round = 0; round < 8; ++round) {
        const Csr<double>& csr = (round + t) % 2 == 0 ? a : b;
        for (const Format f : kAllFormats) {
          if (!(arena.convert(f, csr) == AnyMatrix<double>::build(f, csr)))
            ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0);
}

TEST(Arena, SpmvOnWarmSlotMatchesFresh) {
  // End-to-end: the y computed from an arena-built matrix is bitwise the
  // y from a fresh build (the serving materialize path depends on this).
  const auto csr = test_matrix(250, 11.0, 81);
  std::vector<double> x(static_cast<std::size_t>(csr.cols()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 + 0.01 * static_cast<double>(i % 13);
  ConversionArena<double> arena;
  std::vector<double> y_warm(static_cast<std::size_t>(csr.rows()));
  std::vector<double> y_fresh(y_warm.size());
  for (const Format f : kAllFormats) {
    arena.convert(f, csr);
    arena.convert(f, csr).spmv(x, y_warm);
    AnyMatrix<double>::build(f, csr).spmv(x, y_fresh);
    EXPECT_EQ(y_warm, y_fresh) << format_name(f);
  }
}

}  // namespace
}  // namespace spmvml
