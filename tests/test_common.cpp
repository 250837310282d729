// Unit tests for src/common: RNG determinism, streaming stats, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "thread_counts.hpp"

namespace spmvml {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, LognormalMedianApproximately) {
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 10001; ++i) v.push_back(rng.lognormal(2.0, 0.3));
  std::sort(v.begin(), v.end());
  EXPECT_NEAR(v[v.size() / 2], 2.0, 0.1);
}

TEST(Rng, ParetoIntRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.pareto_int(1.5, 100);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(5, 6), hash_combine(5, 6));
}

TEST(StreamingStats, MatchesHandComputation) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, EmptyIsSafe) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStats, MergeEqualsSinglePass) {
  StreamingStats a, b, whole;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(3.0, 2.0);
    (i < 200 ? a : b).add(v);
    whole.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeExactFieldsAndDeterministicOrder) {
  // count/sum/min/max merge exactly; a fixed block partition merged in
  // order gives bit-identical results on every run — the contract the
  // parallel feature extraction relies on.
  std::vector<double> values;
  Rng rng(91);
  for (int i = 0; i < 1000; ++i) values.push_back(rng.normal(0.0, 50.0));

  auto blocked = [&](std::size_t block) {
    StreamingStats total;
    for (std::size_t start = 0; start < values.size(); start += block) {
      StreamingStats s;
      for (std::size_t i = start; i < std::min(values.size(), start + block);
           ++i)
        s.add(values[i]);
      total.merge(s);
    }
    return total;
  };
  const StreamingStats a = blocked(64);
  const StreamingStats b = blocked(64);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());        // bitwise: same merge order
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());

  StreamingStats whole;
  double sum = 0.0;
  for (double v : values) {
    whole.add(v);
    sum += v;
  }
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  EXPECT_NEAR(a.sum(), sum, 1e-9 * std::abs(sum) + 1e-9);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12 * (1.0 + std::abs(whole.mean())));
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9 * whole.variance());
}

TEST(StreamingStats, SelfMergeDoublesTheStream) {
  StreamingStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(6.0);
  s.merge(s);
  EXPECT_EQ(s.count(), 6);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 18.0);
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  StreamingStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_EQ(b.count(), 2);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name   | v"), std::string::npos);
  EXPECT_NE(s.find("longer | 22"), std::string::npos);
}

TEST(TablePrinter, RejectsRaggedRows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(HashBytes, AnySingleByteChangeChangesTheHash) {
  // Lengths cover the empty input, partial words, whole words and more
  // than one 32-byte round of the four lanes.
  for (std::size_t n = 1; n <= 80; ++n) {
    std::vector<unsigned char> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
      bytes[i] = static_cast<unsigned char>(37 * i + 11);
    const std::uint64_t base = hash_bytes(bytes.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (const unsigned char flip : {0x01, 0x80}) {
        bytes[i] ^= flip;
        EXPECT_NE(hash_bytes(bytes.data(), n), base)
            << "length " << n << ", byte " << i;
        bytes[i] ^= flip;
      }
    }
    EXPECT_EQ(hash_bytes(bytes.data(), n), base) << "length " << n;
  }
}

TEST(HashBytes, LengthSeedsTheLanesSoZeroPaddingIsNotAmbiguous) {
  // A partial last word is zero-padded, so without the length seed
  // "ab" and "ab\0" would hash alike.
  const unsigned char bytes[40] = {'a', 'b'};
  std::vector<std::uint64_t> seen;
  for (std::size_t n = 0; n <= sizeof bytes; ++n) {
    const std::uint64_t h = hash_bytes(bytes, n);
    for (const std::uint64_t prev : seen) EXPECT_NE(h, prev) << "length " << n;
    seen.push_back(h);
  }
}

TEST(HashBytes, ChainsThroughTheSeedInOrder) {
  const std::string a = "row_ptr bytes", b = "col_idx bytes";
  const std::uint64_t ab = hash_bytes(b.data(), b.size(),
                                      hash_bytes(a.data(), a.size()));
  const std::uint64_t ba = hash_bytes(a.data(), a.size(),
                                      hash_bytes(b.data(), b.size()));
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, hash_bytes(b.data(), b.size(),
                           hash_bytes(a.data(), a.size())));
  EXPECT_NE(hash_bytes(a.data(), a.size(), 1),
            hash_bytes(a.data(), a.size(), 2));
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::pct(0.875, 1), "87.5%");
}

TEST(Env, DoubleParsingWithFallback) {
  setenv("SPMVML_TEST_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("SPMVML_TEST_D", 1.0), 2.5);
  setenv("SPMVML_TEST_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_double("SPMVML_TEST_D", 1.0), 1.0);
  unsetenv("SPMVML_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("SPMVML_TEST_D", 3.0), 3.0);
}

TEST(Env, IntParsingWithFallback) {
  setenv("SPMVML_TEST_I", "42", 1);
  EXPECT_EQ(env_int("SPMVML_TEST_I", 7), 42);
  unsetenv("SPMVML_TEST_I");
  EXPECT_EQ(env_int("SPMVML_TEST_I", 7), 7);
}

TEST(Env, CorpusScaleClamped) {
  setenv("SPMVML_CORPUS_SCALE", "1000", 1);
  EXPECT_DOUBLE_EQ(corpus_scale(), 10.0);
  setenv("SPMVML_CORPUS_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(corpus_scale(), 0.01);
  unsetenv("SPMVML_CORPUS_SCALE");
  EXPECT_DOUBLE_EQ(corpus_scale(), 1.0);
}

/// Sets an environment variable for one scope and puts back the value
/// it had before.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) setenv(name_, old_->c_str(), 1);
    else unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Env, FastModeAndRootSeedFollowTheEnvironment) {
  {
    ScopedEnv fast("SPMVML_FAST", "1");
    ScopedEnv seed("SPMVML_SEED", "77");
    EXPECT_TRUE(fast_mode());
    EXPECT_EQ(root_seed(), 77u);
  }
  {
    ScopedEnv fast("SPMVML_FAST", "0");
    ScopedEnv seed("SPMVML_SEED", "");  // empty falls back to the default
    EXPECT_FALSE(fast_mode());
    EXPECT_EQ(root_seed(), 2018u);
  }
}

TEST(Env, ThreadCountClampedToOneThrough256) {
  {
    ScopedEnv threads("SPMVML_THREADS", "0");
    EXPECT_EQ(thread_count(), 1);
  }
  {
    ScopedEnv threads("SPMVML_THREADS", "100000");
    EXPECT_EQ(thread_count(), 256);
  }
  {
    ScopedEnv threads("SPMVML_THREADS", "3");
    EXPECT_EQ(thread_count(), 3);
  }
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<int> hits(5000, 0);
  parallel_for(5000, /*min_parallel_n=*/1024,
               [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_GE(parallel_threads(), 1);
  at_each_thread_count([](ThreadPool& pool, int threads) {
    EXPECT_EQ(parallel_threads(pool), threads);
    for (const std::int64_t n : {0, 1, 3, 5000}) {
      std::vector<int> runs(static_cast<std::size_t>(n), 0);
      parallel_for(
          n, /*min_parallel_n=*/2,
          [&](std::int64_t i) { runs[static_cast<std::size_t>(i)]++; }, pool);
      for (int r : runs) EXPECT_EQ(r, 1) << "n=" << n << " threads=" << threads;
    }
  });
}

TEST(Parallel, ExceptionIsRethrownAfterEveryIndexRan) {
  // Below and above the parallel threshold: an index that throws stops
  // neither its own chunk nor the others.
  at_each_thread_count([](ThreadPool& pool, int threads) {
    for (const std::int64_t n : {100, 5000}) {
      std::vector<int> runs(static_cast<std::size_t>(n), 0);
      EXPECT_THROW(parallel_for(
                       n, /*min_parallel_n=*/1024,
                       [&](std::int64_t i) {
                         runs[static_cast<std::size_t>(i)]++;
                         if (i % 97 == 5) throw std::runtime_error("boom");
                       },
                       pool),
                   std::runtime_error);
      for (int r : runs) EXPECT_EQ(r, 1) << "n=" << n << " threads=" << threads;
    }
  });
}

TEST(Ensure, ThrowsWithMessage) {
  try {
    SPMVML_ENSURE(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

}  // namespace
}  // namespace spmvml
