// Matrix Market I/O tests: round trips, symmetric expansion, pattern
// files, malformed input rejection.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/mmio.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"

namespace spmvml {
namespace {

TEST(Mmio, ReadsGeneralRealCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1 1.5\n"
      "2 3 -2.0\n"
      "3 4 0.25\n");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.values()[0], 1.5);
  EXPECT_EQ(m.col_idx()[1], 2);  // 1-based 3 -> 0-based 2
}

TEST(Mmio, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 5.0\n"
      "3 2 7.0\n");
  const auto m = read_matrix_market(in);
  // Diagonal stays single; off-diagonals mirrored: 1 + 2*2 = 5 entries.
  EXPECT_EQ(m.nnz(), 5);
  // (0,1) must now exist with value 5.
  bool found = false;
  for (index_t p = m.row_ptr()[0]; p < m.row_ptr()[1]; ++p)
    if (m.col_idx()[p] == 1 && m.values()[p] == 5.0) found = true;
  EXPECT_TRUE(found);
}

TEST(Mmio, PatternEntriesGetUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 1.0);
}

TEST(Mmio, IntegerFieldAccepted) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "2 1 7\n");
  const auto m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.values()[0], 7.0);
}

TEST(Mmio, RoundTripPreservesMatrix) {
  std::vector<Triplet<double>> t = {
      {0, 0, 1.0}, {0, 3, 2.0}, {2, 1, -3.5}, {4, 4, 0.125}};
  const auto m = Csr<double>::from_triplets(5, 5, t);
  std::ostringstream out;
  write_matrix_market(out, m);
  std::istringstream in(out.str());
  const auto back = read_matrix_market(in);
  EXPECT_EQ(m, back);
}

TEST(Mmio, DuplicatesSumInFileOrder) {
  // Summed in file order: (1e16 + 1.0) rounds to 1e16, minus 1e16 is 0.
  // Any other order of the same three values gives 1.0.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 2 1e16\n"
      "2 2 3.0\n"
      "1 2 1.0\n"
      "1 2 -1e16\n");
  const auto m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.col_idx()[0], 1);
  EXPECT_EQ(m.values()[0], 0.0);
  EXPECT_EQ(m.values()[1], 3.0);
}

TEST(Mmio, LinesLongerThanTheReadBufferParse) {
  // A comment longer than the read buffer forces it to grow, and the
  // entries after it still parse with the right line numbers.
  const std::string long_comment = "%" + std::string(3 << 20, 'c') + "\n";
  std::istringstream in("%%MatrixMarket matrix coordinate real general\n" +
                        long_comment + "2 2 2\n1 1 1.5\n2 bogus 1.0\n");
  try {
    read_matrix_market(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(Mmio, RoundTripAcrossBufferRefills) {
  // Several MiB of entries: lines straddle every refill of the read
  // buffer, and the parse must still reproduce the matrix exactly.
  Rng rng(77);
  std::vector<Triplet<double>> t;
  for (int i = 0; i < 80000; ++i)
    t.push_back({rng.uniform_int(0, 1999), rng.uniform_int(0, 1999),
                 rng.uniform(-1.0, 1.0)});
  const auto m = Csr<double>::from_triplets(2000, 2000, t);
  std::ostringstream out;
  write_matrix_market(out, m);
  ASSERT_GT(out.str().size(), std::size_t{2} << 20);
  std::istringstream in(out.str());
  EXPECT_EQ(read_matrix_market(in), m);
}

TEST(Mmio, LastLineWithoutNewlineParses) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1 2.5");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.values()[0], 2.5);
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream in("not a matrix market file\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsComplexField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 1\n"
      "1 1 1.0 0.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsArrayFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix array real general\n"
      "1 1\n"
      "1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, RejectsOutOfRangeIndices) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Mmio, FileRoundTrip) {
  const auto path = testing::TempDir() + "/spmvml_mmio_test.mtx";
  const auto m = Csr<double>::from_triplets(3, 3, {{0, 0, 1.0}, {2, 2, 2.0}});
  write_matrix_market(path, m);
  const auto back = read_matrix_market(path);
  EXPECT_EQ(m, back);
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market("/nonexistent/path.mtx"), Error);
}

TEST(Mmio, MissingFileErrorIsIoCategory) {
  try {
    read_matrix_market("/nonexistent/path.mtx");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

TEST(Mmio, ToleratesCrlfLineEndings) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% dos-style comment\r\n"
      "2 2 2\r\n"
      "1 1 1.5\r\n"
      "2 2 -2.0\r\n");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 1.5);
  EXPECT_DOUBLE_EQ(m.values()[1], -2.0);
}

TEST(Mmio, ToleratesBlankLinesBeforeDimensions) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "\n"
      "% comment after a blank line\n"
      "   \n"
      "2 2 1\n"
      "1 2 3.0\n");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.values()[0], 3.0);
}

TEST(Mmio, ParseErrorsCarryLineNumberAndCategory) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "2 bogus 1.0\n");
  try {
    read_matrix_market(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(Mmio, BadDimensionsReportLineNumber) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "0 -3 1\n");
  try {
    read_matrix_market(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// --- Fuzz corpus -----------------------------------------------------------
// Malformed inputs collected from the failure modes a hostile .mtx can
// hit: every one must raise the PR 1 error taxonomy (kParse), never
// crash, never loop. Table-driven so new crashers found later get one
// line each.

struct FuzzCase {
  const char* name;
  const char* text;
};

class MmioFuzzCorpus : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MmioFuzzCorpus, RejectsWithParseError) {
  std::istringstream in(GetParam().text);
  try {
    read_matrix_market(in);
    FAIL() << GetParam().name << ": expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MmioFuzzCorpus,
    ::testing::Values(
        FuzzCase{"empty_input", ""},
        FuzzCase{"banner_only", "%%MatrixMarket matrix coordinate real general\n"},
        FuzzCase{"truncated_banner", "%%MatrixMarket matrix coordinate\n2 2 1\n1 1 1.0\n"},
        FuzzCase{"wrong_object",
                 "%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n"},
        FuzzCase{"unknown_symmetry",
                 "%%MatrixMarket matrix coordinate real diagonal\n1 1 1\n1 1 1.0\n"},
        FuzzCase{"banner_case_garbage", "%%matrixmarket spam eggs\n"},
        FuzzCase{"comments_only",
                 "%%MatrixMarket matrix coordinate real general\n% a\n% b\n"},
        FuzzCase{"dims_not_numbers",
                 "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n"},
        FuzzCase{"dims_two_fields",
                 "%%MatrixMarket matrix coordinate real general\n3 3\n"},
        FuzzCase{"negative_nnz",
                 "%%MatrixMarket matrix coordinate real general\n2 2 -4\n"},
        FuzzCase{"huge_nnz_truncated",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1000000\n1 1 1.0\n"},
        FuzzCase{"entry_missing_value",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"},
        FuzzCase{"entry_value_not_number",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 x\n"},
        FuzzCase{"zero_based_index",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
        FuzzCase{"symmetric_entry_above_diagonal",
                 "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n1 3 2.0\n"},
        FuzzCase{"symmetric_nonsquare",
                 "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"},
        FuzzCase{"entry_cut_short_by_nul",
                 "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 \0 1.0\n"},
        FuzzCase{"value_row_in_pattern_file_short",
                 "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1\n2 2\n"}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return info.param.name;
    });

TEST(MmioFuzz, EveryPrefixOfAValidFileParsesOrThrows) {
  // Deterministic truncation fuzz: feeding every prefix of a valid file
  // must either produce a matrix or raise Error — never crash and never
  // read past the buffer. Catches "trusted the declared nnz" bugs.
  const std::string valid =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "4 4 5\n"
      "1 1 1.5\n"
      "2 1 -2.0\n"
      "3 3 0.25\n"
      "4 2 8.0\n"
      "4 4 -0.5\n";
  int parsed = 0, rejected = 0;
  for (std::size_t cut = 0; cut <= valid.size(); ++cut) {
    std::istringstream in(valid.substr(0, cut));
    try {
      read_matrix_market(in);
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed, 0);  // at least the full file parses
}

TEST(MmioFuzz, SingleByteCorruptionNeverCrashes) {
  // Flip each position of a valid file to hostile bytes; the reader must
  // parse (corruption in a comment) or throw Error — nothing else.
  const std::string valid =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n"
      "1 1 1.0\n"
      "2 2 2.0\n"
      "3 3 3.0\n";
  const char hostile[] = {'\0', '%', '-', '9', 'e', ' ', '\n'};
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (const char c : hostile) {
      std::string mutated = valid;
      mutated[pos] = c;
      std::istringstream in(mutated);
      try {
        read_matrix_market(in);
      } catch (const Error&) {
      }
    }
  }
  SUCCEED();  // surviving the corpus without a crash is the assertion
}

TEST(MmioFuzz, SurvivorsConvertToSellSafely) {
  // Every mutation of the single-byte-corruption corpus that still parses
  // is a hostile-but-valid matrix; each must survive SELL conversion at
  // several (C, sigma) tunings — validate() clean, SpMV agreeing with the
  // CSR reference — exactly like the reserve-cap hardening promises.
  const std::string valid =
      "%%MatrixMarket matrix coordinate real general\n"
      "4 5 5\n"
      "1 1 1.0\n"
      "2 4 2.0\n"
      "3 2 3.0\n"
      "4 5 4.0\n"
      "4 1 -1.0\n";
  const char hostile[] = {'\0', '%', '-', '9', 'e', ' ', '\n'};
  int survivors = 0;
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (const char c : hostile) {
      std::string mutated = valid;
      mutated[pos] = c;
      std::istringstream in(mutated);
      Csr<double> m(0, 0, {0}, {}, {});
      try {
        m = read_matrix_market(in);
      } catch (const Error&) {
        continue;
      }
      ++survivors;
      std::vector<double> x(static_cast<std::size_t>(m.cols()), 1.0);
      std::vector<double> expect(static_cast<std::size_t>(m.rows()));
      spmv_reference(m, x, expect);
      for (auto [sc, sigma] : {std::pair<index_t, index_t>{1, 1},
                               {4, 12},
                               {32, 128}}) {
        const auto sell = Sell<double>::from_csr(m, sc, sigma);
        sell.validate();
        ASSERT_EQ(sell.to_csr(), m) << "pos=" << pos << " C=" << sc;
        std::vector<double> y(static_cast<std::size_t>(m.rows()), -1.0);
        sell.spmv(x, y);
        for (index_t r = 0; r < m.rows(); ++r)
          ASSERT_NEAR(y[static_cast<std::size_t>(r)],
                      expect[static_cast<std::size_t>(r)], 1e-12)
              << "pos=" << pos << " C=" << sc;
      }
    }
  }
  EXPECT_GT(survivors, 0);  // the corpus must actually exercise the path
}

TEST(MmioFuzz, DeclaredNnzFarBeyondContentThrowsQuickly) {
  // A header promising 2^31-ish entries over a two-line body must fail
  // on the missing data, not attempt a giant allocation first.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2147483646\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

}  // namespace
}  // namespace spmvml
