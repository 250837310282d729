// Matrix Market I/O tests: round trips, symmetric expansion, pattern
// files, malformed input rejection, and the pooled block parse against
// the serial one (bitwise, errors included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sparse/mmio.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"
#include "synth/generators.hpp"

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

/// The error a parse of `text` raises; fails the test when none is raised.
Error parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    read_matrix_market(in);
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "expected Error";
  return Error("no error");
}

/// A `rows x rows` general real file of `n` entry lines "r 1 0.5" (r
/// cycling through the rows). Each (line, text) pair in `replace` swaps
/// the text of that 1-based line, the banner being line 1.
std::string numbered_file(index_t rows, index_t n,
                          const std::vector<std::pair<index_t, std::string>>&
                              replace = {}) {
  std::string text = "%%MatrixMarket matrix coordinate real general\n" +
                     std::to_string(rows) + " " + std::to_string(rows) + " " +
                     std::to_string(n) + "\n";
  for (index_t i = 0; i < n; ++i) {
    const index_t lineno = i + 3;
    std::string line = std::to_string(i % rows + 1) + " 1 0.5";
    for (const auto& [at, bad] : replace)
      if (at == lineno) line = bad;
    text += line + "\n";
  }
  return text;
}

TEST(Mmio, ContentAfterTheDeclaredEntriesIsIgnored) {
  // Reading stops after the declared count, so nothing past it is looked
  // at: not extra entries, not comments, not malformed lines.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.5\n"
      "\n"
      "2 2 2.5\n"
      "2 1 9.0\n"
      "% trailing comment\n"
      "this is not an entry\n"
      "3 3 out-of-range\n");
  const auto m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.values()[0], 1.5);
  EXPECT_EQ(m.values()[1], 2.5);
}

TEST(Mmio, TrailingMalformedLineAfterManyEntriesIsIgnored) {
  // The same across many read buffers: the bad line right after the last
  // declared entry is never parsed.
  const index_t n = 60000;
  std::istringstream in(numbered_file(1000, n) +
                        "garbage here\nmore garbage\n");
  const auto m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 1000);  // duplicates summed
  EXPECT_EQ(m.values()[0], 0.5 * 60);
}

TEST(Mmio, CommentAmongEntriesIsAParseErrorWithItsLine) {
  const Error e = parse_error(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "% a comment where an entry belongs\n"
      "2 2 1.0\n");
  EXPECT_EQ(e.category(), ErrorCategory::kParse);
  EXPECT_NE(std::string(e.what()).find("malformed entry line"),
            std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("(line 4)"), std::string::npos)
      << e.what();
}

TEST(Mmio, LateErrorReportsItsLineNumber) {
  // An error several MiB into the body, past many read buffers, still
  // names its own line.
  const index_t n = 200000;
  const Error e = parse_error(numbered_file(1000, n, {{187654, "7 x 1.0"}}));
  EXPECT_EQ(e.category(), ErrorCategory::kParse);
  EXPECT_NE(std::string(e.what()).find("(line 187654)"), std::string::npos)
      << e.what();
}

TEST(Mmio, LateErrorAfterBlankLinesCountsThem) {
  // Blank lines do not count as entries but do count as lines.
  std::string text = numbered_file(10, 3);
  text.insert(text.find("1 1 0.5"), "\n  \n\t\r\n");
  text += "% after\n";
  // Declare one more entry than the body holds before the comment.
  text.replace(text.find("10 10 3"), 7, "10 10 4");
  const Error e = parse_error(text);
  EXPECT_EQ(e.category(), ErrorCategory::kParse);
  EXPECT_NE(std::string(e.what()).find("(line 9)"), std::string::npos)
      << e.what();
}

TEST(Mmio, FirstOfTwoBadLinesIsReported) {
  // Far apart (different read buffers) and adjacent: the earlier line in
  // file order wins either way.
  const index_t n = 150000;
  for (const auto& [first, second] :
       {std::pair<index_t, index_t>{1234, 140000}, {50000, 50001}}) {
    const Error e = parse_error(numbered_file(
        1000, n, {{first, "1 1 bad"}, {second, "2000 1 1.0"}}));
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
    EXPECT_NE(std::string(e.what()).find("malformed entry line: 1 1 bad"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(line " + std::to_string(first) +
                                         ")"),
              std::string::npos)
        << e.what();
  }
}

TEST(Mmio, FewerEntriesThanDeclaredNamesTheLastLine) {
  // Five entries and a blank line under a header declaring six.
  std::string text = numbered_file(10, 5) + "\n";
  text.replace(text.find("10 10 5"), 7, "10 10 6");
  const Error e = parse_error(text);
  EXPECT_EQ(e.category(), ErrorCategory::kParse);
  EXPECT_NE(std::string(e.what()).find("fewer entries than declared"),
            std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("(line 8)"), std::string::npos)
      << e.what();
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

// --- Pooled parse == serial parse ------------------------------------------
// The reader parses line-aligned blocks of a bounded window, on a
// ThreadPool when given one. Files here span many windows and blocks;
// the pooled parse must give the serial parse's CSR arrays bit for bit,
// and the same error (category and message, line number included).

/// The outcome of one parse: the matrix, or the error it raised.
struct Outcome {
  bool ok = false;
  Csr<double> matrix;
  ErrorCategory category = ErrorCategory::kGeneric;
  std::string message;
};

Outcome parse_outcome(const std::string& text, ThreadPool* pool) {
  std::istringstream in(text);
  Outcome out;
  try {
    out.matrix = read_matrix_market(in, pool);
    out.ok = true;
  } catch (const Error& e) {
    out.category = e.category();
    out.message = e.what();
  }
  return out;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Same matrix bit for bit (memcmp over all three arrays), or the same
/// error.
void expect_same_outcome(const Outcome& serial, const Outcome& pooled,
                         const std::string& what) {
  ASSERT_EQ(serial.ok, pooled.ok) << what << ": " << serial.message
                                  << pooled.message;
  if (!serial.ok) {
    EXPECT_EQ(serial.category, pooled.category) << what;
    EXPECT_EQ(serial.message, pooled.message) << what;
    return;
  }
  const Csr<double>& a = serial.matrix;
  const Csr<double>& b = pooled.matrix;
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_TRUE(same_bytes(a.row_ptr(), b.row_ptr())) << what;
  EXPECT_TRUE(same_bytes(a.col_idx(), b.col_idx())) << what;
  EXPECT_TRUE(same_bytes(a.values(), b.values())) << what;
}

/// Parse `text` serially and on pools of 1, 2 and 4 workers.
void expect_pooled_matches_serial(const std::string& text,
                                  const std::string& what) {
  const Outcome serial = parse_outcome(text, nullptr);
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    expect_same_outcome(serial, parse_outcome(text, &pool),
                        what + " pool=" + std::to_string(threads));
  }
}

/// Entry lines of `m` as "r c v" (1-based), row-major.
std::vector<std::string> entry_lines(const Csr<double>& m, bool pattern,
                                     bool lower_only) {
  std::vector<std::string> lines;
  char buf[96];
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
      const index_t c = m.col_idx()[p];
      if (lower_only && c > r) continue;
      if (pattern)
        std::snprintf(buf, sizeof(buf), "%lld %lld",
                      static_cast<long long>(r + 1),
                      static_cast<long long>(c + 1));
      else
        std::snprintf(buf, sizeof(buf), "%lld %lld %.17g",
                      static_cast<long long>(r + 1),
                      static_cast<long long>(c + 1), m.values()[p]);
      lines.emplace_back(buf);
    }
  return lines;
}

std::string mm_text(const Csr<double>& m, const std::string& qualifiers,
                    const std::vector<std::string>& lines,
                    const std::string& eol = "\n") {
  std::string text = "%%MatrixMarket matrix coordinate " + qualifiers + eol +
                     "% generated" + eol + std::to_string(m.rows()) + " " +
                     std::to_string(m.cols()) + " " +
                     std::to_string(lines.size()) + eol;
  for (const auto& line : lines) text += line + eol;
  return text;
}

/// One file per reader feature, each several windows long.
std::vector<std::pair<std::string, std::string>> variant_files(
    const Csr<double>& m, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> files;
  const auto lines = entry_lines(m, false, false);
  files.emplace_back("general", mm_text(m, "real general", lines));
  files.emplace_back("crlf", mm_text(m, "real general", lines, "\r\n"));
  files.emplace_back("pattern", mm_text(m, "pattern general",
                                        entry_lines(m, true, false)));
  files.emplace_back("symmetric", mm_text(m, "real symmetric",
                                          entry_lines(m, false, true)));
  files.emplace_back("symmetric_pattern",
                     mm_text(m, "pattern symmetric",
                             entry_lines(m, true, true)));
  std::vector<std::string> integers;
  for (std::size_t i = 0; i < lines.size(); ++i)
    integers.push_back(lines[i].substr(0, lines[i].rfind(' ')) + " " +
                       std::to_string(static_cast<int>(i % 201) - 100));
  files.emplace_back("integer", mm_text(m, "integer general", integers));

  // Out of row order: the CSR build sorts.
  Rng rng(seed);
  std::vector<std::string> shuffled = lines;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<index_t>(i) - 1))]);
  files.emplace_back("shuffled", mm_text(m, "real general", shuffled));

  // Every tenth entry again, far from the first copy: duplicates summed
  // in file order across blocks.
  std::vector<std::string> dups = lines;
  for (std::size_t i = 0; i < lines.size(); i += 10)
    dups.push_back(lines[i].substr(0, lines[i].rfind(' ')) + " 1e-3");
  files.emplace_back("duplicates", mm_text(m, "real general", dups));

  // Blank lines (spaces, tabs, a lone '\r') among the entries.
  std::string blanks = mm_text(m, "real general", {});
  blanks.replace(blanks.rfind(" 0\n"), 3,
                 " " + std::to_string(lines.size()) + "\n");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 97 == 0) blanks += i % 2 == 0 ? "\n  \t\n" : "\r\n";
    blanks += lines[i] + "\n";
  }
  files.emplace_back("blank_lines", blanks);
  return files;
}

TEST(MmioPooled, MatchesSerialBitwiseAcrossFamiliesAndFeatures) {
  for (int f = 0; f < kNumFamilies; ++f) {
    GenSpec spec;
    spec.family = static_cast<MatrixFamily>(f);
    spec.rows = spec.cols = 6000;
    spec.row_mu = 9.0;
    spec.seed = 600 + static_cast<std::uint64_t>(f);
    const Csr<double> m = generate(spec);
    for (const auto& [name, text] : variant_files(m, spec.seed)) {
      // Several 64 KiB blocks, so they really run on several threads.
      ASSERT_GT(text.size(), std::size_t{1} << 17) << name;
      expect_pooled_matches_serial(
          text, std::string(family_name(spec.family)) + "/" + name);
    }
  }
}

TEST(MmioPooled, GeneralFileMatchesWriteMatrixMarketRoundTrip) {
  GenSpec spec;
  spec.family = MatrixFamily::kPowerLaw;
  spec.rows = spec.cols = 6000;
  spec.seed = 611;
  const Csr<double> m = generate(spec);
  std::ostringstream out;
  write_matrix_market(out, m);
  ThreadPool pool(2);
  std::istringstream in(out.str());
  EXPECT_EQ(read_matrix_market(in, &pool), m);
}

TEST(MmioPooled, EntryLinesLongerThanTheWindowParse) {
  // Padding makes two entry lines longer than a block and than the read
  // window; the window grows for them, and an error after them still
  // names its own line.
  std::string text = numbered_file(100, 40000);
  const std::string pad(300 << 10, ' ');
  const std::size_t at = text.find("\n5 1 0.5\n") + 1;
  text.replace(at, 7, "5" + pad + "1" + pad + "0.5");
  const std::size_t late = text.find("\n7 1 0.5\n", text.size() / 2) + 1;
  text.replace(late, 7, "7\t1 " + pad + "0.25");
  const Outcome serial = parse_outcome(text, nullptr);
  ASSERT_TRUE(serial.ok) << serial.message;
  EXPECT_EQ(serial.matrix.nnz(), 100);
  expect_pooled_matches_serial(text, "long lines");

  const std::size_t bad = text.find("\n9 1 0.5\n", late) + 1;
  const auto lineno = std::count(text.begin(), text.begin() + bad, '\n') + 1;
  text.replace(bad, 7, "9 1 x");
  const Outcome error = parse_outcome(text, nullptr);
  ASSERT_FALSE(error.ok);
  EXPECT_NE(error.message.find("(line " + std::to_string(lineno) + ")"),
            std::string::npos)
      << error.message;
  expect_pooled_matches_serial(text, "long lines, then an error");
}

TEST(MmioPooled, FuzzPrefixesAndCorruptionsGiveTheSerialError) {
  const std::string valid =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "4 4 5\n"
      "1 1 1.5\n"
      "2 1 -2.0\n"
      "3 3 0.25\n"
      "4 2 8.0\n"
      "4 4 -0.5\n";
  ThreadPool pool(2);
  for (std::size_t cut = 0; cut <= valid.size(); ++cut)
    expect_same_outcome(parse_outcome(valid.substr(0, cut), nullptr),
                        parse_outcome(valid.substr(0, cut), &pool),
                        "prefix " + std::to_string(cut));
  const char hostile[] = {'\0', '%', '-', '9', 'e', ' ', '\n'};
  for (std::size_t pos = 0; pos < valid.size(); ++pos)
    for (const char c : hostile) {
      std::string mutated = valid;
      mutated[pos] = c;
      expect_same_outcome(parse_outcome(mutated, nullptr),
                          parse_outcome(mutated, &pool),
                          "corrupt " + std::to_string(pos));
    }
}

TEST(MmioPooled, CorruptionAnywhereInAManyBlockFileGivesTheSerialError) {
  GenSpec spec;
  spec.family = MatrixFamily::kUniformRandom;
  spec.rows = spec.cols = 6000;
  spec.seed = 612;
  const Csr<double> m = generate(spec);
  const std::string valid =
      mm_text(m, "real symmetric", entry_lines(m, false, true));
  ASSERT_GT(valid.size(), std::size_t{1} << 19);
  const char hostile[] = {'\0', '%', '-', '9', 'e', ' ', '\n', 'x'};
  ThreadPool pool(4);
  for (int k = 0; k < 48; ++k) {
    const std::size_t pos = valid.size() * static_cast<std::size_t>(k) / 48 +
                            static_cast<std::size_t>(k) * 7;
    std::string mutated = valid;
    mutated[pos] = hostile[static_cast<std::size_t>(k) % sizeof(hostile)];
    expect_same_outcome(parse_outcome(mutated, nullptr),
                        parse_outcome(mutated, &pool),
                        "corrupt at " + std::to_string(pos));
  }
  // Two bad lines in different blocks: the earlier one is reported.
  std::string twice = valid;
  twice.insert(twice.find('\n', twice.size() * 3 / 4) + 1, "late bad line\n");
  twice.insert(twice.find('\n', twice.size() / 3) + 1, "early bad line\n");
  const Outcome pooled = parse_outcome(twice, &pool);
  ASSERT_FALSE(pooled.ok);
  EXPECT_NE(pooled.message.find("early"), std::string::npos)
      << pooled.message;
  expect_same_outcome(parse_outcome(twice, nullptr), pooled, "two bad lines");
}

}  // namespace
}  // namespace spmvml
