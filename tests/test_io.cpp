#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "util/io_error.hpp"

namespace pcq::graph {
namespace {

class IoTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pcq_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::string write(const std::string& name, const std::string& bytes) {
    std::ofstream(path(name), std::ios::binary) << bytes;
    return path(name);
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, SnapTextRoundTrip) {
  const EdgeList original = erdos_renyi(200, 1000, 1, 2);
  save_snap_text(original, path("g.txt"));
  const EdgeList loaded = load_snap_text(path("g.txt"));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded.edges()[i], original.edges()[i]);
}

TEST_F(IoTest, SnapTextSkipsCommentsAndBlankLines) {
  {
    std::ofstream out(path("c.txt"));
    out << "# Undirected graph: soc-pokec\n"
        << "# Nodes: 3 Edges: 2\n"
        << "\n"
        << "0\t1\n"
        << "   \n"
        << "1 2\n";
  }
  const EdgeList g = load_snap_text(path("c.txt"));
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(g.edges()[1], (Edge{1, 2}));
}

TEST_F(IoTest, SnapTextHandlesSpacesAndTabs) {
  {
    std::ofstream out(path("w.txt"));
    out << "10 20\n30\t40\n  50   60  \n";
  }
  const EdgeList g = load_snap_text(path("w.txt"));
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edges()[2], (Edge{50, 60}));
}

TEST_F(IoTest, EmptyTextFileLoadsEmptyList) {
  { std::ofstream out(path("e.txt")); }
  EXPECT_TRUE(load_snap_text(path("e.txt")).empty());
}

TEST_F(IoTest, TemporalTextRoundTrip) {
  const TemporalEdgeList original = evolving_graph(50, 500, 8, 3, 2);
  save_temporal_text(original, path("t.txt"));
  const TemporalEdgeList loaded = load_temporal_text(path("t.txt"));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded.edges()[i], original.edges()[i]);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const EdgeList original = rmat(256, 5000, 0.57, 0.19, 0.19, 5, 2);
  save_binary(original, path("g.bin"));
  const EdgeList loaded = load_binary(path("g.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded.edges()[i], original.edges()[i]);
}

TEST_F(IoTest, BinaryEmptyList) {
  save_binary(EdgeList{}, path("empty.bin"));
  EXPECT_TRUE(load_binary(path("empty.bin")).empty());
}

TEST_F(IoTest, TemporalBinaryRoundTrip) {
  const TemporalEdgeList original = evolving_graph(80, 2000, 12, 7, 2);
  save_temporal_binary(original, path("t.bin"));
  const TemporalEdgeList loaded = load_temporal_binary(path("t.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded.edges()[i], original.edges()[i]);
}

TEST_F(IoTest, TemporalBinaryEmpty) {
  save_temporal_binary(TemporalEdgeList{}, path("te.bin"));
  EXPECT_TRUE(load_temporal_binary(path("te.bin")).empty());
}

TEST_F(IoTest, TemporalBinaryRejectsEdgeMagic) {
  save_binary(EdgeList({{0, 1}}), path("plain.bin"));
  EXPECT_THROW(load_temporal_binary(path("plain.bin")), IoError);
}

TEST_F(IoTest, BinaryIsSmallerThanTextForLargeIds) {
  EdgeList g;
  for (VertexId i = 0; i < 1000; ++i) g.push_back({1'000'000 + i, 2'000'000 + i});
  save_snap_text(g, path("big.txt"));
  save_binary(g, path("big.bin"));
  EXPECT_LT(std::filesystem::file_size(path("big.bin")),
            std::filesystem::file_size(path("big.txt")));
}

// Corrupt or unreadable inputs are reportable conditions, not programming
// errors: the loaders throw pcq::IoError (the CLI maps it to exit 3) and
// never abort or return a partial list.
TEST_F(IoTest, BinaryBadMagicThrows) {
  {
    std::ofstream out(path("bad.bin"), std::ios::binary);
    out << "NOTPCQ!!" << std::string(16, '\0');
  }
  EXPECT_THROW(load_binary(path("bad.bin")), IoError);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_snap_text(path("nope.txt")), IoError);
  EXPECT_THROW(load_binary(path("nope.bin")), IoError);
  EXPECT_THROW(load_temporal_text(path("nope.txt")), IoError);
  EXPECT_THROW(load_temporal_binary(path("nope.bin")), IoError);
}

TEST_F(IoTest, BinaryTruncatedPayloadThrows) {
  // Header promises 3 edges; payload holds one. The loader must detect the
  // short read rather than zero-fill the remainder.
  EdgeList g({{0, 1}, {1, 2}, {2, 0}});
  save_binary(g, path("full.bin"));
  const auto full = std::filesystem::file_size(path("full.bin"));
  std::filesystem::resize_file(path("full.bin"), full - 2 * sizeof(Edge));
  EXPECT_THROW(load_binary(path("full.bin")), IoError);
}

TEST_F(IoTest, BinaryHugeDeclaredCountThrows) {
  // A corrupt header declaring ~2^61 edges must fail on the short read
  // without first trying to allocate the declared payload.
  {
    std::ofstream out(path("huge.bin"), std::ios::binary);
    out.write("PCQEDGE1", 8);
    const std::uint64_t count = std::uint64_t{1} << 61;
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    out << "short";
  }
  EXPECT_THROW(load_binary(path("huge.bin")), IoError);
}

// ---- Text grammar edge cases (see io.hpp) ----------------------------------

TEST_F(IoTest, SnapTextLongCommentYieldsNoPhantomEdge) {
  // A fixed 256-byte line buffer used to split this comment and parse its
  // tail, "7 8", as an edge of its own.
  std::string comment = "# " + std::string(294, 'c') + " 7 8";
  ASSERT_EQ(comment.size(), 300u);
  // A 300-byte record padded with trailing blanks is still one record.
  std::string padded = "1 2" + std::string(297, ' ');
  const std::string f = write("long.txt", comment + "\n" + padded + "\n3 4\n");
  for (int p : {1, 2, 4}) {
    const EdgeList g = load_snap_text(f, p);
    ASSERT_EQ(g.size(), 2u) << "p=" << p;
    EXPECT_EQ(g.edges()[0], (Edge{1, 2}));
    EXPECT_EQ(g.edges()[1], (Edge{3, 4}));
  }
}

TEST_F(IoTest, SnapTextRejectsOutOfRangeIds) {
  // 2^32 - 2 is the largest id: num_nodes() (max + 1) must fit in 32 bits.
  const EdgeList ok =
      load_snap_text(write("max.txt", "4294967294 0\n1 4294967294\n"));
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok.edges()[0], (Edge{4294967294u, 0}));
  EXPECT_EQ(ok.num_nodes(), 4294967295u);

  // Used to wrap to (0, 1) and to make num_nodes() overflow to 0.
  for (const char* line : {"4294967296 1", "4294967295 1", "1 4294967295",
                           "1 99999999999999999999999"}) {
    const std::string f = write("big.txt", std::string("0 1\n") + line + "\n");
    for (int p : {1, 3}) {
      try {
        load_snap_text(f, p);
        ADD_FAILURE() << "no IoError for '" << line << "' at p=" << p;
      } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("at byte 4"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST_F(IoTest, TemporalTextRejectsOutOfRangeFrame) {
  const std::string f = write("t.txt", "0 1 2\n0 1 4294967295\n");
  EXPECT_THROW(load_temporal_text(f), IoError);
  const TemporalEdgeList ok =
      load_temporal_text(write("t2.txt", "0 1 4294967294\n"));
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.num_frames(), 4294967295u);
}

TEST_F(IoTest, SnapTextSkipsSignedTokens) {
  // Used to load "-1" as 4294967295; signed tokens are not unsigned
  // decimals, so the line is skipped like any other non-record line.
  const EdgeList g =
      load_snap_text(write("s.txt", "-1 2\n+3 4\n5 -6\n7 8\n"));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.edges()[0], (Edge{7, 8}));
}

TEST_F(IoTest, NotARegularFileThrows) {
  EXPECT_THROW(load_snap_text(dir_.string()), IoError);
  EXPECT_THROW(load_temporal_text(dir_.string()), IoError);
}

// ---- Differential test of the chunked parser --------------------------------

using Record = std::array<std::uint32_t, 3>;

/// Outcome of the reference parse: the records in file order, or the byte
/// offset of the first record line with an out-of-range value.
struct RefParse {
  std::vector<Record> records;
  bool failed = false;
  std::size_t fail_at = 0;
};

/// Sequential reference for the io.hpp grammar, written independently of
/// the loader: split on '\n', tokenize, and range-check each number by its
/// digit string rather than by arithmetic.
RefParse reference_parse(const std::string& text, int k) {
  const std::string blanks = " \t\r\v\f";
  const std::string digits = "0123456789";
  RefParse out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t eol = text.find('\n', start);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(start, eol - start);
    Record rec{};
    bool record = true, too_big = false;
    std::size_t i = 0;
    for (int f = 0; f < k && record; ++f) {
      const std::size_t after_blanks = line.find_first_not_of(blanks, i);
      const std::size_t tok = after_blanks == std::string::npos ? line.size()
                                                                : after_blanks;
      const std::size_t tok_end =
          std::min(line.find_first_not_of(digits, tok), line.size());
      if ((f > 0 && tok == i) || tok_end == tok) {
        record = false;
        break;
      }
      std::string num = line.substr(tok, tok_end - tok);
      num.erase(0, std::min(num.find_first_not_of('0'), num.size() - 1));
      if (num.size() > 10 || (num.size() == 10 && num > "4294967294"))
        too_big = true;
      else
        rec[f] = static_cast<std::uint32_t>(std::stoull(num));
      i = tok_end;
    }
    if (record && too_big) {
      out.failed = true;
      out.fail_at = start;
      return out;
    }
    if (record) out.records.push_back(rec);
    start = eol + 1;
  }
  return out;
}

/// Loads `file` at thread count p with the K-field loader and checks it
/// against the reference, element for element and in order.
void expect_matches_reference(const std::string& file, const std::string& text,
                              int k, int p) {
  const RefParse ref = reference_parse(text, k);
  std::vector<Record> got;
  try {
    if (k == 2) {
      const EdgeList list = load_snap_text(file, p);
      for (const Edge& e : list.edges()) got.push_back({e.u, e.v, 0});
    } else {
      const TemporalEdgeList list = load_temporal_text(file, p);
      for (const TemporalEdge& e : list.edges()) got.push_back({e.u, e.v, e.t});
    }
  } catch (const IoError& e) {
    ASSERT_TRUE(ref.failed) << "k=" << k << " p=" << p << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("at byte " +
                                         std::to_string(ref.fail_at)),
              std::string::npos)
        << "k=" << k << " p=" << p << ": " << e.what();
    return;
  }
  ASSERT_FALSE(ref.failed) << "k=" << k << " p=" << p
                           << ": loader accepted an out-of-range line at byte "
                           << ref.fail_at;
  ASSERT_EQ(got.size(), ref.records.size()) << "k=" << k << " p=" << p;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], ref.records[i]) << "k=" << k << " p=" << p << " i=" << i;
}

/// A seeded random text mixing every line shape the grammar distinguishes.
std::string random_text(std::uint64_t seed, bool allow_out_of_range) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto number = [&]() -> std::string {
    switch (pick(8)) {
      case 0: return "4294967294";
      case 1: return "000" + std::to_string(pick(100));
      case 2: return std::to_string(rng() % 4294967295u);
      default: return std::to_string(pick(1000));
    }
  };
  auto blanks = [&](std::size_t at_least) {
    static const char kBlank[] = {' ', '\t', '\r', '\v', '\f'};
    std::string b(at_least + pick(3), ' ');
    for (char& c : b) c = pick(4) == 0 ? kBlank[pick(5)] : ' ';
    return b;
  };
  std::string text;
  const std::size_t lines = pick(400);
  const std::string eol = pick(2) ? "\n" : "\r\n";
  for (std::size_t l = 0; l < lines; ++l) {
    std::string line;
    switch (pick(12)) {
      case 0: line = "# comment " + number() + " " + number(); break;
      case 1: line = ""; break;
      case 2: line = blanks(1); break;
      case 3: line = number(); break;  // single token
      case 4: {
        static const char* kJunk[] = {"abc def", "1x 2", "-1 2", "+3 4",
                                      "5,6", "7 -8 9", "x", "\x01 2 3"};
        line = kJunk[pick(8)];
        break;
      }
      case 5:
        if (allow_out_of_range) {
          line = number() + " " + std::to_string(4294967295ull + pick(3)) +
                 " " + number();
          break;
        }
        [[fallthrough]];
      default: {
        line = (pick(3) == 0 ? blanks(0) : "") + number() + blanks(1) +
               number();
        if (pick(2)) line += blanks(1) + number();   // third field
        if (pick(4) == 0) line += blanks(1) + number() + " extra";
        if (pick(4) == 0) line += blanks(0) + "# trailing 1 2 3";
        if (pick(4) == 0) line += blanks(1);
      }
    }
    text += line;
    if (l + 1 < lines || pick(3) != 0) text += eol;  // maybe no final newline
  }
  return text;
}

constexpr int kThreadCounts[] = {1, 2, 3, 4, 7, 16, 64};

TEST_F(IoTest, ChunkedParserMatchesSequentialReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string text = random_text(seed, seed % 4 == 0);
    const std::string file = write("r.txt", text);
    for (int k : {2, 3})
      for (int p : kThreadCounts) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expect_matches_reference(file, text, k, p);
      }
  }
}

TEST_F(IoTest, ChunkedParserEdgeFiles) {
  const std::string huge(std::size_t{9} << 20, ' ');  // longer than a slab
  const std::vector<std::string> texts = {
      "",
      "1 2",          // shorter than most thread counts, no final newline
      "\n",
      "1 2\r\n",
      "# only a comment",
      "1 2\n# " + huge + "7 8\n3 4 5\n5" + huge + "6\n7 8" + huge + "9\n",
  };
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::string file = write("edge.txt", texts[i]);
    for (int k : {2, 3})
      for (int p : kThreadCounts) {
        SCOPED_TRACE("text " + std::to_string(i));
        expect_matches_reference(file, texts[i], k, p);
      }
  }
}

}  // namespace
}  // namespace pcq::graph
