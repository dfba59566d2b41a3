#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_stats.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"

namespace p2prank::graph {
namespace {

TEST(GraphIo, RoundTripsTinyGraph) {
  const auto g = test::leaky_pair();
  std::stringstream buffer;
  save_graph(g, buffer);
  const auto loaded = load_graph(buffer);

  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
  const auto a = loaded.find("s.edu/a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(loaded.external_out_degree(*a), 1u);
  EXPECT_EQ(loaded.out_degree(*a), 2u);
}

TEST(GraphIo, RoundTripsSyntheticCrawl) {
  const auto g = generate_synthetic_web(google2002_config(3000, 21));
  std::stringstream buffer;
  save_graph(g, buffer);
  const auto loaded = load_graph(buffer);

  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
  EXPECT_EQ(loaded.num_sites(), g.num_sites());

  const auto s1 = compute_stats(g);
  const auto s2 = compute_stats(loaded);
  EXPECT_EQ(s1.intra_site_links, s2.intra_site_links);
  EXPECT_EQ(s1.dangling_pages, s2.dangling_pages);
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "P s.edu/a s.edu\n"
      "P s.edu/b s.edu\n"
      "L s.edu/a s.edu/b\n");
  const auto g = load_graph(in);
  EXPECT_EQ(g.num_pages(), 2u);
  EXPECT_EQ(g.num_links(), 1u);
}

TEST(GraphIo, LinkToUndeclaredTargetBecomesExternal) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "L s.edu/a other.com/x\n");
  const auto g = load_graph(in);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.num_external_links(), 1u);
}

TEST(GraphIo, XRecordAccumulatesExternalCount) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "X s.edu/a 5\n");
  const auto g = load_graph(in);
  const auto a = g.find("s.edu/a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(g.external_out_degree(*a), 5u);
}

TEST(GraphIo, RejectsUnknownTag) {
  std::stringstream in("Q wat\n");
  EXPECT_THROW(load_graph(in), std::runtime_error);
}

TEST(GraphIo, RejectsMalformedRecords) {
  std::stringstream p_bad("P only-url\n");
  EXPECT_THROW(load_graph(p_bad), std::runtime_error);
  std::stringstream l_bad("L one\n");
  EXPECT_THROW(load_graph(l_bad), std::runtime_error);
  std::stringstream x_bad("X url notanumber\n");
  EXPECT_THROW(load_graph(x_bad), std::runtime_error);
}

TEST(GraphIo, RejectsUndeclaredLinkSource) {
  std::stringstream in("L ghost.edu/a ghost.edu/b\n");
  EXPECT_THROW(load_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorMessagesCarryLineNumbers) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "BAD record\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, RejectsTrailingTokens) {
  std::stringstream p_bad("P s.edu/a s.edu extra\n");
  EXPECT_THROW(load_graph(p_bad), std::runtime_error);
  std::stringstream l_bad(
      "P s.edu/a s.edu\n"
      "L s.edu/a s.edu/a junk\n");
  EXPECT_THROW(load_graph(l_bad), std::runtime_error);
  std::stringstream x_bad(
      "P s.edu/a s.edu\n"
      "X s.edu/a 3 junk\n");
  EXPECT_THROW(load_graph(x_bad), std::runtime_error);
}

TEST(GraphIo, RejectsZeroCountXRecord) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "X s.edu/a 0\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, RejectsSignedXCounts) {
  // A sign is not part of a count: "-1" must not wrap to 4294967295 external
  // links, nor "-4294967295" to 1, and "+7" is not what save_graph writes.
  for (const char* count : {"-1", "-4294967295", "+7", "4294967296"}) {
    std::stringstream in(std::string("P s.edu/a s.edu\nX s.edu/a ") + count + "\n");
    try {
      (void)load_graph(in);
      FAIL() << "accepted X count " << count;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
  std::stringstream ok("P s.edu/a s.edu\nX s.edu/a 4294967295\n");
  EXPECT_EQ(load_graph(ok).external_out_degree(0), 4294967295u);
}

TEST(GraphIo, ConflictingPageRecordsCarryLineNumber) {
  // Same URL declared under two different sites: the builder's conflict
  // throw must surface as a line-numbered parse error, not invalid_argument.
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "P s.edu/a other.edu\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("conflicting"), std::string::npos);
  }
}

TEST(GraphIo, FileRoundTrip) {
  const auto g = test::two_cycle();
  const std::string path = ::testing::TempDir() + "/p2prank_io_test.graph";
  save_graph_file(g, path);
  const auto loaded = load_graph_file(path);
  EXPECT_EQ(loaded.num_pages(), 2u);
  EXPECT_EQ(loaded.num_links(), 2u);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph_file("/nonexistent/path.graph"), std::runtime_error);
}

/// Binary round trips must reproduce the text-built graph exactly —
/// identity, CSR rows, and externals.
void expect_binary_round_trip(const WebGraph& g) {
  std::stringstream buffer;
  save_graph_binary(g, buffer);
  const auto loaded = load_graph_binary(buffer);
  ASSERT_EQ(loaded.num_pages(), g.num_pages());
  ASSERT_EQ(loaded.num_sites(), g.num_sites());
  ASSERT_EQ(loaded.num_links(), g.num_links());
  ASSERT_EQ(loaded.num_external_links(), g.num_external_links());
  for (PageId p = 0; p < g.num_pages(); ++p) {
    ASSERT_EQ(loaded.url(p), g.url(p));
    ASSERT_EQ(loaded.site_name(loaded.site(p)), g.site_name(g.site(p)));
    ASSERT_EQ(loaded.external_out_degree(p), g.external_out_degree(p));
    const auto out_a = loaded.out_links(p);
    const auto out_b = g.out_links(p);
    ASSERT_EQ(std::vector<PageId>(out_a.begin(), out_a.end()),
              std::vector<PageId>(out_b.begin(), out_b.end()));
    const auto in_a = loaded.in_links(p);
    const auto in_b = g.in_links(p);
    ASSERT_EQ(std::vector<PageId>(in_a.begin(), in_a.end()),
              std::vector<PageId>(in_b.begin(), in_b.end()));
  }
}

TEST(GraphBinaryIo, RoundTripsTinyAndEmptyGraphs) {
  expect_binary_round_trip(test::leaky_pair());
  expect_binary_round_trip(test::two_cycle());
  GraphBuilder empty;
  expect_binary_round_trip(std::move(empty).build());
}

TEST(GraphBinaryIo, RoundTripsParallelEdgesAndExternals) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("t.edu/b", "t.edu");
  b.add_link(a, c);
  b.add_link(a, c);
  b.add_link(c, a);
  b.add_external_link(a, 7);
  expect_binary_round_trip(std::move(b).build());
}

TEST(GraphBinaryIo, RoundTripsSyntheticCrawl) {
  expect_binary_round_trip(generate_synthetic_web(google2002_config(2000, 33)));
}

TEST(GraphBinaryIo, FileRoundTrip) {
  const auto g = test::leaky_pair();
  const std::string path = ::testing::TempDir() + "/p2prank_io_test.bin";
  save_graph_binary_file(g, path);
  const auto loaded = load_graph_binary_file(path);
  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
}

TEST(GraphBinaryIo, RejectsBadMagic) {
  std::stringstream in("notmagic and then some bytes");
  EXPECT_THROW((void)load_graph_binary(in), std::runtime_error);
}

TEST(GraphBinaryIo, RejectsTruncatedAndTrailingStreams) {
  std::stringstream buffer;
  save_graph_binary(test::two_cycle(), buffer);
  const std::string bytes = buffer.str();

  std::stringstream truncated(bytes.substr(0, bytes.size() - 3));
  EXPECT_THROW((void)load_graph_binary(truncated), std::runtime_error);

  std::stringstream trailing(bytes + "x");
  EXPECT_THROW((void)load_graph_binary(trailing), std::runtime_error);
}

/// A bare p2pgrb1 header (no body) with the given counts.
std::string binary_header(std::uint64_t pages, std::uint64_t sites, std::uint64_t links) {
  std::string bytes = "p2pgrb1\n";
  for (const std::uint64_t v : {pages, sites, links, std::uint64_t{0}}) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  return bytes;
}

TEST(GraphBinaryIo, RejectsHeaderCountsTheStreamCannotBack) {
  // 40 bytes claiming 2^31 pages: must be refused before anything is sized
  // from the count (a zero-filled 2^31-entry table would take seconds and
  // gigabytes).
  const auto start = std::chrono::steady_clock::now();
  std::stringstream huge_pages(binary_header(std::uint64_t{1} << 31, 0, 0));
  ASSERT_EQ(huge_pages.str().size(), 40u);
  EXPECT_THROW((void)load_graph_binary(huge_pages), std::runtime_error);
  std::stringstream huge_sites(binary_header(0, std::uint64_t{1} << 40, 0));
  EXPECT_THROW((void)load_graph_binary(huge_sites), std::runtime_error);
  std::stringstream huge_links(binary_header(0, 0, std::uint64_t{1} << 40));
  EXPECT_THROW((void)load_graph_binary(huge_links), std::runtime_error);
  std::stringstream overflowing(binary_header(1, std::uint64_t{1} << 62, 0));
  EXPECT_THROW((void)load_graph_binary(overflowing), std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(250));

  // A valid stream with one page more in its header than it encodes fails
  // the same way, or as truncated.
  std::stringstream buffer;
  save_graph_binary(test::two_cycle(), buffer);
  std::string bytes = buffer.str();
  bytes[8] = static_cast<char>(bytes[8] + 1);
  std::stringstream inflated(bytes);
  EXPECT_THROW((void)load_graph_binary(inflated), std::runtime_error);
}

}  // namespace
}  // namespace p2prank::graph
