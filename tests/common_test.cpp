// Unit tests for the common substrate: contracts, RNG, tables, CSV,
// strings, env knobs, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>

#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/instrument.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace lcn {
namespace {

TEST(Contracts, RequireThrowsContractError) {
  EXPECT_THROW(LCN_REQUIRE(false, "boom"), ContractError);
  EXPECT_NO_THROW(LCN_REQUIRE(true, "fine"));
  EXPECT_THROW(LCN_CHECK(false, "bug"), InternalError);
}

TEST(Rng, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(43);
  EXPECT_NE(Rng(42).next_u64(), c.next_u64());
}

TEST(Rng, UniformDoublesInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), ContractError);
}

TEST(Rng, ForkedStreamsDiverge) {
  Rng parent(5);
  Rng child = parent.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.next_u64() != child.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TextTable, AlignsColumnsAndRules) {
  TextTable table({"a", "bee"});
  table.add_row({"1", "2"});
  table.add_rule();
  table.add_row({"333", "4"});
  const std::string out = table.str();
  EXPECT_NE(out.find("| a   | bee |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4   |"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), ContractError);
}

TEST(TextTable, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell_int(-42), "-42");
  EXPECT_EQ(cell_sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(cell_na(), "N/A");
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"a,b", "quote\"inside"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("port 1 2", "port"));
  EXPECT_FALSE(starts_with("po", "port"));
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.3f", 1.5), "1.500");
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("LCN_TEST_INT", "123", 1);
  ::setenv("LCN_TEST_BAD", "12x", 1);
  ::setenv("LCN_TEST_FLAG", "1", 1);
  EXPECT_EQ(env_int("LCN_TEST_INT", 9), 123);
  EXPECT_EQ(env_int("LCN_TEST_BAD", 9), 9);
  EXPECT_EQ(env_int("LCN_TEST_MISSING_XYZ", 9), 9);
  EXPECT_TRUE(env_flag("LCN_TEST_FLAG"));
  EXPECT_FALSE(env_flag("LCN_TEST_MISSING_XYZ"));
  ::setenv("LCN_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("LCN_TEST_DBL", 1.0), 2.5);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw RuntimeError("task failed");
                                   }
                                 }),
               RuntimeError);
  // Pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroAndSingleCounts) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Instrument, JsonIncludesTraceAndProbeCounters) {
  const std::string json = instrument::snapshot().json();
  EXPECT_NE(json.find("\"pressure_probes\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_emitted\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_dropped\""), std::string::npos);
}

}  // namespace
}  // namespace lcn
