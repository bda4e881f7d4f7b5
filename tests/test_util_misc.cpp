// Coverage for the small util pieces: table rendering, CLI parsing, and
// the open-addressing FlatHashMap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/table.h"

namespace topo::util {
namespace {

TEST(Table, AlignsColumnsAndPadsShortRows) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b"});  // short row padded
  const std::string out = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  // Every line has the same width (trailing spaces trimmed per cell rules
  // aside, the header separator spans the full width).
  std::istringstream ss(out);
  std::string header, sep;
  std::getline(ss, header);
  std::getline(ss, sep);
  EXPECT_GE(sep.size(), header.size() - 2);
}

TEST(Table, FormattersProduceStableStrings) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(static_cast<long long>(-7)), "-7");
  EXPECT_EQ(fmt(static_cast<size_t>(42)), "42");
  EXPECT_EQ(fmt_pct(0.8842), "88.4%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(Cli, ParsesFlagsAndTypes) {
  const char* argv[] = {"prog", "--nodes=50", "--rate=2.5", "--verbose", "--name=ropsten"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("nodes"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_uint("nodes", 1), 50u);
  EXPECT_EQ(cli.get_int("nodes", 1), 50);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(cli.get_string("name", ""), "ropsten");
  EXPECT_TRUE(cli.get_bool("verbose", false)) << "bare flag means true";
  EXPECT_EQ(cli.get_uint("absent", 7), 7u);
  EXPECT_EQ(cli.get_string("absent", "dflt"), "dflt");
  EXPECT_FALSE(cli.get_bool("absent", false));
}

TEST(Cli, AcceptsBoundaryAndCaseInsensitiveValues) {
  const char* argv[] = {"prog", "--big=18446744073709551615", "--neg=-3", "--yes=TRUE",
                        "--no=Off", "--tiny=1e-310"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_uint("big", 0), UINT64_MAX);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  EXPECT_TRUE(cli.get_bool("yes", false)) << "get_bool is case-insensitive";
  EXPECT_FALSE(cli.get_bool("no", true));
  // Subnormal underflow is a representable (tiny) value, not an error.
  EXPECT_GT(cli.get_double("tiny", 1.0), 0.0);
}

using CliDeathTest = ::testing::Test;

// Regression: these all silently parsed to 0 (strtoull/strtod with no
// endptr check) before the malformed-value rejection landed; a typo like
// --nodes=4O would run a 0-node campaign instead of failing fast.
TEST(CliDeathTest, RejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--nodes=4O"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_uint("nodes", 1), ::testing::ExitedWithCode(2),
              "invalid value for --nodes");
}

TEST(CliDeathTest, RejectsNegativeUnsigned) {
  // strtoull wraps "-1" to UINT64_MAX silently; the CLI must not.
  const char* argv[] = {"prog", "--shards=-1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_uint("shards", 0), ::testing::ExitedWithCode(2),
              "invalid value for --shards");
}

TEST(CliDeathTest, RejectsOutOfRangeInt) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2), "invalid value for --n");
}

TEST(CliDeathTest, RejectsOverflowDouble) {
  const char* argv[] = {"prog", "--rate=1e999"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --rate");
}

TEST(CliDeathTest, RejectsGarbageDoubleAndBool) {
  const char* argv[] = {"prog", "--rate=fast", "--flag=maybe"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --rate");
  EXPECT_EXIT(cli.get_bool("flag", false), ::testing::ExitedWithCode(2),
              "invalid value for --flag");
}

TEST(CliDeathTest, RejectsEmptyNumericValue) {
  const char* argv[] = {"prog", "--nodes="};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_uint("nodes", 1), ::testing::ExitedWithCode(2),
              "invalid value for --nodes");
}

// The flat table against std::unordered_map: a small key space (key 0
// included) keeps probe runs long, so inserts wrap around the bucket array
// and erases shift later run members back into the hole. Updates go
// through find() and operator[] alike, and at every checkpoint for_each
// must visit exactly the reference's entries, each once.
TEST(FlatHashMap, MatchesReferenceMapUnderChurn) {
  FlatHashMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(7);
  const auto check_all = [&] {
    for (uint64_t k = 0; k < 700; ++k) {
      const auto it = ref.find(k);
      const uint64_t* got = map.find(k);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << k;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> visited;
    map.for_each([&visited](uint64_t k, uint64_t v) { visited.emplace_back(k, v); });
    std::vector<std::pair<uint64_t, uint64_t>> expected(ref.begin(), ref.end());
    std::sort(visited.begin(), visited.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(visited, expected);
  };
  for (int step = 0; step < 40000; ++step) {
    const uint64_t key = rng.index(700);
    if (ref.count(key) != 0) {
      ASSERT_NE(map.find(key), nullptr) << "step " << step;
      ASSERT_EQ(*map.find(key), ref[key]);
      const double r = rng.uniform();
      if (r < 0.6) {
        map.erase(key);
        ref.erase(key);
      } else if (r < 0.8) {
        *map.find(key) = step;
        ref[key] = step;
      } else {
        map[key] = step;
        ref[key] = step;
      }
    } else {
      ASSERT_EQ(map.find(key), nullptr) << "step " << step;
      if (rng.chance(0.5)) {
        map.insert(key, step);
      } else {
        ASSERT_EQ(map[key], 0u) << "operator[] value-initializes";
        map[key] = step;
      }
      ref[key] = step;
    }
    ASSERT_EQ(map.size(), ref.size());
    if (step % 4000 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all());
  // Draining to empty leaves nothing for for_each to visit.
  for (const auto& [k, v] : std::vector<std::pair<uint64_t, uint64_t>>(ref.begin(), ref.end())) {
    map.erase(k);
    ref.erase(k);
  }
  ASSERT_EQ(map.size(), 0u);
  ASSERT_NO_FATAL_FAILURE(check_all());
}

}  // namespace
}  // namespace topo::util
