#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "obs/cli.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace sofia {
namespace {

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(3);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndSorted) {
  Rng rng(4);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
    EXPECT_LT(sample[i], 100u);
  }
  // Full sample returns everything.
  std::vector<size_t> all = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, NormalVectorHasRequestedMoments) {
  Rng rng(5);
  std::vector<double> v = rng.NormalVector(20000, 2.0, 3.0);
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

// --- Flags -------------------------------------------------------------------

Flags ParseFlags(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesTypedValues) {
  Flags f = ParseFlags({"--scale=paper", "--steps=200", "--mu=0.05",
                        "--verbose", "positional"});
  EXPECT_TRUE(f.Has("scale"));
  EXPECT_EQ(f.GetString("scale", "small"), "paper");
  EXPECT_EQ(f.GetInt("steps", 0), 200);
  EXPECT_DOUBLE_EQ(f.GetDouble("mu", 0.0), 0.05);
  EXPECT_TRUE(f.GetBool("verbose", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = ParseFlags({});
  EXPECT_FALSE(f.Has("anything"));
  EXPECT_EQ(f.GetString("scale", "small"), "small");
  EXPECT_EQ(f.GetInt("steps", 7), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("mu", 0.5), 0.5);
  EXPECT_FALSE(f.GetBool("verbose", false));
}

TEST(FlagsTest, UnreadListsFlagsNoCallAskedFor) {
  Flags f = ParseFlags({"--workers=2", "--workres=2", "--bogus", "pos"});
  EXPECT_EQ(f.Unread(), (std::vector<std::string>{"bogus", "workers",
                                                  "workres"}));
  EXPECT_EQ(f.GetInt("workers", 0), 2);
  EXPECT_EQ(f.Unread(), (std::vector<std::string>{"bogus", "workres"}));
  EXPECT_TRUE(f.Has("bogus"));
  EXPECT_EQ(f.Unread(), (std::vector<std::string>{"workres"}));
}

TEST(FlagsTest, EveryAccessorRecordsItsRead) {
  Flags f = ParseFlags({"--a=x", "--b=1", "--c=0.5", "--d=yes", "--e"});
  EXPECT_EQ(f.GetString("a", ""), "x");
  EXPECT_EQ(f.GetInt("b", 0), 1);
  EXPECT_DOUBLE_EQ(f.GetDouble("c", 0.0), 0.5);
  EXPECT_TRUE(f.GetBool("d", false));
  EXPECT_TRUE(f.Has("e"));
  EXPECT_TRUE(f.Unread().empty());
  // Asking for an absent flag is a read of a name, never an unread flag.
  EXPECT_EQ(f.GetInt("absent", 3), 3);
  EXPECT_TRUE(f.Unread().empty());
}

TEST(FlagsTest, ObsCliReadsItsFlags) {
  Flags f = ParseFlags({"--obs=1", "--stats-every=0", "--trace-capacity=64",
                        "--storage=csf"});
  obs::SetupObsFromFlags(f);
  EXPECT_EQ(f.Unread(), (std::vector<std::string>{"storage"}));
}

TEST(FlagsTest, ReportUnreadFlagsNamesEachOne) {
  Flags f = ParseFlags({"--storage=csf", "--bogus=1", "--seed=3"});
  f.GetInt("seed", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(ReportUnreadFlags(f, "prog"), 2u);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("prog: unknown flag --bogus"), std::string::npos);
  EXPECT_NE(err.find("prog: unknown flag --storage"), std::string::npos);
  EXPECT_EQ(err.find("seed"), std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_EQ(ReportUnreadFlags(ParseFlags({}), "prog"), 0u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// --- Table --------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatsSignificantDigits) {
  EXPECT_EQ(Table::Num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::Num(1234567.0, 3), "1.23e+06");
}

// --- Stopwatch ------------------------------------------------------------------

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace sofia
