// Unit tests for the support module: RNG, tables, stats, CLI,
// the byte codec and record frame in wire.hpp, and the arithmetic helpers in
// common.hpp.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

namespace rpt {
namespace {

TEST(Common, SaturatingAddBasics) {
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(0, 0), 0u);
  EXPECT_EQ(SaturatingAdd(kNoDistanceLimit, 1), kNoDistanceLimit);
  EXPECT_EQ(SaturatingAdd(1, kNoDistanceLimit), kNoDistanceLimit);
  EXPECT_EQ(SaturatingAdd(kNoDistanceLimit, kNoDistanceLimit), kNoDistanceLimit);
}

TEST(Common, SaturatingAddNearOverflowSaturates) {
  const Distance big = kNoDistanceLimit - 2;
  EXPECT_EQ(SaturatingAdd(big, big), kNoDistanceLimit);
}

TEST(Common, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 5), 0u);
  EXPECT_EQ(CeilDiv(1, 5), 1u);
  EXPECT_EQ(CeilDiv(5, 5), 1u);
  EXPECT_EQ(CeilDiv(6, 5), 2u);
  EXPECT_EQ(CeilDiv(10, 1), 10u);
  EXPECT_EQ(CeilDiv(7, 0), 0u);  // guarded: division by zero returns 0
}

TEST(Common, CheckMacroThrowsInternalError) {
  EXPECT_THROW(RPT_CHECK(1 == 2), InternalError);
  EXPECT_NO_THROW(RPT_CHECK(1 == 1));
}

TEST(Common, RequireMacroThrowsInvalidArgument) {
  EXPECT_THROW(RPT_REQUIRE(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(RPT_REQUIRE(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values should appear
}

TEST(Rng, NextUnitInHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyFair) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.5);
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(23);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.Next() == child.Next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

TEST(Rng, WeightedPickRespectsZeroWeights) {
  Rng rng(31);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(WeightedPick(rng, weights), 1u);
}

TEST(Rng, WeightedPickRejectsBadInput) {
  Rng rng(37);
  EXPECT_THROW(WeightedPick(rng, {0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(WeightedPick(rng, {-1.0, 2.0}), InvalidArgument);
}

TEST(Table, AsciiLayout) {
  Table table({"name", "value"});
  table.NewRow().Add("alpha").Add(std::uint64_t{42});
  table.NewRow().Add("b").Add(std::uint64_t{7});
  std::ostringstream os;
  table.PrintAscii(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table table({"a", "b"});
  table.NewRow().Add("x,y").Add("quote\"inside");
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"quote\"\"inside\"\n");
}

TEST(Table, DoubleFormatting) {
  Table table({"v"});
  table.NewRow().Add(3.14159, 2);
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "v\n3.14\n");
}

TEST(Table, RejectsRowOverflowAndMissingNewRow) {
  Table table({"only"});
  EXPECT_THROW(table.Add("no row yet"), InvalidArgument);
  table.NewRow().Add("ok");
  EXPECT_THROW(table.Add("too many"), InvalidArgument);
}

TEST(Table, WriteCsvFileRoundTrip) {
  Table table({"a", "b"});
  table.NewRow().Add("x").Add(std::uint64_t{1});
  const std::string path = ::testing::TempDir() + "/rpt_table_test.csv";
  table.WriteCsvFile(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,b\nx,1\n");
  EXPECT_THROW(table.WriteCsvFile("/nonexistent-dir/x.csv"), InvalidArgument);
}

TEST(Table, DetectsShortRowOnPrint) {
  Table table({"a", "b"});
  table.NewRow().Add("only one");
  std::ostringstream os;
  EXPECT_THROW(table.PrintAscii(os), InvalidArgument);
}

TEST(Stats, AccumulatorMoments) {
  StatAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.Count(), 8u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.Min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 9.0);
  EXPECT_NEAR(acc.Stddev(), 2.138089935, 1e-6);
}

TEST(Stats, EmptyAccumulatorIsSafe) {
  StatAccumulator acc;
  EXPECT_EQ(acc.Count(), 0u);
  EXPECT_EQ(acc.Min(), 0.0);
  EXPECT_EQ(acc.Max(), 0.0);
  EXPECT_EQ(acc.Variance(), 0.0);
}

TEST(Stats, FitLineRecoversExactLine) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, FitLineRejectsDegenerateInput) {
  EXPECT_THROW((void)FitLine({1.0}, {2.0}), InvalidArgument);
  EXPECT_THROW((void)FitLine({1.0, 1.0}, {2.0, 3.0}), InvalidArgument);
  EXPECT_THROW((void)FitLine({1.0, 2.0}, {2.0}), InvalidArgument);
}

TEST(Wire, WriterAndReaderRoundTripLittleEndian) {
  std::string bytes;
  support::wire::ByteWriter(bytes).U8(0xAB).U32(0x01020304u).U64(0x1122334455667788ull).Bytes(
      std::string_view("xy"));
  EXPECT_EQ(bytes, std::string("\xAB\x04\x03\x02\x01\x88\x77\x66\x55\x44\x33\x22\x11xy", 15));

  support::wire::ByteReader in(bytes);
  EXPECT_EQ(in.U8(), 0xABu);
  EXPECT_EQ(in.U32(), 0x01020304u);
  EXPECT_EQ(in.U64(), 0x1122334455667788ull);
  EXPECT_THROW(in.ExpectExhausted(), support::wire::DecodeError);
  EXPECT_EQ(in.Rest(), "xy");
  in.ExpectExhausted();
  EXPECT_THROW((void)in.U8(), support::wire::DecodeError);
}

TEST(Wire, CountRefusesElementsThatCannotFitInTheBytesLeft) {
  std::string bytes;
  support::wire::ByteWriter(bytes).U32(3).U64(0).U32(0);  // 3 claimed, 12 bytes left
  support::wire::ByteReader fits(bytes);
  EXPECT_EQ(fits.Count(4), 3u);
  support::wire::ByteReader lies(bytes);
  EXPECT_THROW((void)lies.Count(5), support::wire::DecodeError);

  std::string huge;
  support::wire::ByteWriter(huge).U32(0xFFFFFFFFu);
  support::wire::ByteReader empty_tail(huge);
  EXPECT_THROW((void)empty_tail.Count(1), support::wire::DecodeError);
}

TEST(Wire, FrameAtAcceptsOnlyIntactRecords) {
  std::string framed = "junk";
  support::wire::AppendFrame(framed, "payload");
  EXPECT_EQ(support::wire::FrameAt(framed, 4, 64), std::optional<std::string_view>("payload"));
  EXPECT_FALSE(support::wire::FrameAt(framed, 4, 6).has_value());  // over max_len
  EXPECT_FALSE(support::wire::FrameAt(framed.substr(0, framed.size() - 1), 4, 64).has_value());
  EXPECT_FALSE(support::wire::FrameAt(framed, 0, 64).has_value());
  EXPECT_FALSE(support::wire::FrameAt(framed, framed.size(), 64).has_value());
  std::string flipped = framed;
  flipped.back() ^= 1;
  EXPECT_FALSE(support::wire::FrameAt(flipped, 4, 64).has_value());

  std::string empty;
  support::wire::AppendFrame(empty, "");
  EXPECT_FALSE(support::wire::FrameAt(empty, 0, 64).has_value());  // length 0 is never sane
}

TEST(Wire, StreamPrefixCarriesThePayloadLength) {
  std::vector<std::uint8_t> wire;
  support::wire::AppendPrefixed(wire, std::string_view("abc"));
  ASSERT_EQ(wire.size(), 7u);
  std::uint8_t prefix[support::wire::kPrefixBytes];
  std::copy_n(wire.begin(), 4, prefix);
  EXPECT_EQ(support::wire::PrefixLength(prefix), 3u);
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli("demo", "test");
  cli.AddInt("count", 5, "a count");
  cli.AddString("mode", "fast", "a mode");
  cli.AddBool("verbose", false, "chatty");
  const char* argv[] = {"demo", "--count=12", "--mode", "slow", "--verbose"};
  ASSERT_TRUE(cli.Parse(5, argv));
  EXPECT_EQ(cli.GetInt("count"), 12);
  EXPECT_EQ(cli.GetString("mode"), "slow");
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(Cli, DefaultsSurviveEmptyArgv) {
  Cli cli("demo", "test");
  cli.AddInt("count", 5, "a count");
  const char* argv[] = {"demo"};
  ASSERT_TRUE(cli.Parse(1, argv));
  EXPECT_EQ(cli.GetInt("count"), 5);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("demo", "test");
  cli.AddInt("count", 5, "a count");
  const char* unknown[] = {"demo", "--nope=1"};
  EXPECT_THROW((void)cli.Parse(2, unknown), InvalidArgument);
  const char* non_numeric[] = {"demo", "--count=abc"};
  EXPECT_THROW((void)cli.Parse(2, non_numeric), InvalidArgument);
}

TEST(Cli, HelpShortCircuits) {
  Cli cli("demo", "test");
  cli.AddInt("count", 5, "a count");
  const char* argv[] = {"demo", "--help"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(Cli, GetUintReadsNonNegativeValues) {
  Cli cli("demo", "test");
  cli.AddInt("count", 5, "a count");
  const char* argv[] = {"demo", "--count=12"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_EQ(cli.GetUint("count"), 12u);
  EXPECT_EQ(cli.GetUint("count", 12), 12u);
}

TEST(Cli, GetUintRejectsNegativeWithClearError) {
  Cli cli("demo", "test");
  cli.AddInt("seeds", 1, "a count");
  const char* argv[] = {"demo", "--seeds=-1"};
  ASSERT_TRUE(cli.Parse(2, argv));
  // The old static_cast<std::size_t>(GetInt()) pattern turned -1 into ~2^64
  // cells; GetUint must refuse instead.
  try {
    (void)cli.GetUint("seeds");
    FAIL() << "GetUint accepted a negative value";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--seeds must be >= 0"), std::string::npos);
  }
}

TEST(Cli, GetUintEnforcesUpperBound) {
  Cli cli("demo", "test");
  cli.AddInt("clients", 10, "a count");
  const char* argv[] = {"demo", "--clients=1000"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_EQ(cli.GetUint("clients", 1000), 1000u);
  EXPECT_THROW((void)cli.GetUint("clients", 999), InvalidArgument);
}

TEST(Cli, BatchFlagsRejectNegativeSeeds) {
  Cli cli("demo", "test");
  AddBatchFlags(cli);
  const char* argv[] = {"demo", "--seeds=-1"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_THROW((void)GetBatchFlags(cli), InvalidArgument);
}

TEST(Cli, BatchFlagsDefaults) {
  Cli cli("demo", "test");
  AddBatchFlags(cli, /*default_seeds=*/12);
  const char* argv[] = {"demo"};
  ASSERT_TRUE(cli.Parse(1, argv));
  const BatchFlags flags = GetBatchFlags(cli);
  EXPECT_EQ(flags.threads, 0u);  // 0 = hardware concurrency
  EXPECT_EQ(flags.seeds, 12u);
}

TEST(Cli, BatchFlagsParseBothForms) {
  Cli cli("demo", "test");
  AddBatchFlags(cli);
  const char* argv[] = {"demo", "--threads=4", "--seeds", "100"};
  ASSERT_TRUE(cli.Parse(4, argv));
  const BatchFlags flags = GetBatchFlags(cli);
  EXPECT_EQ(flags.threads, 4u);
  EXPECT_EQ(flags.seeds, 100u);
}

TEST(Cli, BatchFlagsRejectBadValues) {
  {
    Cli cli("demo", "test");
    AddBatchFlags(cli);
    const char* argv[] = {"demo", "--threads=-1"};
    ASSERT_TRUE(cli.Parse(2, argv));
    EXPECT_THROW((void)GetBatchFlags(cli), InvalidArgument);
  }
  {
    Cli cli("demo", "test");
    AddBatchFlags(cli);
    const char* argv[] = {"demo", "--seeds=0"};
    ASSERT_TRUE(cli.Parse(2, argv));
    EXPECT_THROW((void)GetBatchFlags(cli), InvalidArgument);
  }
  {
    Cli cli("demo", "test");
    AddBatchFlags(cli);
    const char* argv[] = {"demo", "--threads=two"};
    EXPECT_THROW((void)cli.Parse(2, argv), InvalidArgument);
  }
}

}  // namespace
}  // namespace rpt
