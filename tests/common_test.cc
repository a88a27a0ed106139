// Unit tests for common utilities: Status/Result, Value, stats, RNG, strings,
// and the JSON writer/reader pair.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"

namespace cologne {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("unexpected token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: unexpected token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  COLOGNE_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseReturnIfError(3).ok());
  EXPECT_FALSE(UseReturnIfError(-3).ok());
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
  EXPECT_EQ(Value::Node(3).as_node(), 3);
  EXPECT_EQ(Value::Sym(9).sym_index(), 9);
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::Str("x").is_numeric());
}

TEST(ValueTest, IntAsDoubleCoerces) {
  EXPECT_DOUBLE_EQ(Value::Int(4).as_double(), 4.0);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_NE(Value::Int(3), Value::Str("3"));
  EXPECT_LT(Value::Int(3), Value::Int(4));
}

TEST(ValueTest, HashStableAndDiscriminating) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Int(3).Hash());
  EXPECT_NE(Value::Int(3).Hash(), Value::Int(4).Hash());
  EXPECT_NE(Value::Int(3).Hash(), Value::Node(3).Hash());
  EXPECT_NE(Value::Str("a").Hash(), Value::Str("b").Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int(-2).ToString(), "-2");
  EXPECT_EQ(Value::Str("vm1").ToString(), "\"vm1\"");
  EXPECT_EQ(Value::Node(5).ToString(), "@5");
  EXPECT_EQ(Value::Sym(2).ToString(), "$2");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

TEST(ValueTest, WireSizeAccountsPayload) {
  EXPECT_EQ(Value::Int(1).WireSize(), 9u);
  EXPECT_EQ(Value::Node(1).WireSize(), 5u);
  EXPECT_EQ(Value::Str("abcd").WireSize(), 1u + 4u + 4u);
}

TEST(ValueTest, RowHashAndPrint) {
  Row r{Value::Int(1), Value::Str("a")};
  Row r2{Value::Str("a"), Value::Int(1)};
  EXPECT_NE(HashRow(r), HashRow(r2)) << "row hash must be order-sensitive";
  EXPECT_EQ(RowToString(r), "(1, \"a\")");
}

// Interning order must not leak into the sort order: "b" is interned first.
TEST(ValueTest, StringsOrderByContentNotInterningOrder) {
  const Value b = Value::Str("value_test_b");
  const Value a = Value::Str("value_test_a");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
  EXPECT_LT(Value::Str("value_test"), a) << "a prefix sorts first";
  // Cross-type order is the tag order: null < int < double < string < node
  // < sym, whatever the payloads.
  EXPECT_LT(Value::Null(), Value::Int(-5));
  EXPECT_LT(Value::Int(1000), Value::Double(-1.0));
  EXPECT_LT(Value::Double(1e300), a);
  EXPECT_LT(Value::Int(1000), a);
  EXPECT_LT(b, Value::Node(0));
  EXPECT_LT(Value::Node(1000), Value::Sym(0));
  EXPECT_LT(Value::Node(-1), Value::Node(0));
  EXPECT_LT(Value::Sym(-1), Value::Sym(0));
}

TEST(ValueTest, EqualStringsBuiltSeparatelyAreEqual) {
  std::string s1 = "host";
  std::string s2 = "ho";
  s2 += "st";
  const Value a = Value::Str(s1);
  const Value b = Value::Str(std::move(s2));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a < b || b < a);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, Value::Str("hosts"));
}

TEST(ValueTest, SignedZerosAreEqualAndHashAlike) {
  const Value pos = Value::Double(0.0);
  const Value neg = Value::Double(-0.0);
  EXPECT_EQ(pos, neg);
  EXPECT_EQ(pos.Hash(), neg.Hash());
  EXPECT_EQ(HashRow({pos}), HashRow({neg}));
  EXPECT_FALSE(pos < neg || neg < pos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Value::Double(nan), Value::Double(nan));
}

// Golden FNV-1a hashes. Table::ContentHash, whole-solve reuse and the e2e
// output hash are built on these bytes, so a layout change must not move
// them.
TEST(ValueTest, HashesAreGolden) {
  EXPECT_EQ(Value::Null().Hash(), 4953163356653287321ull);
  EXPECT_EQ(Value::Int(42).Hash(), 3035501996324726604ull);
  EXPECT_EQ(Value::Int(-7).Hash(), 17698820714872814680ull);
  EXPECT_EQ(Value::Double(2.5).Hash(), 13563573830263920759ull);
  EXPECT_EQ(Value::Double(0.0).Hash(), 13559817898542708883ull);
  EXPECT_EQ(Value::Str("host").Hash(), 6346960184137524818ull);
  EXPECT_EQ(Value::Str("").Hash(), 4953160058118402688ull);
  EXPECT_EQ(Value::Node(3).Hash(), 5123810458730299334ull);
  EXPECT_EQ(Value::Sym(5).Hash(), 13427266157335054247ull);
  const Row mixed{Value::Int(1),  Value::Double(0.5), Value::Str("vm"),
                  Value::Node(2), Value::Sym(0),      Value::Null()};
  EXPECT_EQ(HashRow(mixed), 808689054177926611ull);
  EXPECT_EQ(HashRow({}), 1469598103934665603ull);
}

// Concurrent interning of overlapping strings (the TSan row runs this):
// equal content yields equal values whichever thread interned it first.
TEST(ValueTest, ConcurrentInterningAgrees) {
  constexpr int kThreads = 4;
  constexpr int kStrings = 200;
  std::vector<std::vector<Value>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &got] {
      for (int i = 0; i < kStrings; ++i) {
        // Each thread walks the shared names from a different start.
        const int k = (i + t * kStrings / kThreads) % kStrings;
        got[t].push_back(Value::Str("intern_" + std::to_string(k)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kStrings; ++i) {
      const int k = (i + t * kStrings / kThreads) % kStrings;
      const Value& v = got[t][i];
      EXPECT_EQ(v, Value::Str("intern_" + std::to_string(k)));
      EXPECT_EQ(v.as_string(), "intern_" + std::to_string(k));
    }
  }
}

TEST(StatsTest, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stdev(), 0.0);
}

TEST(StatsTest, VectorHelpers) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Stdev(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 9.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 50), 2.0);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleAndGaussianSanity) {
  Rng r(9);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(r.UniformDouble());
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  RunningStats g;
  for (int i = 0; i < 20000; ++i) g.Add(r.Gaussian(10.0, 2.0));
  EXPECT_NEAR(g.mean(), 10.0, 0.1);
  EXPECT_NEAR(g.stdev(), 2.0, 0.1);
}

TEST(StringsTest, SplitJoinTrim) {
  std::vector<std::string> want{"a", "", "b"};
  EXPECT_EQ(Split("a,,b", ','), want);
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("goal minimize", "goal"));
  EXPECT_FALSE(StartsWith("go", "goal"));
}

TEST(StringsTest, FormatAndLower) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(ToLower("MiNiMiZe"), "minimize");
}

TEST(StringsTest, ParseUint64AcceptsOnlyPlainDecimals) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "12x",
                          "18446744073709551616", "1.5"}) {
    EXPECT_FALSE(ParseUint64(bad, &v)) << '"' << bad << '"';
  }
}

TEST(StringsTest, ParseDoubleAcceptsOnlyPlainFiniteNumbers) {
  double v = 7;
  EXPECT_TRUE(ParseDouble("1.10", &v));
  EXPECT_DOUBLE_EQ(v, 1.10);
  EXPECT_TRUE(ParseDouble("-2.5e3", &v));
  EXPECT_DOUBLE_EQ(v, -2500);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0);
  for (const char* bad : {"", "abc", "1,10", "+1", " 1", "1 ", "2x", "0x10",
                          "inf", "nan", "1e999", "-"}) {
    v = 7;
    EXPECT_FALSE(ParseDouble(bad, &v)) << '"' << bad << '"';
    EXPECT_DOUBLE_EQ(v, 7) << '"' << bad << '"';
  }
}

TEST(JsonTest, EverySingleByteStringRoundTrips) {
  for (int b = 0; b < 256; ++b) {
    std::string in(1, static_cast<char>(b));
    JsonWriter w;
    w.BeginArray().String(in).EndArray();
    auto parsed = ParseJson(w.str());
    ASSERT_TRUE(parsed.ok()) << "byte " << b << ": "
                             << parsed.status().ToString();
    ASSERT_EQ(parsed.value().items.size(), 1u);
    EXPECT_EQ(parsed.value().items[0].text, in) << "byte " << b;
  }
}

TEST(JsonTest, DecodesEscapes) {
  auto parsed = ParseJson(R"("\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().text, "\"\\/\b\f\n\r\tA\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_FALSE(ParseJson(R"("\u00g1")").ok());
  EXPECT_FALSE(ParseJson(R"("\u12")").ok());
  EXPECT_FALSE(ParseJson(R"("\x")").ok());
}

TEST(JsonTest, NumbersKeepTheirSpelling) {
  auto parsed = ParseJson("[0.1,-0,1e+05,18446744073709551615]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<JsonValue>& items = parsed.value().items;
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].text, "0.1");
  EXPECT_EQ(items[1].text, "-0");
  EXPECT_EQ(items[2].text, "1e+05");
  EXPECT_DOUBLE_EQ(items[0].AsDouble().value(), 0.1);
  EXPECT_EQ(items[1].AsInt().value(), 0);
  EXPECT_EQ(items[2].AsInt().value(), 100000);
  EXPECT_EQ(items[3].AsUInt().value(), 18446744073709551615ull);
  JsonWriter w;
  w.BeginArray();
  for (const JsonValue& v : items) w.Raw(v.text);
  w.EndArray();
  EXPECT_EQ(w.str(), "[0.1,-0,1e+05,18446744073709551615]");
}

TEST(JsonTest, CheckedIntegerAccessors) {
  auto parsed = ParseJson(R"([1.5,"7",1e300,-1,9223372036854775808,
                              -9223372036854775808,2.0,true])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<JsonValue>& v = parsed.value().items;
  EXPECT_FALSE(v[0].AsInt().ok());
  EXPECT_FALSE(v[1].AsInt().ok());
  EXPECT_FALSE(v[2].AsInt().ok());
  EXPECT_FALSE(v[2].AsUInt().ok());
  EXPECT_FALSE(v[3].AsUInt().ok());
  EXPECT_EQ(v[3].AsInt().value(), -1);
  EXPECT_FALSE(v[4].AsInt().ok());
  EXPECT_EQ(v[4].AsUInt().value(), 9223372036854775808ull);
  EXPECT_EQ(v[5].AsInt().value(), INT64_MIN);
  EXPECT_EQ(v[6].AsInt().value(), 2);
  EXPECT_FALSE(v[7].AsInt().ok());
  EXPECT_FALSE(v[1].AsDouble().ok());
  EXPECT_FALSE(ParseJson("1e400").value().AsDouble().ok());
  EXPECT_EQ(v[1].AsInt().status().code(), StatusCode::kParseError);
}

TEST(JsonTest, ErrorsCarryTheByteOffset) {
  struct Case {
    const char* in;
    const char* offset;
  };
  for (const Case& c : {Case{"{\"a\":1,}", "byte 7"},
                        Case{"[1,2] x", "byte 6"},
                        Case{"[01]", "byte 2"},
                        Case{"{\"a\" 1}", "byte 5"},
                        Case{"\"abc", "byte 4"},
                        Case{"", "byte 0"},
                        Case{"[1,2,", "byte 5"},
                        Case{"nul", "byte 0"}}) {
    auto parsed = ParseJson(c.in);
    ASSERT_FALSE(parsed.ok()) << c.in;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << c.in;
    EXPECT_NE(parsed.status().message().find(c.offset), std::string::npos)
        << c.in << " -> " << parsed.status().message();
  }
  auto parsed = ParseJson("[true, \"x\"]");
  ASSERT_TRUE(parsed.ok());
  auto bad = parsed.value().items[1].AsInt();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("byte 7"), std::string::npos)
      << bad.status().message();
}

TEST(JsonTest, NestingIsCapped) {
  std::string ok(kMaxJsonDepth, '[');
  ok += std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
  std::string deep(kMaxJsonDepth + 1, '[');
  deep += std::string(kMaxJsonDepth + 1, ']');
  auto parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos);
}

TEST(JsonTest, ObjectsAcceptWhitespaceAndFindFirstMember) {
  auto parsed = ParseJson(" {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"a\": null } ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* a = parsed.value().Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, JsonValue::Kind::kArray);
  EXPECT_EQ(a->items.size(), 2u);
  EXPECT_EQ(parsed.value().Find("b"), nullptr);
}

}  // namespace
}  // namespace cologne
