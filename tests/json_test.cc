// common/json: the wire document model. Round trips must be lossless for
// every shape the /v1 protocol uses, the writer must emit valid JSON for
// hostile strings, and the strict parser must reject malformed documents
// with a useful byte offset instead of guessing.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"

namespace newslink {
namespace json {
namespace {

/// Parse `text` or fail the test with the parser's message.
Value MustParse(const std::string& text) {
  Result<Value> parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " for " << text;
  return parsed.ok() ? std::move(parsed).value() : Value();
}

TEST(JsonWriterTest, Scalars) {
  EXPECT_EQ(Value::Null().Dump(), "null");
  EXPECT_EQ(Value::Bool(true).Dump(), "true");
  EXPECT_EQ(Value::Bool(false).Dump(), "false");
  EXPECT_EQ(Value::Str("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Value::Number(1.5).Dump(), "1.5");
}

TEST(JsonWriterTest, IntegralNumbersRenderWithoutDecimalPoint) {
  EXPECT_EQ(Value::Int(0).Dump(), "0");
  EXPECT_EQ(Value::Int(-42).Dump(), "-42");
  EXPECT_EQ(Value::Uint(9007199254740992ull).Dump(), "9007199254740992");
}

TEST(JsonWriterTest, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::quiet_NaN()).Dump(),
            "null");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(Value::Str("a\"b\\c").Dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Value::Str("line\nbreak\ttab").Dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Value::Str(std::string("nul\0byte", 8)).Dump(),
            "\"nul\\u0000byte\"");
}

TEST(JsonWriterTest, Utf8PassesThroughVerbatim) {
  const std::string s = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x97\x9e";
  EXPECT_EQ(Value::Str(s).Dump(), "\"" + s + "\"");
}

TEST(JsonWriterTest, ObjectsPreserveInsertionOrder) {
  Value v = Value::Object();
  v.Set("zebra", Value::Int(1));
  v.Set("alpha", Value::Int(2));
  v.Set("mid", Value::Str("x"));
  EXPECT_EQ(v.Dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":\"x\"}");
}

TEST(JsonParserTest, ScalarsAndWhitespace) {
  EXPECT_TRUE(MustParse(" null ").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool(true));
  EXPECT_DOUBLE_EQ(MustParse("-2.75e2").AsDouble(), -275.0);
  EXPECT_EQ(MustParse("\t42\n").AsInt(), 42);
  EXPECT_TRUE(MustParse("17").integral());
  EXPECT_FALSE(MustParse("17.5").integral());
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(MustParse("\"a\\u0041\\n\"").AsString(), "aA\n");
  // U+1F5DE (rolled-up newspaper) as a surrogate pair.
  EXPECT_EQ(MustParse("\"\\ud83d\\uddde\"").AsString(), "\xf0\x9f\x97\x9e");
}

TEST(JsonParserTest, NestedDocument) {
  const Value v = MustParse(
      "{\"hits\": [{\"doc_index\": 3, \"score\": 0.5, "
      "\"paths\": [\"a\", \"b\"]}], \"epoch\": 2}");
  const Value* hits = v.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->at(0).Find("doc_index")->AsUint(), 3u);
  EXPECT_EQ(hits->at(0).Find("paths")->size(), 2u);
  EXPECT_EQ(v.Find("epoch")->AsUint(), 2u);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RoundTripIsStable) {
  const std::string wire =
      "{\"query\":\"berlin \\\"wall\\\"\",\"k\":10,\"beta\":0.25,"
      "\"flags\":[true,false,null],\"nested\":{\"deep\":[1,2,3]}}";
  const Value once = MustParse(wire);
  EXPECT_EQ(once.Dump(), wire);
  EXPECT_EQ(MustParse(once.Dump()).Dump(), wire);
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",          "{",        "[1,",       "{\"a\":}",  "nul",
      "tru",       "01",       "+1",        "1.",        "\"unterminated",
      "\"\\q\"",   "{'a':1}",  "[1 2]",     "{\"a\" 1}", "\"\\ud83d\"",
      "{\"a\":1,}"};
  for (const char* text : bad) {
    EXPECT_FALSE(Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} {}").ok());
  EXPECT_FALSE(Parse("1 1").ok());
  EXPECT_FALSE(Parse("null x").ok());
}

TEST(JsonParserTest, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 8; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 8; ++i) deep += "]";
  EXPECT_TRUE(Parse(deep, /*max_depth=*/8).ok());
  EXPECT_FALSE(Parse(deep, /*max_depth=*/7).ok());
}

TEST(JsonParserTest, ErrorsCarryByteOffset) {
  const Result<Value> r = Parse("{\"a\": nope}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("at byte"), std::string::npos)
      << r.status().ToString();
}

/// The writer's number formatting as it was first written: "%lld" for
/// integral values below 2^53, else the first "%.*g" precision in 1..16
/// that strtod reads back as the same double, else "%.17g". Kept as the
/// byte-for-byte oracle of NumberToString.
std::string SnprintfOracle(double v, bool integral) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  if (integral || (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::strtod(buf, nullptr) == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[40];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

/// The sweep: random bit patterns, +-powers of two and their neighbours
/// across the whole exponent range, subnormals, values >= 1e7 with 16-17
/// significant digits, integral values beyond 2^53, and score-like values
/// in [0, 1).
std::vector<double> NumberSweep() {
  Rng rng(20240611);
  std::vector<double> values;
  values.reserve(1'100'000);
  for (int i = 0; i < 400'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.Next()));
  }
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    const double inf = std::numeric_limits<double>::infinity();
    for (const double x :
         {p, std::nextafter(p, 0.0), std::nextafter(p, inf)}) {
      values.push_back(x);
      values.push_back(-x);
    }
  }
  for (int i = 0; i < 150'000; ++i) {  // subnormals: exponent field 0
    const uint64_t mantissa = rng.Next() & ((uint64_t{1} << 52) - 1);
    const uint64_t sign = (rng.Next() & 1) << 63;
    values.push_back(std::bit_cast<double>(sign | mantissa));
  }
  for (int i = 0; i < 200'000; ++i) {
    // A 16- or 17-digit decimal scaled to land in [1e7, 1e17).
    const int digits = 16 + static_cast<int>(rng.Uniform(2));
    std::string text = std::to_string(1 + rng.Uniform(9));
    for (int d = 1; d < digits; ++d) {
      text += static_cast<char>('0' + rng.Uniform(10));
    }
    text += "e-";
    text += std::to_string(rng.Uniform(static_cast<uint64_t>(digits - 7)));
    values.push_back(std::strtod(text.c_str(), nullptr));
  }
  for (int i = 0; i < 150'000; ++i) {
    // Integral doubles >= 2^53: biased exponent 1076..2046 (any mantissa).
    const uint64_t exponent = 1076 + rng.Uniform(971);
    const uint64_t mantissa = rng.Next() & ((uint64_t{1} << 52) - 1);
    const uint64_t sign = (rng.Next() & 1) << 63;
    values.push_back(std::bit_cast<double>(sign | (exponent << 52) | mantissa));
  }
  for (int i = 0; i < 200'000; ++i) values.push_back(rng.UniformDouble());
  return values;
}

/// The oracle costs up to 17 snprintf + strtod pairs per value, so the
/// sweep is split into shards that ctest runs as separate processes.
constexpr int kOracleShards = 8;

class JsonNumberOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(JsonNumberOracleTest, WriterMatchesSnprintfOracleByteForByte) {
  const std::vector<double> values = NumberSweep();
  ASSERT_GE(values.size(), 1'000'000u);
  size_t mismatches = 0;
  for (size_t i = static_cast<size_t>(GetParam()); i < values.size();
       i += kOracleShards) {
    const double v = values[i];
    for (const bool integral : {false, true}) {
      // The integral flag forces "%lld", defined only within long long.
      if (integral && !(std::fabs(v) < 9.2e18)) continue;
      const std::string got = NumberToString(v, integral);
      const std::string want = SnprintfOracle(v, integral);
      if (got != want && ++mismatches <= 10) {
        ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(v) << " integral "
                      << integral << ": got " << got << ", want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberOracleTest,
                         ::testing::Range(0, kOracleShards));

TEST(JsonNumberTest, DumpParseRoundTripsEveryFiniteDoubleBitForBit) {
  size_t failures = 0;
  for (const double v : NumberSweep()) {
    // Non-finite values render as null; -0 renders as the integer 0.
    if (!std::isfinite(v) || (v == 0.0 && std::signbit(v))) continue;
    const std::string wire = Value::Number(v).Dump();
    const Result<Value> parsed = Parse(wire);
    const bool same = parsed.ok() && parsed.value().is_number() &&
                      std::bit_cast<uint64_t>(parsed.value().AsDouble()) ==
                          std::bit_cast<uint64_t>(v);
    if (!same && ++failures <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(v) << " wire "
                    << wire;
    }
  }
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace json
}  // namespace newslink
