// Tests for src/common: Status/Result, Rng, the ByteReader varint decoder,
// CRC-32, string utilities, timers, thread pool.

#include <atomic>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace newslink {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad beta");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad beta");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad beta");
}

TEST(StatusTest, EachCodePredicateMatchesOnlyItself) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::NotFound("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailingHelper() { return Status::IOError("disk on fire"); }

Status PropagationSite() {
  NL_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(PropagationSite().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  NL_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(9, &out).ok());
  EXPECT_EQ(out, 9);
  EXPECT_TRUE(UseAssignOrReturn(-1, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reached
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalHasZeroMeanUnitVariance) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 8);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (size_t s : sample) EXPECT_LT(s, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(21);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ZipfTableFavoursLowRanks) {
  Rng rng(23);
  ZipfTable zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[50]);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork(1);
  Rng a2(31);
  Rng child2 = a2.Fork(1);
  EXPECT_EQ(child.Next(), child2.Next());  // deterministic
  EXPECT_NE(child.Next(), a.Next());       // diverges from parent
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader varints: the one decoder every untrusted snapshot
// integer (posting gaps and tfs, doc lengths, doc maps, sketch deltas,
// embedding counts) passes through. Run under ASan/UBSan, these are the
// no-over-read, no-oversized-shift guarantee.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeVarint(uint32_t value) {
  ByteWriter writer;
  writer.WriteVarint(value);
  return writer.TakeBytes();
}

Status DecodeVarint(std::span<const uint8_t> bytes, uint32_t* value) {
  ByteReader reader(bytes);
  return reader.ReadVarint(value);
}

TEST(ByteReaderTest, VarintEncodesKnownValues) {
  EXPECT_EQ(EncodeVarint(0), (std::vector<uint8_t>{0x00}));
  EXPECT_EQ(EncodeVarint(127), (std::vector<uint8_t>{0x7F}));
  EXPECT_EQ(EncodeVarint(128), (std::vector<uint8_t>{0x80, 0x01}));
  EXPECT_EQ(EncodeVarint(300), (std::vector<uint8_t>{0xAC, 0x02}));
  EXPECT_EQ(EncodeVarint(0xFFFFFFFFu),
            (std::vector<uint8_t>{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}));
}

TEST(ByteReaderTest, VarintRoundTripsRandomValues) {
  Rng rng(3);
  // Each encoding width's edges: 1, 2, 3, 4 and 5 bytes.
  std::vector<uint32_t> values = {0,       127,           128,
                                  1u << 14, (1u << 14) - 1, 1u << 21,
                                  1u << 28, (1u << 28) - 1};
  for (int i = 0; i < 1000; ++i) {
    // A mix of magnitudes, so every encoding width is exercised.
    values.push_back(static_cast<uint32_t>(rng.Next()) >> rng.Uniform(32));
  }
  ByteWriter writer;
  for (uint32_t v : values) writer.WriteVarint(v);
  ByteReader reader(writer.bytes());
  for (uint32_t expected : values) {
    uint32_t value = 0;
    const Status s = reader.ReadVarint(&value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(value, expected);
  }
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(EncodeVarint(1u << 14).size(), 3u);
  EXPECT_EQ(EncodeVarint(1u << 28).size(), 5u);
}

TEST(ByteReaderTest, VarintMaxValueRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeVarint(0xFFFFFFFFu);
  ASSERT_EQ(bytes.size(), 5u);
  ByteReader reader(bytes);
  uint32_t value = 0;
  const Status s = reader.ReadVarint(&value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(value, 0xFFFFFFFFu);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(ByteReaderTest, VarintRejectsEmptyAndTruncatedInput) {
  uint32_t value = 0;
  EXPECT_TRUE(DecodeVarint({}, &value).IsIOError());

  const std::vector<uint8_t> bytes = EncodeVarint(1u << 20);  // 3 bytes
  ASSERT_EQ(bytes.size(), 3u);
  for (size_t keep = 1; keep < bytes.size(); ++keep) {
    // Only continuation bytes survive: the terminator is cut off.
    ByteReader reader(std::span<const uint8_t>(bytes.data(), keep));
    const Status s = reader.ReadVarint(&value);
    EXPECT_TRUE(s.IsIOError()) << "keep=" << keep << " " << s.ToString();
    EXPECT_TRUE(reader.AtEnd()) << "the cursor must stop at the end";
  }
}

TEST(ByteReaderTest, VarintRejectsRunawayContinuationBytes) {
  // All-continuation input must stop after 5 bytes instead of shifting
  // past 31 bits or walking the rest of the buffer.
  const std::vector<uint8_t> runaway(64, 0xFF);
  ByteReader reader(runaway);
  uint32_t value = 0;
  EXPECT_TRUE(reader.ReadVarint(&value).IsIOError());
  EXPECT_GE(reader.remaining(), runaway.size() - 5);

  // Continuation bytes whose payloads fit still hit the 5-byte cap.
  const std::vector<uint8_t> six = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  const Status s = DecodeVarint(six, &value);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find("longer than 5 bytes"), std::string::npos)
      << s.ToString();
}

TEST(ByteReaderTest, VarintRejectsFifthByteOverflow) {
  // The 5th byte may carry only the top 4 bits of a uint32_t.
  const std::vector<uint8_t> overflow = {0xFF, 0xFF, 0xFF, 0xFF, 0x10};
  uint32_t value = 0;
  const Status s = DecodeVarint(overflow, &value);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find("overflows 32 bits"), std::string::npos)
      << s.ToString();

  // ... while the largest valid 5th byte decodes.
  const std::vector<uint8_t> max = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  ASSERT_TRUE(DecodeVarint(max, &value).ok());
  EXPECT_EQ(value, 0xFFFFFFFFu);
}

TEST(ByteReaderTest, VarintRejectsOverlongEncodings) {
  // Each of these re-encodes a value with a trailing byte that carries no
  // payload bits. WriteVarint never produces one, so it marks bytes that a
  // writer of this format did not write.
  const std::vector<std::vector<uint8_t>> overlong = {
      {0x80, 0x00},                    // 0 in two bytes
      {0xFF, 0x00},                    // 127 in two bytes
      {0x80, 0x80, 0x00},              // 0 in three bytes
      {0xAC, 0x82, 0x00},              // 300 in three bytes
      {0xFF, 0xFF, 0xFF, 0xFF, 0x00},  // 2^28 - 1 in five bytes
  };
  for (const std::vector<uint8_t>& bytes : overlong) {
    uint32_t value = 0;
    const Status s = DecodeVarint(bytes, &value);
    EXPECT_TRUE(s.IsIOError()) << "size " << bytes.size();
    EXPECT_NE(s.ToString().find("overlong"), std::string::npos)
        << s.ToString();
  }
  // A single zero byte is the canonical encoding of 0, not an overlong one.
  uint32_t zero = 1;
  ASSERT_TRUE(DecodeVarint(std::vector<uint8_t>{0x00}, &zero).ok());
  EXPECT_EQ(zero, 0u);
}

TEST(ByteReaderTest, VarintNeverCrashesOnRandomBytes) {
  // Random byte soup either decodes or returns Status. Whatever decodes
  // consumed exactly the bytes WriteVarint emits for that value: one
  // encoding per value.
  Rng rng(29);
  size_t decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(9));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    ByteReader reader(junk);
    uint32_t value = 0;
    if (!reader.ReadVarint(&value).ok()) continue;
    ++decoded;
    const size_t consumed = junk.size() - reader.remaining();
    EXPECT_EQ(std::vector<uint8_t>(junk.begin(), junk.begin() + consumed),
              EncodeVarint(value));
  }
  EXPECT_GT(decoded, 0u);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

/// The textbook one-byte-at-a-time CRC-32, written out here so the
/// library's table-driven version has an independent reference.
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(check.data()), check.size())),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(31);
  std::vector<uint8_t> buffer(8 + 300);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::span<const uint8_t> slice(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(slice), BytewiseCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Swat VALLEY 7"), "swat valley 7");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("newslink", "news"));
  EXPECT_FALSE(StartsWith("news", "newslink"));
  EXPECT_TRUE(EndsWith("newslink", "link"));
  EXPECT_FALSE(EndsWith("link", "newslink"));
}

TEST(StringUtilTest, StrCatMixedTypes) {
  EXPECT_EQ(StrCat("k=", 5, ", b=", 2.5), "k=5, b=2.5");
  EXPECT_EQ(StrCat(), "");
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TimeBreakdownTest, AccumulatesBuckets) {
  TimeBreakdown tb;
  tb.Add("ne", 1.0);
  tb.Add("ne", 2.0);
  tb.Add("nlp", 0.5);
  EXPECT_DOUBLE_EQ(tb.TotalSeconds("ne"), 3.0);
  EXPECT_EQ(tb.Count("ne"), 2);
  EXPECT_DOUBLE_EQ(tb.MeanSeconds("ne"), 1.5);
  EXPECT_DOUBLE_EQ(tb.TotalSeconds("missing"), 0.0);
  EXPECT_DOUBLE_EQ(tb.MeanSeconds("missing"), 0.0);
}

TEST(TimeBreakdownTest, MergeCombines) {
  TimeBreakdown a, b;
  a.Add("x", 1.0);
  b.Add("x", 2.0);
  b.Add("y", 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.TotalSeconds("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.TotalSeconds("y"), 3.0);
  EXPECT_EQ(a.Count("x"), 2);
}

TEST(TimeBreakdownTest, ScopedTimerRecords) {
  TimeBreakdown tb;
  {
    ScopedTimer t(&tb, "scope");
  }
  EXPECT_EQ(tb.Count("scope"), 1);
  EXPECT_GE(tb.TotalSeconds("scope"), 0.0);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, WaitIdempotent) {
  ThreadPool pool(2);
  pool.Wait();
  pool.Wait();
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForFromWorkerRunsInline) {
  // Regression: ParallelFor called from a pool worker used to Submit its
  // loop tasks behind the caller and then Wait() — with every worker
  // occupied by such a caller, nobody drained the queue and the pool
  // deadlocked. Nested calls must run inline on the calling worker.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> outer_done{0};
  for (int outer = 0; outer < 4; ++outer) {
    pool.Submit([&pool, &hits, &outer_done] {
      pool.ParallelFor(hits.size(),
                       [&hits](size_t i) { hits[i].fetch_add(1); });
      outer_done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(outer_done.load(), 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 4);
}

TEST(ThreadPoolTest, ParallelForFromForeignWorkerStillParallel) {
  // A worker of pool A fanning out on pool B is not reentrant — B's
  // workers are free, so the parallel path must still be taken (and must
  // complete).
  ThreadPool a(1);
  ThreadPool b(2);
  std::atomic<int> count{0};
  a.Submit([&b, &count] {
    b.ParallelFor(32, [&count](size_t) { count.fetch_add(1); });
  });
  a.Wait();
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace newslink
