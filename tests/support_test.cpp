#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/interner.hpp"
#include "support/parse_number.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace velev {
namespace {

TEST(ParseNumber, AcceptsOnlyAWholeNumberInRange) {
  EXPECT_EQ(parseNumber<unsigned>("4", 1, kMaxWorkers), 4u);
  EXPECT_EQ(parseNumber<unsigned>("256", 1, kMaxWorkers), 256u);
  EXPECT_EQ(parseNumber<int>("-7", -10, 10), -7);
  EXPECT_EQ(parseNumber<double>("0.25", 1e-9, 1e9), 0.25);
  EXPECT_EQ(parseNumber<double>("1e3", 1e-9, 1e9), 1000.0);
  for (const char* bad : {"", "-1", "0", "257", "4x", "x4", " 4", "4 ", "+4",
                          "4294967296", "99999999999999999999"})
    EXPECT_FALSE(parseNumber<unsigned>(bad, 1, kMaxWorkers).has_value())
        << "'" << bad << "'";
  for (const char* bad : {"0", "-1", "nan", "inf", "1e10", "1s", ""})
    EXPECT_FALSE(parseNumber<double>(bad, 1e-9, 1e9).has_value())
        << "'" << bad << "'";
  EXPECT_FALSE(parseNumber<int>("-2147483649", INT32_MIN, INT32_MAX));
  EXPECT_EQ(parseNumber<int>("-2147483648", INT32_MIN, INT32_MAX), INT32_MIN);
}

TEST(Hash, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(hashCombine(0, 1), 2),
            hashCombine(hashCombine(0, 2), 1));
}

TEST(Hash, ValuesDistinguishLengths) {
  EXPECT_NE(hashValues({1}), hashValues({1, 0}));
  EXPECT_NE(hashValues({}), hashValues({0}));
}

TEST(Hash, NoTrivialCollisionsInSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(2);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng r(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.coin();
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(Rng, UnitIsInHalfOpenInterval) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Interner, SameStringSameId) {
  StringInterner in;
  EXPECT_EQ(in.intern("abc"), in.intern("abc"));
  EXPECT_NE(in.intern("abc"), in.intern("abd"));
}

TEST(Interner, RoundTrip) {
  StringInterner in;
  const auto id = in.intern("RegFile");
  EXPECT_EQ(in.str(id), "RegFile");
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, FindDoesNotInsert) {
  StringInterner in;
  EXPECT_EQ(in.find("missing"), StringInterner::kInvalid);
  EXPECT_EQ(in.size(), 0u);
}

TEST(Interner, ManyStringsStayStable) {
  StringInterner in;
  std::vector<StringInterner::Id> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(in.intern("s" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(in.str(ids[i]), "s" + std::to_string(i));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
  t.reset();
  EXPECT_LT(t.milliseconds(), 15.0);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(VELEV_CHECK(1 == 2), InternalError);
  EXPECT_NO_THROW(VELEV_CHECK(1 == 1));
}

TEST(Check, MessageIncludesDetail) {
  try {
    VELEV_CHECK_MSG(false, "slice " << 72);
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("slice 72"), std::string::npos);
  }
}

}  // namespace
}  // namespace velev
