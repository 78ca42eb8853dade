// Common utilities: RNG determinism, tables, intrusive lists, id sets.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "src/common/id_set.h"
#include "src/common/intrusive_list.h"
#include "src/common/rng.h"
#include "src/common/table.h"

namespace sa::common {
namespace {

// ---- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BelowCoversTheRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.Below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoublesAreInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanIsPlausible) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Uniform(10, 20);
  }
  EXPECT_NEAR(sum / kN, 15.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// Regression: Range used to compute `hi - lo` in int64 — signed-overflow UB
// for any span wider than 2^63.  The span is now computed in uint64, so the
// widest possible ranges are well defined; run this under SA_SANITIZE=undefined
// to make the old bug trap instead of silently wrapping.
TEST(Rng, RangeSurvivesWidestSpansWithoutOverflow) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(13);
  // Full 64-bit range: every word is a valid draw; just exercise it.
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.Range(kMin, kMax);
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // One-short-of-full span (span + 1 must not wrap Below's bound to 0).
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.Range(kMin, kMax - 1);
    EXPECT_LE(v, kMax - 1);
  }
  // Spans straddling zero but wider than 2^63: the old int64 subtraction
  // overflowed here too.
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.Range(kMin / 2 - 7, kMax / 2 + 9);
    EXPECT_GE(v, kMin / 2 - 7);
    EXPECT_LE(v, kMax / 2 + 9);
  }
  // Degenerate single-point range.
  EXPECT_EQ(rng.Range(kMax, kMax), kMax);
  EXPECT_EQ(rng.Range(kMin, kMin), kMin);
}

TEST(Rng, RangeIsDeterministicAcrossWideAndNarrowSpans) {
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Range(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()),
              b.Range(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()));
    EXPECT_EQ(a.Range(-5, 5), b.Range(-5, 5));
  }
}

// ---- table ----

TEST(Table, RendersHeaderAndAlignment) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "10"});
  t.AddRow({"b", "2000"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numbers are right-aligned: "2000" ends at the same column as "value"+pad.
  EXPECT_NE(out.find("  2000"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(42.0), "42");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find('x'), std::string::npos);
}

// ---- intrusive list ----

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
  ListNode node;
};

using ItemList = IntrusiveList<Item, &Item::node>;

TEST(IntrusiveList, PushPopFifo) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveList, PushFrontIsLifo) {
  ItemList list;
  Item a(1), b(2);
  list.PushFront(&a);
  list.PushFront(&b);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 1);
}

TEST(IntrusiveList, RemoveFromMiddle) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_TRUE(list.Contains(&b));
  list.Remove(&b);
  EXPECT_FALSE(list.Contains(&b));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.PopBack()->value, 3);
  EXPECT_EQ(list.PopBack()->value, 1);
}

TEST(IntrusiveList, ElementMovesBetweenLists) {
  ItemList x, y;
  Item a(1);
  x.PushBack(&a);
  x.Remove(&a);
  y.PushBack(&a);
  EXPECT_TRUE(y.Contains(&a));
  EXPECT_TRUE(x.empty());
}

TEST(IntrusiveList, Iteration) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  int sum = 0;
  for (Item* item : list) {
    sum += item->value;
  }
  EXPECT_EQ(sum, 6);
}

// ---- IdSet ----

TEST(IdSet, InsertAndEraseAreIdempotent) {
  IdSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(set.Erase(3));  // never inserted, beyond every word
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_EQ(set.size(), 1);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_TRUE(set.Erase(3));
  EXPECT_FALSE(set.Erase(3));
  EXPECT_EQ(set.size(), 0);
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(3));
}

// Ids on both sides of 64-bit word boundaries, inserted out of order: the
// walk visits them in increasing id order, and the count follows every
// insert and erase against a std::set.
TEST(IdSet, WalksInIdOrderAcrossWordBoundaries) {
  IdSet set;
  std::set<int> model;
  const std::vector<int> ids = {200, 0, 63, 64, 127, 1, 128, 191, 192, 65, 255, 62};
  for (int id : ids) {
    EXPECT_EQ(set.Insert(id), model.insert(id).second);
    EXPECT_EQ(set.size(), static_cast<int>(model.size()));
  }
  std::vector<int> walked;
  set.ForEach([&](int id) { walked.push_back(id); });
  EXPECT_EQ(walked, std::vector<int>(model.begin(), model.end()));
  for (int id : {64, 0, 255, 5, 128}) {
    EXPECT_EQ(set.Erase(id), model.erase(id) == 1);
    EXPECT_EQ(set.size(), static_cast<int>(model.size()));
  }
  std::vector<int> copied = {-1, -2};  // replaced, not appended to
  set.CopyTo(&copied);
  EXPECT_EQ(copied, std::vector<int>(model.begin(), model.end()));
  for (int id = 0; id < 300; ++id) {
    EXPECT_EQ(set.Contains(id), model.count(id) == 1) << id;
  }
}

}  // namespace
}  // namespace sa::common
