/**
 * @file
 * Base-library tests: strings, statistics, tables, and the NAS
 * pseudo-random generator EP depends on.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "base/stats.hh"
#include "base/strings.hh"
#include "base/table.hh"

using namespace ap;

// --------------------------------------------------------------- strings

TEST(Strings, TrimStripsBothEnds)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t x \n"), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto v = split("a,,b,", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
    EXPECT_EQ(v[3], "");
}

TEST(Strings, SplitWsDropsRuns)
{
    auto v = split_ws("  foo\t bar \nbaz ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "foo");
    EXPECT_EQ(v[2], "baz");
}

TEST(Strings, ParseDoubleRejectsGarbage)
{
    EXPECT_DOUBLE_EQ(*parse_double("0.125"), 0.125);
    EXPECT_DOUBLE_EQ(*parse_double(" 20.0 "), 20.0);
    EXPECT_FALSE(parse_double("12x").has_value());
    EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ParseIntRejectsGarbage)
{
    EXPECT_EQ(*parse_int("-42"), -42);
    EXPECT_FALSE(parse_int("1.5").has_value());
    EXPECT_FALSE(parse_int("ten").has_value());
}

// ------------------------------------------------------------------ stats

TEST(Accumulator, TracksMinMaxMean)
{
    Accumulator a;
    for (double v : {3.0, 1.0, 2.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Accumulator, SingleSampleIsItsOwnExtremes)
{
    // The first sample must overwrite the zero-initialized min/max —
    // a negative or large first value exposes any min(0,v) shortcut.
    Accumulator a;
    a.sample(-7.5);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), -7.5);
    EXPECT_DOUBLE_EQ(a.max(), -7.5);
    EXPECT_DOUBLE_EQ(a.mean(), -7.5);
    EXPECT_DOUBLE_EQ(a.sum(), -7.5);
}

TEST(Accumulator, ResetReturnsToEmptySemantics)
{
    Accumulator a;
    a.sample(3.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(-1.0); // post-reset first sample sets both extremes
    EXPECT_DOUBLE_EQ(a.max(), -1.0);
}

TEST(Accumulator, MergeWithEmptySidesIsSafe)
{
    Accumulator empty1, empty2;
    empty1.merge(empty2); // empty + empty
    EXPECT_EQ(empty1.count(), 0u);
    EXPECT_DOUBLE_EQ(empty1.mean(), 0.0);

    Accumulator a;
    a.sample(5.0);
    a.merge(empty2); // non-empty + empty keeps values
    EXPECT_DOUBLE_EQ(a.min(), 5.0);

    Accumulator b;
    b.merge(a); // empty + non-empty adopts values
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.max(), 5.0);
}

TEST(Histogram, EmptyScalarIsZero)
{
    Histogram h;
    EXPECT_TRUE(h.buckets().empty());
    EXPECT_EQ(h.scalar().count(), 0u);
    EXPECT_DOUBLE_EQ(h.scalar().mean(), 0.0);
}

TEST(Accumulator, MergeEqualsCombinedStream)
{
    Accumulator a, b, all;
    for (int i = 0; i < 10; ++i) {
        (i % 2 ? a : b).sample(i);
        all.sample(i);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, PowerOfTwoBuckets)
{
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 1);
    EXPECT_EQ(Histogram::bucket_of(2), 2);
    EXPECT_EQ(Histogram::bucket_of(3), 2);
    EXPECT_EQ(Histogram::bucket_of(4), 3);
    EXPECT_EQ(Histogram::bucket_of(1024), 11);
}

TEST(Histogram, CountsLandInBuckets)
{
    Histogram h;
    h.sample(1);
    h.sample(3);
    h.sample(3);
    h.sample(700);
    // Sized to the highest bucket sampled; interior buckets read 0.
    EXPECT_EQ(h.buckets(),
              (std::vector<std::uint64_t>{0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1}));
    EXPECT_EQ(h.scalar().count(), 4u);

    // Every uint64_t has a bucket; the largest lands in bucket 64.
    h.sample(~std::uint64_t{0});
    ASSERT_EQ(h.buckets().size(), 65u);
    EXPECT_EQ(h.buckets()[64], 1u);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns)
{
    Table t({"a", "long-header"});
    t.add_row({"xx", "1"});
    t.title("T");
    std::string s = t.str();
    EXPECT_NE(s.find("| a  | long-header |"), std::string::npos);
    EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
    EXPECT_EQ(s.find("T\n"), 0u);
}

TEST(TableDeath, WrongCellCountPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.add_row({"only-one"}), "cells");
}

// ----------------------------------------------------------------- random

TEST(Random, Deterministic)
{
    Random a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, UniformInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(NasLcg, MatchesDefinition)
{
    // x1 = 5^13 * 271828183 mod 2^46, computed independently.
    NasLcg g;
    unsigned __int128 x =
        static_cast<unsigned __int128>(1220703125ull) * 271828183ull;
    std::uint64_t expect =
        static_cast<std::uint64_t>(x & ((std::uint64_t{1} << 46) - 1));
    EXPECT_EQ(g.next(), expect);
}

TEST(NasLcg, SkipEqualsStepping)
{
    // The O(log n) jump must land exactly where n sequential steps do
    // — this is what gives each EP cell its disjoint slice.
    NasLcg a, b;
    for (int i = 0; i < 1000; ++i)
        a.next();
    b.skip(1000);
    EXPECT_EQ(a.state(), b.state());
}

TEST(NasLcg, DoublesInUnitInterval)
{
    NasLcg g;
    for (int i = 0; i < 100; ++i) {
        double d = g.next_double();
        EXPECT_GT(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}
