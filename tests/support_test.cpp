#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>
#include <thread>

#include "support/csv.hpp"
#include "support/diagnostics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ks = kojak::support;

// ---------------------------------------------------------------------------
// RunningStats

TEST(RunningStats, EmptyIsZero) {
  ks::RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev_sample(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  ks::RunningStats stats;
  stats.push(42.0, 7);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_DOUBLE_EQ(stats.stddev_sample(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 42.0);
  EXPECT_DOUBLE_EQ(stats.max(), 42.0);
  EXPECT_EQ(stats.min_tag(), 7u);
  EXPECT_EQ(stats.max_tag(), 7u);
}

TEST(RunningStats, MatchesNaiveFormulas) {
  const std::vector<double> xs = {3.0, 1.5, 9.25, -2.0, 4.0, 4.0, 17.5};
  ks::RunningStats stats;
  for (std::size_t i = 0; i < xs.size(); ++i) stats.push(xs[i], i);

  const double n = static_cast<double>(xs.size());
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / n;
  double ss = 0;
  for (double x : xs) ss += (x - mean) * (x - mean);

  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance_population(), ss / n, 1e-12);
  EXPECT_NEAR(stats.variance_sample(), ss / (n - 1), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 17.5);
  EXPECT_EQ(stats.min_tag(), 3u);
  EXPECT_EQ(stats.max_tag(), 6u);
  EXPECT_NEAR(stats.sum(), mean * n, 1e-9);
}

TEST(RunningStats, MinMaxTagKeepsFirstExtreme) {
  ks::RunningStats stats;
  stats.push(5.0, 0);
  stats.push(5.0, 1);  // equal: strict < keeps the first
  EXPECT_EQ(stats.min_tag(), 0u);
  EXPECT_EQ(stats.max_tag(), 0u);
}

TEST(RunningStats, MergeEqualsSequential) {
  std::vector<double> xs(257);
  ks::Rng rng(17);
  for (double& x : xs) x = rng.normal(10.0, 4.0);

  ks::RunningStats all;
  for (std::size_t i = 0; i < xs.size(); ++i) all.push(xs[i], i);

  ks::RunningStats a, b;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 100 ? a : b).push(xs[i], i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance_sample(), all.variance_sample(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_EQ(a.min_tag(), all.min_tag());
  EXPECT_EQ(a.max_tag(), all.max_tag());
}

TEST(RunningStats, MergeWithEmpty) {
  ks::RunningStats a, b;
  a.push(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// ---------------------------------------------------------------------------
// String helpers

TEST(Str, Trim) {
  EXPECT_EQ(ks::trim("  a b  "), "a b");
  EXPECT_EQ(ks::trim("\t\n x \r"), "x");
  EXPECT_EQ(ks::trim(""), "");
  EXPECT_EQ(ks::trim("   "), "");
}

TEST(Str, Split) {
  EXPECT_EQ(ks::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ks::split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ks::split("", ','), (std::vector<std::string>{""}));
}

TEST(Str, SplitWs) {
  EXPECT_EQ(ks::split_ws("  a\tb  c\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(ks::split_ws("   ").empty());
}

TEST(Str, JoinAndCase) {
  EXPECT_EQ(ks::join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(ks::join({}, ","), "");
  EXPECT_EQ(ks::to_lower("AbC"), "abc");
  EXPECT_EQ(ks::to_upper("AbC"), "ABC");
  EXPECT_TRUE(ks::iequals("SELECT", "select"));
  EXPECT_FALSE(ks::iequals("SELECT", "selec"));
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(ks::starts_with("REGION main", "REGION "));
  EXPECT_FALSE(ks::starts_with("REG", "REGION"));
  EXPECT_TRUE(ks::ends_with("file.asl", ".asl"));
  EXPECT_FALSE(ks::ends_with(".asl", "file.asl"));
}

TEST(Str, SqlQuote) {
  EXPECT_EQ(ks::sql_quote("abc"), "'abc'");
  EXPECT_EQ(ks::sql_quote("o'brien"), "'o''brien'");
  EXPECT_EQ(ks::sql_quote(""), "''");
}

TEST(Str, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -3.25, 1e-9, 123456789.123456, 2.0 / 3.0}) {
    EXPECT_DOUBLE_EQ(std::stod(ks::format_double(v)), v);
  }
}

TEST(Str, Cat) {
  EXPECT_EQ(ks::cat("a", 1, '-', 2.5), "a1-2.5");
  EXPECT_EQ(ks::cat(), "");
}

// ---------------------------------------------------------------------------
// Diagnostics

TEST(Diagnostics, CollectsAndCounts) {
  ks::DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({1, 2, 0}, "w");
  EXPECT_FALSE(diags.has_errors());
  diags.error({2, 3, 0}, "e");
  diags.note({2, 4, 0}, "n");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, RenderWithCaret) {
  ks::DiagnosticEngine diags;
  diags.error({2, 5, 0}, "bad token");
  const std::string out = diags.render("line one\nline two here\n");
  EXPECT_NE(out.find("2:5: error: bad token"), std::string::npos);
  EXPECT_NE(out.find("line two here"), std::string::npos);
  EXPECT_NE(out.find("    ^"), std::string::npos);
}

TEST(Diagnostics, Clear) {
  ks::DiagnosticEngine diags;
  diags.error({}, "x");
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.diagnostics().empty());
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, Deterministic) {
  ks::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformBounds) {
  ks::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalAtLeastClamps) {
  ks::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normal_at_least(0.0, 10.0, 0.5), 0.5);
  }
}

TEST(Rng, ForkIndependent) {
  ks::Rng a(5);
  ks::Rng child = a.fork();
  // The fork must not replay the parent's stream.
  ks::Rng b(5);
  (void)b.fork();
  EXPECT_NE(child.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

// ---------------------------------------------------------------------------
// TablePrinter

TEST(TablePrinter, AlignsColumns) {
  ks::TablePrinter table;
  table.add_column("name").add_column("n", ks::TablePrinter::Align::kRight);
  table.add_row({"alpha", "1"});
  table.add_row({"b", "100"});
  const std::string out = table.render();
  EXPECT_NE(out.find("alpha    1"), std::string::npos);
  EXPECT_NE(out.find("b      100"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TablePrinter, MissingAndSurplusCells) {
  ks::TablePrinter table;
  table.add_column("a").add_column("b");
  table.add_row({"only"});
  table.add_row({"x", "y", "ignored"});
  const std::string out = table.render();
  EXPECT_NE(out.find("only"), std::string::npos);
  EXPECT_EQ(out.find("ignored"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSV

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(ks::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(ks::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(ks::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriteAndParseRoundTrip) {
  std::ostringstream out;
  ks::CsvWriter writer(out);
  writer.write_row({"a", "with,comma", "with \"quote\""});
  const std::string line = out.str().substr(0, out.str().size() - 1);
  const auto fields = ks::parse_csv_line(line);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with \"quote\"");
}

TEST(Csv, ParsePlainLine) {
  const auto fields = ks::parse_csv_line("1,2,3");
  EXPECT_EQ(fields, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(ks::parse_csv_line(""), (std::vector<std::string>{""}));
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ks::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 0,
                    [&](std::size_t i, std::size_t) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ks::ThreadPool pool(2);
  pool.parallel_for(0, 0, [](std::size_t, std::size_t) { FAIL(); });
  pool.parallel_for(0, 8, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrows) {
  ks::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16, 0,
                                 [](std::size_t i, std::size_t) {
                                   if (i == 7) throw ks::Error("x");
                                 }),
               ks::Error);
}

TEST(ThreadPool, ParallelForWorkerIdsBelowTaskCount) {
  ks::ThreadPool pool(4);
  struct Shape {
    std::size_t n;
    std::size_t workers;
    std::size_t tasks;  // min(workers or size(), n)
  };
  // workers > n, workers > size(), workers == 0 and a single task.
  for (const Shape shape : {Shape{1000, 0, 4}, Shape{1000, 2, 2},
                            Shape{3, 16, 3}, Shape{100, 8, 8},
                            Shape{5, 1, 1}}) {
    // Each index is written once; an index never run keeps n >= tasks.
    std::vector<std::size_t> worker_of(shape.n, shape.n);
    pool.parallel_for(shape.n, shape.workers,
                      [&](std::size_t i, std::size_t worker) {
                        worker_of[i] = worker;
                      });
    for (const std::size_t worker : worker_of) {
      EXPECT_LT(worker, shape.tasks)
          << shape.n << " indices, " << shape.workers << " workers";
    }
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // Index 5 fails late, 20 and 40 fail early: whatever the schedule, the
  // caller sees index 5's error (the serial loop's), and every index below
  // it ran.
  ks::ThreadPool pool(4);
  for (int repeat = 0; repeat < 50; ++repeat) {
    std::vector<std::atomic<int>> ran(64);
    try {
      pool.parallel_for(ran.size(), 0, [&](std::size_t i, std::size_t) {
        ran[i]++;
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          throw ks::Error("index 5");
        }
        if (i == 20 || i == 40) throw ks::Error(ks::cat("index ", i));
      });
      FAIL() << "no exception";
    } catch (const ks::Error& error) {
      EXPECT_STREQ(error.what(), "index 5") << "run " << repeat;
    }
    for (std::size_t i = 0; i <= 5; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from one of the pool's own workers runs inline on
  // that worker: with both workers of the 2-thread pool busy in the outer
  // loop, neither could wait for tasks it would have to run itself.
  ks::ThreadPool pool(2);
  EXPECT_FALSE(pool.owns_current_thread());
  std::vector<std::vector<std::size_t>> orders(2);
  std::atomic<int> off_thread{0};
  pool.parallel_for(2, 2, [&](std::size_t outer_i, std::size_t) {
    EXPECT_TRUE(pool.owns_current_thread());
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(10, 4, [&](std::size_t i, std::size_t worker) {
      if (std::this_thread::get_id() != outer || worker != 0) off_thread++;
      orders[outer_i].push_back(i);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  for (const std::vector<std::size_t>& order : orders) {
    EXPECT_EQ(order, expected);
  }
}

// ---------------------------------------------------------------------------
// Errors

TEST(Errors, ParseErrorCarriesLocation) {
  const ks::ParseError error("unexpected token", {3, 9, 42});
  EXPECT_EQ(error.loc().line, 3u);
  EXPECT_NE(std::string(error.what()).find("3:9"), std::string::npos);
}

TEST(Errors, HierarchyCatchableAsBase) {
  try {
    throw ks::EvalError("x");
  } catch (const ks::Error& e) {
    EXPECT_STREQ(e.what(), "x");
  }
}
