// Utils: result tables (the bench output format), formatting, logging
// levels, and the stopwatch.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "utils/logging.hpp"
#include "utils/stopwatch.hpp"
#include "utils/table.hpp"

namespace bayesft {
namespace {

TEST(FormatDouble, FixedDecimals) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(2.0, 0), "2");
    EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(ResultTable, RequiresColumns) {
    EXPECT_THROW(ResultTable("t", {}), std::invalid_argument);
}

TEST(ResultTable, RowWidthValidated) {
    ResultTable table("t", {"a", "b"});
    EXPECT_NO_THROW(table.add_row({1.0, 2.0}));
    EXPECT_THROW(table.add_row({1.0}), std::invalid_argument);
    EXPECT_THROW(table.add_text_row({"x", "y", "z"}), std::invalid_argument);
    EXPECT_EQ(table.row_count(), 1U);
}

TEST(ResultTable, CellAccessAndPrecision) {
    ResultTable table("t", {"a"});
    table.set_precision(3);
    table.add_row({1.23456});
    EXPECT_EQ(table.cell(0, 0), "1.235");
    EXPECT_THROW(table.cell(1, 0), std::out_of_range);
    EXPECT_THROW(table.set_precision(-1), std::invalid_argument);
}

TEST(ResultTable, TextRenderingContainsEverything) {
    ResultTable table("My Title", {"sigma", "acc"});
    table.add_row({0.5, 97.25});
    const std::string text = table.to_text();
    EXPECT_NE(text.find("My Title"), std::string::npos);
    EXPECT_NE(text.find("sigma"), std::string::npos);
    EXPECT_NE(text.find("97.25"), std::string::npos);
}

TEST(ResultTable, CsvEscapesSpecialCells) {
    ResultTable table("t", {"name", "value"});
    table.add_text_row({"has,comma", "has\"quote"});
    const std::string csv = table.to_csv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(ResultTable, CsvRoundTripStructure) {
    ResultTable table("t", {"a", "b"});
    table.add_row({1.0, 2.0});
    table.add_row({3.0, 4.0});
    const std::string csv = table.to_csv();
    std::size_t lines = 0;
    for (char ch : csv) {
        if (ch == '\n') ++lines;
    }
    EXPECT_EQ(lines, 3U);  // header + 2 rows
}

TEST(ResultTable, SaveCsvWritesFile) {
    ResultTable table("t", {"a"});
    table.add_row({42.0});
    const std::string path = "/tmp/bayesft_table_test.csv";
    table.save_csv(path);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "a");
    std::remove(path.c_str());
    EXPECT_THROW(table.save_csv("/nonexistent-dir/x.csv"),
                 std::runtime_error);
}

TEST(ResultTable, StreamOperatorMatchesToText) {
    ResultTable table("t", {"a"});
    table.add_row({1.0});
    std::ostringstream os;
    os << table;
    EXPECT_EQ(os.str(), table.to_text());
}

TEST(Logging, LevelFiltering) {
    const LogLevel saved = log_level();
    set_log_level(LogLevel::Error);
    EXPECT_EQ(log_level(), LogLevel::Error);
    // Below-threshold messages must not crash and are silently dropped.
    log_debug() << "dropped " << 42;
    log_info() << "dropped too";
    set_log_level(saved);
}

TEST(Logging, OffSilencesEverything) {
    const LogLevel saved = log_level();
    set_log_level(LogLevel::Off);
    log_error() << "also dropped";
    set_log_level(saved);
    SUCCEED();
}

TEST(Stopwatch, MeasuresElapsedTime) {
    Stopwatch watch;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    EXPECT_GT(watch.seconds(), 0.0);
    EXPECT_NEAR(watch.millis(), watch.seconds() * 1e3,
                watch.seconds() * 1e3 * 0.5);
    const double before = watch.seconds();
    watch.reset();
    EXPECT_LT(watch.seconds(), before + 1.0);
}

}  // namespace
}  // namespace bayesft
