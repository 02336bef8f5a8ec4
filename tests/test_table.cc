/**
 * @file
 * Tests for the table formatter.
 */

#include <gtest/gtest.h>

#include "common/table.hh"

namespace tb {
namespace {

TEST(Table, CellsRoundTrip)
{
    Table t({"a", "b", "c"});
    t.row().add("x").add(1.5, 2).add(static_cast<long long>(7));
    t.row().add("y").add(2.25, 1).add(static_cast<long long>(-3));
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.cell(0, 0), "x");
    EXPECT_EQ(t.cell(0, 1), "1.50");
    EXPECT_EQ(t.cell(0, 2), "7");
    EXPECT_EQ(t.cell(1, 1), "2.2");
    EXPECT_EQ(t.cell(1, 2), "-3");
}

TEST(Table, FormatDouble)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(3.0, 0), "3");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(Table, PrintsAlignedOutput)
{
    Table t({"name", "value"});
    t.row().add("alpha").add(static_cast<long long>(1));
    char buf[256] = {0};
    std::FILE *mem = fmemopen(buf, sizeof(buf), "w");
    t.print(mem);
    std::fclose(mem);
    const std::string out(buf);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, PrintsCsv)
{
    Table t({"a", "b"});
    t.row().add("1").add("2");
    char buf[128] = {0};
    std::FILE *mem = fmemopen(buf, sizeof(buf), "w");
    t.printCsv(mem);
    std::fclose(mem);
    EXPECT_EQ(std::string(buf), "a,b\n1,2\n");
}

TEST(Table, PrintsCsvQuotingOnlyWhereNeeded)
{
    Table t({"name", "note"});
    t.row().add("a,b").add("say \"hi\"");
    t.row().add("two\nlines").add("plain");
    char buf[128] = {0};
    std::FILE *mem = fmemopen(buf, sizeof(buf), "w");
    t.printCsv(mem);
    std::fclose(mem);
    EXPECT_EQ(std::string(buf), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
                                "\"two\nlines\",plain\n");
}

} // namespace
} // namespace tb
