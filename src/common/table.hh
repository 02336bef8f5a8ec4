/**
 * @file
 * Minimal table formatter used by the benchmark harness to print
 * paper-style rows, both as aligned ASCII and as CSV.
 */

#ifndef TRAINBOX_COMMON_TABLE_HH
#define TRAINBOX_COMMON_TABLE_HH

#include <cstdio>
#include <string>
#include <vector>

namespace tb {

/**
 * A simple column-aligned table. Cells are strings; numeric helpers format
 * with a fixed precision. Rows are printed on demand.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row. Subsequent add() calls fill cells left to right. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &add(std::string cell);

    /** Append a formatted double cell. */
    Table &add(double value, int precision = 3);

    /** Append an integer cell. */
    Table &add(long long value);
    Table &add(int value) { return add(static_cast<long long>(value)); }
    Table &add(std::size_t value)
    {
        return add(static_cast<long long>(value));
    }

    /** Print as aligned ASCII to @p out (default stdout). */
    void print(std::FILE *out = stdout) const;

    /** Print as CSV to @p out (cells quoted per RFC 4180 where needed). */
    void printCsv(std::FILE *out = stdout) const;

    /** Number of data rows so far. */
    std::size_t numRows() const { return rows_.size(); }

    /** Access to a cell (row-major), for tests. */
    const std::string &cell(std::size_t row, std::size_t col) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given precision into a string. */
std::string formatDouble(double value, int precision = 3);

} // namespace tb

#endif // TRAINBOX_COMMON_TABLE_HH
