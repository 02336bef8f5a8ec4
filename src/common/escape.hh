/**
 * @file
 * The one string escaper per text format the repository writes: JSON
 * string literals (the session and fleet reports, Chrome traces) and
 * CSV fields (the report exporters and Table::printCsv).
 */

#ifndef TRAINBOX_COMMON_ESCAPE_HH
#define TRAINBOX_COMMON_ESCAPE_HH

#include <string>

namespace tb {

/**
 * Append @p s to @p out as a quoted JSON string. A double quote and a
 * backslash get a backslash, newline and tab become \n and \t, and
 * every other byte below 0x20 becomes \u00XX; all else is copied.
 */
void appendJsonString(std::string &out, const std::string &s);

/**
 * Append @p s to @p out as one CSV field (RFC 4180): quoted, with each
 * inner quote doubled, when it holds a comma, a double quote or a line
 * break; copied as it is otherwise.
 */
void appendCsvField(std::string &out, const std::string &s);

} // namespace tb

#endif // TRAINBOX_COMMON_ESCAPE_HH
