#include "common/escape.hh"

namespace tb {

void
appendJsonString(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\')
            out += {'\\', c};
        else if (c == '\n' || c == '\t')
            out += {'\\', c == '\n' ? 'n' : 't'};
        else if (u < 0x20)
            out += {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 15]};
        else
            out += c;
    }
    out += '"';
}

void
appendCsvField(std::string &out, const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

} // namespace tb
