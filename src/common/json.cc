#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace neurocube
{

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '<' || (unsigned char)c < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                          unsigned((unsigned char)c));
            out += escaped;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace neurocube
