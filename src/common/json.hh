/**
 * @file
 * The two scalar formatters every hand-written JSON document in the
 * simulator uses, so numbers and names are spelled one way everywhere.
 */

#ifndef NEUROCUBE_COMMON_JSON_HH
#define NEUROCUBE_COMMON_JSON_HH

#include <string>

namespace neurocube
{

/**
 * A double as a JSON number: 12 significant digits (enough that
 * per-class fractions re-sum to 1.0), and "0" for NaN or infinity,
 * which JSON cannot spell.
 */
std::string jsonNumber(double value);

/**
 * A string as a quoted JSON literal. Quotes, backslashes and control
 * characters are escaped, and so is '<', so a document can sit inside
 * an HTML <script> block without closing it.
 */
std::string jsonString(const std::string &s);

} // namespace neurocube

#endif // NEUROCUBE_COMMON_JSON_HH
