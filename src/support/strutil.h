/**
 * @file
 * Small string formatting helpers (printf-style into std::string).
 */

#ifndef BEEHIVE_SUPPORT_STRUTIL_H
#define BEEHIVE_SUPPORT_STRUTIL_H

#include <cstdarg>
#include <string>
#include <vector>

namespace beehive {

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** strprintf() over an already-started argument list. */
std::string vstrprintf(const char *fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> splitString(const std::string &s, char sep);

/** True if @p s begins with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Render a byte count as a human-readable string ("12.3 MB"). */
std::string humanBytes(std::size_t bytes);

} // namespace beehive

#endif // BEEHIVE_SUPPORT_STRUTIL_H
