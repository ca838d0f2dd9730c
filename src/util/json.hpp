// JSON string escaping shared by every JSON document the library writes
// (reports, build info, Chrome-trace exports), so a name carrying a quote,
// a backslash or a control character never breaks a parser downstream.
#pragma once

#include <string>
#include <string_view>

namespace recloud {

/// Appends `text` to `out` as a quoted JSON string: `"` and `\` escaped,
/// control characters as \n, \r, \t or \u00XX.
void append_json_string(std::string& out, std::string_view text);

/// `text` as a quoted JSON string (see append_json_string).
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace recloud
