// json.hpp — the one JSON string escaper and the one strict validator.
//
// Every JSON writer in the tree (trace/metric exports, BENCH_*.json
// reports, the lint and model-checker reports) escapes strings through
// json_escape, so hostile event names, file paths or finding messages come
// out the same, and valid, everywhere.  Every reader that checks a
// document's shape (the JSONL export check, trace_demo, bench_json_check)
// goes through validate_json, and every reader that picks a value out of a
// flat record line (chaos replays, the JSONL checks) through json_field.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace xunet::util {

/// Escape `s` for embedding in a JSON string (quotes not included): quote
/// and backslash, the named control escapes, and every other byte below
/// 0x20 as \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Strict RFC 8259 check of one JSON document: objects, arrays, strings,
/// numbers, true/false/null, and nothing after the value but whitespace.
/// Trailing commas, missing values, NaN/Infinity, leading zeros and raw
/// control bytes inside strings are rejected.  protocol_error when
/// malformed.
[[nodiscard]] Result<void> validate_json(std::string_view text);

/// The value of the first `"key":` in one flat JSON record line, whitespace
/// after the colon allowed: a string's text (unquoted, unescaped) or a
/// scalar's text up to the next ',' or '}'.  nullopt when the key is absent,
/// or with `string_only` when the value is not a string.  Only suitable for
/// the tree's own records, whose strings never contain escaped quotes.
[[nodiscard]] std::optional<std::string> json_field(std::string_view line,
                                                    std::string_view key,
                                                    bool string_only = false);

}  // namespace xunet::util
