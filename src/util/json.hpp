// json.hpp — the one JSON string escaper.
//
// Every JSON writer in the tree (trace/metric exports, BENCH_*.json
// reports, the lint and model-checker reports) escapes strings through
// this function, so hostile event names, file paths or finding messages
// come out the same, and valid, everywhere.
#pragma once

#include <string>
#include <string_view>

namespace xunet::util {

/// Escape `s` for embedding in a JSON string (quotes not included): quote
/// and backslash, the named control escapes, and every other byte below
/// 0x20 as \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace xunet::util
