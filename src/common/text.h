/// \file text.h
/// Small string utilities shared by the fixed name tables (devices, methods,
/// objectives, recipe policy keys): Levenshtein edit distance, the "did you
/// mean" suggestion every unknown-name error message appends, and the
/// by-name lookup that raises that error.

#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace boson {

/// Classic Levenshtein edit distance (insert/delete/substitute, each cost 1).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidate closest to `name` by edit distance, or "" when no candidate
/// is plausibly a typo (distance must not exceed `max_distance` nor half of
/// `name`'s length, so "xyz" never suggests an unrelated key).
std::string closest_match(const std::string& name,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance = 3);

/// "; did you mean 'X'?" when a plausible candidate exists, "" otherwise —
/// appended verbatim to unknown-name `bad_argument` messages.
std::string did_you_mean(const std::string& name,
                         const std::vector<std::string>& candidates);

/// Comma-join ("a, b, c") — the "(known: ...)" list of unknown-name errors.
std::string join_names(const std::vector<std::string>& names);

/// Throw bad_argument("<what> '<name>' (known: <known, sorted>; did you
/// mean ...?)") — the unknown-name error of every fixed name table.
[[noreturn]] void throw_unknown_name(const std::string& what, const std::string& name,
                                     std::vector<std::string> known);

/// The entry of `table` whose `name` member equals `name`; otherwise
/// `throw_unknown_name(what, name, <every entry's name>)`.
template <typename Table>
const auto& find_by_name(const Table& table, const std::string& name, const char* what) {
  for (const auto& entry : table)
    if (name == entry.name) return entry;
  std::vector<std::string> known;
  for (const auto& entry : table) known.emplace_back(entry.name);
  throw_unknown_name(what, name, std::move(known));
}

}  // namespace boson
