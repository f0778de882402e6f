#include "common/text.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace boson {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Single-row dynamic program: row[j] holds the distance between a's first
  // i characters and b's first j characters.
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

std::string closest_match(const std::string& name,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance) {
  std::string best;
  std::size_t best_distance = max_distance + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  // A suggestion that rewrites more than half the typed name is noise, not a
  // typo fix.
  if (best_distance * 2 > std::max<std::size_t>(1, name.size())) return "";
  return best;
}

std::string did_you_mean(const std::string& name,
                         const std::vector<std::string>& candidates) {
  const std::string suggestion = closest_match(name, candidates);
  if (suggestion.empty()) return "";
  return "; did you mean '" + suggestion + "'?";
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void throw_unknown_name(const std::string& what, const std::string& name,
                        std::vector<std::string> known) {
  std::sort(known.begin(), known.end());
  throw bad_argument(what + " '" + name + "' (known: " + join_names(known) +
                     did_you_mean(name, known) + ")");
}

}  // namespace boson
