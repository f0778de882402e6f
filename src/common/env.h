#pragma once

#include <cstddef>
#include <string>

namespace boson {

/// Read environment variable `name`; return `fallback` when unset or empty.
std::string env_string(const char* name, const std::string& fallback);

/// Read an integer environment variable; returns `fallback` when unset or
/// unparsable. Used for knobs such as BOSON_THREADS.
long env_int(const char* name, long fallback);

/// Read a floating-point environment variable.
double env_double(const char* name, double fallback);

/// True when the variable is set to a truthy value ("1", "true", "yes", "on").
bool env_flag(const char* name, bool fallback = false);

}  // namespace boson
