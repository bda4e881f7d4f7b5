#pragma once

// Strict field readers shared by the monitor's JSON codecs (link_table.cpp,
// health.cpp). Each throws std::runtime_error naming the document and the
// offending field, so a malformed document never decodes as a partial one.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "rpc/json.h"

namespace topo::monitor {

[[noreturn]] inline void bad_field(const char* doc, const std::string& field,
                                   const char* want) {
  throw std::runtime_error(std::string(doc) + ": field '" + field + "' must be " +
                           want);
}

inline double require_number(const rpc::Json& j, const char* doc, const std::string& field) {
  const rpc::Json& v = j[field];
  if (!v.is_number()) bad_field(doc, field, "a number");
  return v.as_number();
}

inline uint64_t require_uint(const rpc::Json& j, const char* doc, const std::string& field) {
  const std::optional<uint64_t> v = j[field].as_uint();
  if (!v) bad_field(doc, field, "a non-negative integer");
  return *v;
}

inline void require_schema(const rpc::Json& j, const char* doc, const char* schema) {
  if (!j.is_object()) throw std::runtime_error(std::string(doc) + ": not an object");
  if (!j["schema"].is_string() || j["schema"].as_string() != schema)
    bad_field(doc, "schema", schema);
}

}  // namespace topo::monitor
