#include "src/obs/json.h"

#include <cmath>

#include "src/support/check.h"
#include "src/support/flat_json.h"
#include "src/support/str_util.h"

namespace icarus::obs {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_in_container_.empty()) {
    return;  // Top-level value.
  }
  if (!first_in_container_.back()) {
    out_.push_back(',');
  }
  first_in_container_.back() = false;
}

void JsonWriter::AppendEscaped(std::string_view s) {
  icarus::AppendJsonString(s, &out_);
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  ICARUS_REQUIRE(!first_in_container_.empty());
  first_in_container_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  ICARUS_REQUIRE(!first_in_container_.empty());
  first_in_container_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  ICARUS_REQUIRE(!first_in_container_.empty());
  if (!first_in_container_.back()) {
    out_.push_back(',');
  }
  first_in_container_.back() = false;
  AppendEscaped(key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendEscaped(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
  } else {
    out_ += StrFormat("%.17g", value);
  }
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

}  // namespace icarus::obs
