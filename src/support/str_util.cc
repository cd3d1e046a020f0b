#include "src/support/str_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace icarus {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string ReplaceAll(std::string_view text, std::string_view from, std::string_view to) {
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos || from.empty()) {
      out.append(text.substr(start));
      break;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::string Indent(std::string_view text, int spaces) {
  std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find('\n', start);
    std::string_view line = (pos == std::string_view::npos) ? text.substr(start)
                                                            : text.substr(start, pos - start);
    if (!line.empty()) {
      out.append(pad);
      out.append(line);
    }
    if (pos == std::string_view::npos) {
      break;
    }
    out.push_back('\n');
    start = pos + 1;
  }
  return out;
}

int CountNonBlankLines(std::string_view text) {
  int count = 0;
  for (const std::string& line : Split(text, '\n')) {
    if (!StripWhitespace(line).empty()) {
      ++count;
    }
  }
  return count;
}

namespace {

// strtoll/strtod skip leading whitespace; a flag value that starts with it
// (or is empty) is malformed here.
bool StartsWithNumberChar(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text[0])) == 0;
}

}  // namespace

Status ParseInt64(std::string_view text, int64_t lo, int64_t hi, int64_t* out) {
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(buf.c_str(), &end, 10);
  if (!StartsWithNumberChar(buf) || end != buf.c_str() + buf.size()) {
    return Status::Error(StrCat("'", buf, "' is not an integer"));
  }
  if (errno == ERANGE) {
    return Status::Error(StrCat("'", buf, "' overflows a 64-bit integer"));
  }
  if (value < lo || value > hi) {
    return Status::Error(StrCat("'", buf, "' is outside [", lo, ", ", hi, "]"));
  }
  *out = value;
  return Status::Ok();
}

Status ParseDouble(std::string_view text, double lo, double hi, double* out) {
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buf.c_str(), &end);
  if (!StartsWithNumberChar(buf) || end != buf.c_str() + buf.size()) {
    return Status::Error(StrCat("'", buf, "' is not a number"));
  }
  if (errno == ERANGE) {
    return Status::Error(StrCat("'", buf, "' is out of double range"));
  }
  if (!(value >= lo && value <= hi)) {
    return Status::Error(StrCat("'", buf, "' is outside [", lo, ", ", hi, "]"));
  }
  *out = value;
  return Status::Ok();
}

}  // namespace icarus
