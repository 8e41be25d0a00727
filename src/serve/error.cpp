#include "serve/error.hpp"

#include <charconv>
#include <cmath>
#include <ios>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>

namespace sma::serve {

namespace {

// `text` as a whole T (std::from_chars must consume every character).
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

[[noreturn]] void bad_flag_value(std::string_view flag, std::string_view text,
                                 const char* want) {
  throw std::invalid_argument(std::string(flag) + " expects " + want +
                              ", got '" + std::string(text) + "'");
}

}  // namespace

const char* serve_error_name(ServeError code) {
  switch (code) {
    case ServeError::kOk: return "ok";
    case ServeError::kConfig: return "config";
    case ServeError::kIo: return "io";
    case ServeError::kProtocol: return "protocol";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kRateLimited: return "rate-limited";
    case ServeError::kShutdown: return "shutdown";
    case ServeError::kDeadline: return "deadline";
    case ServeError::kInternal: return "internal";
  }
  return "internal";
}

ServeError serve_error_from_name(std::string_view name) {
  for (ServeError code :
       {ServeError::kOk, ServeError::kConfig, ServeError::kIo,
        ServeError::kProtocol, ServeError::kOverloaded,
        ServeError::kRateLimited, ServeError::kShutdown, ServeError::kDeadline,
        ServeError::kInternal}) {
    if (name == serve_error_name(code)) return code;
  }
  return ServeError::kInternal;
}

int exit_code(ServeError code) {
  switch (code) {
    case ServeError::kOk: return 0;
    case ServeError::kConfig: return 2;
    case ServeError::kIo: return 3;
    case ServeError::kInternal: return 4;
    case ServeError::kProtocol: return 5;
    case ServeError::kOverloaded:
    case ServeError::kRateLimited:
    case ServeError::kShutdown: return 6;
    case ServeError::kDeadline: return 7;
  }
  return 4;
}

ServeError classify_exception(const std::exception& e) {
  // Order matters: ios_base::failure derives from system_error which
  // derives from runtime_error; invalid_argument from logic_error.
  if (dynamic_cast<const std::ios_base::failure*>(&e) != nullptr ||
      dynamic_cast<const std::system_error*>(&e) != nullptr)
    return ServeError::kIo;
  if (dynamic_cast<const std::logic_error*>(&e) != nullptr)
    return ServeError::kConfig;
  if (dynamic_cast<const std::runtime_error*>(&e) != nullptr) {
    // The imaging/tools I/O layer reports failures as runtime_errors with
    // conventional prefixes ("read_pgm: cannot open ...", "write_flow_text:
    // cannot open ...", "...: truncated ...").
    const std::string what = e.what();
    for (const char* needle :
         {"cannot open", "truncated", "read_", "write_", "unexpected EOF",
          "PNM:"}) {
      if (what.find(needle) != std::string::npos) return ServeError::kIo;
    }
  }
  return ServeError::kInternal;
}

const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc)
    throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

int int_flag(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const std::string_view text = flag_value(argc, argv, i);
  if (const auto v = parse_whole<int>(text)) return *v;
  bad_flag_value(flag, text, "an integer");
}

std::uint64_t uint64_flag(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const std::string_view text = flag_value(argc, argv, i);
  if (const auto v = parse_whole<std::uint64_t>(text)) return *v;
  bad_flag_value(flag, text, "an unsigned integer");
}

double double_flag(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const std::string_view text = flag_value(argc, argv, i);
  if (const auto v = parse_whole<double>(text); v && std::isfinite(*v))
    return *v;
  bad_flag_value(flag, text, "a finite number");
}

std::pair<int, int> int_pair_flag(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const std::string_view text = flag_value(argc, argv, i);
  const std::size_t x = text.find('x');
  if (x != std::string_view::npos) {
    const auto a = parse_whole<int>(text.substr(0, x));
    const auto b = parse_whole<int>(text.substr(x + 1));
    if (a && b) return {*a, *b};
  }
  bad_flag_value(flag, text, "AxB integers");
}

}  // namespace sma::serve
