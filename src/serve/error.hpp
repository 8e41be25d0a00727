// error.hpp — the serving layer's structured error taxonomy.
//
// Every request handled by sma_serve resolves to exactly ONE of five
// wire outcomes (protocol.hpp: ok / degraded / rejected / deadline /
// error); ServeError is the machine-readable refinement carried in the
// status line's `code=` token.  The same enum doubles as the process
// exit-code map for the front ends (sma_cli, sma_client, sma_serve), so
// a shell script can distinguish "bad flags" from "file missing" from
// "server melted" without parsing stderr:
//
//   0 ok          success
//   2 config      invalid configuration, flags or request parameters
//   3 io          file or socket I/O failure
//   4 internal    unexpected exception — a bug, never expected in CI
//   5 protocol    malformed wire request / response framing
//   6 rejected    admission control said no (overloaded / rate-limited /
//                 shutting down) — retryable, see retry_after_ms
//   7 deadline    the per-request deadline expired
//
// (1 is left to the runtime's default for uncaught terminations and 2
// doubles as the usage exit the CLIs already used.)
#pragma once

#include <cstdint>
#include <exception>
#include <string_view>
#include <utility>

namespace sma::serve {

enum class ServeError {
  kOk = 0,
  kConfig,       ///< invalid config / flags / request parameters
  kIo,           ///< file or socket I/O failed
  kProtocol,     ///< malformed request or response framing
  kOverloaded,   ///< admission queue full (retryable)
  kRateLimited,  ///< tenant token bucket empty (retryable)
  kShutdown,     ///< server draining; no new work (retryable elsewhere)
  kDeadline,     ///< per-request deadline expired
  kInternal,     ///< unexpected exception — a bug
};

/// Wire name of a code ("ok", "config", "io", "protocol", "overloaded",
/// "rate-limited", "shutdown", "deadline", "internal").
const char* serve_error_name(ServeError code);

/// Inverse of serve_error_name; kInternal for unknown names (an unknown
/// code from a newer peer is still an error, just an unclassified one).
ServeError serve_error_from_name(std::string_view name);

/// The process exit code for a front end that ends with `code` (header
/// table above).  The three rejection flavours share one exit code —
/// shells care that it is retryable, the wire code says why.
int exit_code(ServeError code);

/// Maps a caught exception onto the taxonomy: std::invalid_argument /
/// std::logic_error (config validation, unknown backend) -> kConfig;
/// std::ios_base::failure, std::system_error and the repo's I/O-layer
/// std::runtime_errors (read_pgm/write_* "cannot open"/"truncated"
/// messages) -> kIo; anything else -> kInternal.  CancelledError is NOT
/// classified here — callers map it to kDeadline before falling back to
/// this.
ServeError classify_exception(const std::exception& e);

// Flag readers shared by the front ends.  argv[i] is the flag; each
// reader advances i past its value.  A missing value, or one that is not
// wholly a number of the stated kind, throws std::invalid_argument
// naming the flag, so the front end exits with the config code (2).

/// The raw value of the flag.
const char* flag_value(int argc, char** argv, int& i);

/// The value as a base-10 int (std::from_chars over the whole token: an
/// optional '-', digits, nothing else, within int range).
int int_flag(int argc, char** argv, int& i);

/// The value as a base-10 std::uint64_t (seeds and request ids).
std::uint64_t uint64_flag(int argc, char** argv, int& i);

/// The value as a finite double.
double double_flag(int argc, char** argv, int& i);

/// A value of the form AxB (--tile WxH, --shard RxC), each side read
/// like int_flag.
std::pair<int, int> int_pair_flag(int argc, char** argv, int& i);

}  // namespace sma::serve
