// protocol.hpp — the sma_serve line protocol.
//
// A deliberately dumb, debuggable wire format: one ASCII header line of
// `k=v` tokens followed by hex-encoded frame payloads, so a request can
// be composed with printf and inspected with tcpdump.  GOES PGM frames
// are 8-bit and read_pgm() maps samples to exact float values 0..255,
// so the u8 hex transport is LOSSLESS — the server reconstructs ImageF
// frames bit-identical to what sma_cli would read from the same file,
// which is what makes the "served `ok` response cmp-equal to one-shot
// output" chaos invariant achievable at all.
//
// Request (client -> server):
//
//   TRACK id=7 tenant=goes w=64 h=64 deadline_ms=2000 model=semi fit=2
//         search=3 template=4 nss=1 nst=2 subpixel=0 robust=0 backend=
//   <2*w*h hex chars>\n        (before frame, row-major u8)
//   <2*w*h hex chars>\n        (after frame)
//
//   PING\n | STATS\n | QUIT\n  (single-line commands)
//
// Sequence sessions (client -> server) stream a tenant's frames through
// one pinned pipeline session so each frame is fitted once and seed
// trajectories chain across pairs (core::SequenceStream):
//
//   SEQ-OPEN id=1 tenant=goes w=64 h=64 deadline_ms=0 model=semi ...
//                              (same tokens as TRACK; no payload lines)
//   SEQ-FRAME id=2 w=64 h=64
//   <2*w*h hex chars>\n        (one frame, row-major u8)
//   SEQ-CLOSE id=9
//
// Every SEQ message is answered with one RESP: SEQ-OPEN/SEQ-CLOSE with
// an empty payload, the first SEQ-FRAME with msg=frame buffered (no
// pair yet), and each later SEQ-FRAME with the flow of (previous,
// frame) — bit-identical to the one-shot TRACK of the same pair.  The
// parser stays SESSIONLESS (each SEQ-FRAME carries its own dims, capped
// like TRACK's); open/close bookkeeping lives in the server, which
// answers out-of-session frames with outcome=error code=protocol while
// keeping the connection usable.
//
// Response (server -> client):
//
//   RESP id=7 outcome=ok code=ok retry_after_ms=0 valid=3844 total=4096
//        wall_ms=12.5 faults=0 bytes=N msg=...
//   <N raw payload bytes>      (write_flow_text output; empty unless ok
//                               or degraded)
//
// `msg=` is always the LAST header token and runs to end of line, so it
// may contain spaces.  Every request resolves to exactly one of the five
// outcomes — the serving layer's core invariant (see serve/error.hpp for
// the code refinement).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/error.hpp"

namespace sma::serve {

/// The five terminal states of a request.  kDegraded is an `ok` whose
/// input frames needed the repair layer (chaos corruption, telemetry
/// dropouts) — the payload is still a full flow field, but confidence-
/// filtered consumers should treat it accordingly.
enum class Outcome { kOk, kDegraded, kRejected, kDeadline, kError };

inline constexpr std::size_t kOutcomeCount = 5;

/// Wire name ("ok", "degraded", "rejected", "deadline", "error").
const char* outcome_name(Outcome outcome);

/// Inverse of outcome_name; kError for unknown names.
Outcome outcome_from_name(std::string_view name);

/// Upper bound on frame edge length accepted over the wire.  Bounds the
/// worst-case allocation a single malicious/buggy header can trigger
/// (4096^2 u8 = 16 MiB per frame) before any payload arrives.
inline constexpr int kMaxFrameEdge = 4096;

/// One parsed TRACK request.
struct TrackRequest {
  std::uint64_t id = 0;
  std::string tenant = "default";
  int width = 0;
  int height = 0;
  /// 0 = no per-request deadline (the server may impose a default).
  int deadline_ms = 0;

  // Tracking configuration (SmaConfig subset + pipeline options).
  std::string model = "semi";  ///< "semi" | "cont"
  int fit_radius = 2;          ///< N_z
  int search_radius = 3;       ///< N_zs
  int template_radius = 4;     ///< N_zT
  int nss = 1;                 ///< N_ss
  int nst = 2;                 ///< N_sT
  bool subpixel = false;
  bool robust = false;
  /// Backend name; empty = the server's default backend.
  std::string backend;
  /// Hypothesis search mode: "" or "full" = the exhaustive oracle,
  /// "pruned" = coarse-to-fine seeding with branch-and-bound (wire key
  /// `smode=`, omitted when full so pre-existing clients' request lines
  /// are byte-stable).
  std::string search_mode;

  /// Row-major u8 samples, width*height each.
  std::vector<std::uint8_t> before;
  std::vector<std::uint8_t> after;

  /// Canonical key of the tracking config this request needs (backend
  /// excluded — the PipelineManager appends the RESOLVED backend so an
  /// empty field and an explicit request for the server default share
  /// one pipeline).  Requests with equal signatures share one
  /// SmaPipeline — and thus one geometry cache.
  std::string config_signature() const;
};

/// One response, header + optional payload.
struct TrackResponse {
  std::uint64_t id = 0;
  Outcome outcome = Outcome::kError;
  ServeError code = ServeError::kInternal;
  int retry_after_ms = 0;   ///< hint for rejected outcomes
  long valid = 0;           ///< valid flow vectors
  long total = 0;           ///< total flow vectors (w*h)
  double wall_ms = 0.0;     ///< server-side wall clock
  long faults = 0;          ///< fault events absorbed (degraded path)
  std::string message;      ///< one-line human detail
  std::string payload;      ///< write_flow_text bytes (ok/degraded only)
};

/// Serializes a request: header line + two hex payload lines.
std::string format_request(const TrackRequest& req);

/// Serializes a SEQ-OPEN: the TRACK token set (dims = the session's
/// fixed frame shape), no payload lines.
std::string format_seq_open(const TrackRequest& req);

/// Serializes a SEQ-FRAME: header + one hex payload line.
std::string format_seq_frame(std::uint64_t id, int width, int height,
                             const std::vector<std::uint8_t>& frame);

/// Serializes a SEQ-CLOSE line.
std::string format_seq_close(std::uint64_t id);

/// Serializes a response: header line + payload bytes.
std::string format_response(const TrackResponse& resp);

/// Parses a RESP header line (no payload; the caller reads `bytes=` raw
/// bytes afterwards).  Returns false on malformed input.  `payload_bytes`
/// receives the advertised payload length.
bool parse_response_header(std::string_view line, TrackResponse& resp,
                           std::size_t& payload_bytes);

/// Lowercase hex codec for u8 frame payloads.
std::string hex_encode(const std::uint8_t* data, std::size_t n);
/// Returns false on odd length or non-hex characters.
bool hex_decode(std::string_view hex, std::vector<std::uint8_t>& out);

/// Incremental request parser: feed() raw socket bytes, then drain
/// complete messages with next().  A connection needs one parser; state
/// spans calls so a TRACK header and its two payload lines may arrive in
/// any packetization.  After kError the parser is poisoned (the server
/// answers with a protocol error and closes the connection).
class RequestParser {
 public:
  enum class Event {
    kNeedMore,
    kTrack,
    kPing,
    kStats,
    kQuit,
    /// SEQ-OPEN: `request` carries the session config (frames empty).
    kSeqOpen,
    /// SEQ-FRAME: `request` carries id, dims and the frame in `before`.
    kSeqFrame,
    /// SEQ-CLOSE: `request` carries the id only.
    kSeqClose,
    kError,
  };

  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete message.  On kTrack / the kSeq events,
  /// `request` holds the parsed fields; on kError, error() describes
  /// the problem.
  Event next(TrackRequest& request);

  const std::string& error() const { return error_; }

 private:
  enum class State { kHeader, kBefore, kAfter, kSeqPayload, kPoisoned };

  Event fail(std::string message);
  bool take_line(std::string& line);

  State state_ = State::kHeader;
  std::string buffer_;
  std::string error_;
  TrackRequest partial_;
};

}  // namespace sma::serve
