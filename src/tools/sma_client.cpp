// sma_client.cpp — line-protocol client CLI for sma_serve.
//
//   sma_client track <before.pgm> <after.pgm> <out_flow.txt>
//              [--host H] [--port P] [--tenant NAME] [--deadline-ms MS]
//              [--id N] [--model cont|semi] [--fit N] [--search N]
//              [--template N] [--nss N] [--nst N] [--subpixel] [--robust]
//              [--backend NAME] [--search-mode full|pruned]
//   sma_client seq <out_prefix> <frame0.pgm> <frame1.pgm>...
//              [same options as track]
//   sma_client ping  [--host H] [--port P]
//   sma_client stats [--host H] [--port P]
//
// The track defaults mirror `sma_cli track` exactly, so
//   sma_cli    track a.pgm b.pgm flow_cli.txt
//   sma_client track a.pgm b.pgm flow_served.txt
// must produce cmp-identical flow files against a healthy server — the
// bit-identity half of the chaos invariant.  `seq` streams the frames
// through one SEQ session and writes the pair flows as
// <out_prefix>_p1.txt .. _p{T-1}.txt, byte-identical to what
// `sma_cli sequence` writes for the same frames (and to T-1 one-shot
// TRACKs).  Exit codes follow the
// serve error taxonomy (serve/error.hpp): 0 ok, 2 config, 3 io,
// 4 internal, 5 protocol, 6 rejected, 7 deadline.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/io.hpp"
#include "serve/client.hpp"
#include "serve/error.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace sma;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sma_client track <before.pgm> <after.pgm> <out_flow.txt>\n"
      "             [--host H] [--port P] [--tenant NAME]\n"
      "             [--deadline-ms MS] [--id N] [--model cont|semi]\n"
      "             [--fit N] [--search N] [--template N] [--nss N]\n"
      "             [--nst N] [--subpixel] [--robust] [--backend NAME]\n"
      "             [--search-mode full|pruned]\n"
      "  sma_client seq <out_prefix> <frame0.pgm> <frame1.pgm>...\n"
      "             [same options as track]\n"
      "  sma_client ping  [--host H] [--port P]\n"
      "  sma_client stats [--host H] [--port P]\n");
  return 2;
}

/// PGM frames are 8-bit and read_pgm maps samples to exact float values
/// 0..255, so the u8 round-trip is lossless (the protocol's transport
/// contract).
std::vector<std::uint8_t> to_bytes(const imaging::ImageF& img) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(img.width()) * img.height());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      bytes.push_back(static_cast<std::uint8_t>(img.at(x, y)));
  return bytes;
}

/// Parses the shared track/seq option tail starting at argv[first].
/// Returns true on success (false = unknown option, caller prints
/// usage).
bool parse_track_options(int argc, char** argv, int first, std::string& host,
                         int& port, serve::TrackRequest& req) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host")
      host = serve::flag_value(argc, argv, i);
    else if (a == "--port")
      port = serve::int_flag(argc, argv, i);
    else if (a == "--tenant")
      req.tenant = serve::flag_value(argc, argv, i);
    else if (a == "--deadline-ms")
      req.deadline_ms = serve::int_flag(argc, argv, i);
    else if (a == "--id")
      req.id = serve::uint64_flag(argc, argv, i);
    else if (a == "--model")
      req.model = serve::flag_value(argc, argv, i);
    else if (a == "--fit")
      req.fit_radius = serve::int_flag(argc, argv, i);
    else if (a == "--search")
      req.search_radius = serve::int_flag(argc, argv, i);
    else if (a == "--template")
      req.template_radius = serve::int_flag(argc, argv, i);
    else if (a == "--nss")
      req.nss = serve::int_flag(argc, argv, i);
    else if (a == "--nst")
      req.nst = serve::int_flag(argc, argv, i);
    else if (a == "--subpixel")
      req.subpixel = true;
    else if (a == "--robust")
      req.robust = true;
    else if (a == "--backend")
      req.backend = serve::flag_value(argc, argv, i);
    else if (a == "--search-mode") {
      req.search_mode = serve::flag_value(argc, argv, i);
      if (req.search_mode != "full" && req.search_mode != "pruned")
        throw std::invalid_argument("--search-mode expects full|pruned");
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int cmd_track(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string before_path = argv[2];
  const std::string after_path = argv[3];
  const std::string out_path = argv[4];

  std::string host = "127.0.0.1";
  int port = 7446;
  serve::TrackRequest req;
  req.id = 1;
  if (!parse_track_options(argc, argv, 5, host, port, req)) return usage();

  const imaging::ImageF before = imaging::read_pgm(before_path);
  const imaging::ImageF after = imaging::read_pgm(after_path);
  if (before.width() != after.width() || before.height() != after.height())
    throw std::invalid_argument("frame dimensions differ");
  req.width = before.width();
  req.height = before.height();
  req.before = to_bytes(before);
  req.after = to_bytes(after);

  serve::Client client;
  client.connect(host, port);
  const serve::TrackResponse resp = client.track(req);
  client.quit();

  std::fprintf(stderr,
               "id=%llu outcome=%s code=%s valid=%ld/%ld wall_ms=%.3f "
               "faults=%ld retry_after_ms=%d%s%s\n",
               static_cast<unsigned long long>(resp.id),
               serve::outcome_name(resp.outcome),
               serve::serve_error_name(resp.code), resp.valid, resp.total,
               resp.wall_ms, resp.faults, resp.retry_after_ms,
               resp.message.empty() ? "" : " msg=",
               resp.message.c_str());

  if (!resp.payload.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
      throw std::runtime_error("sma_client: cannot open " + out_path);
    out.write(resp.payload.data(),
              static_cast<std::streamsize>(resp.payload.size()));
    if (!out.good())
      throw std::runtime_error("sma_client: write failed: " + out_path);
    std::fprintf(stderr, "flow (%zu bytes) -> %s\n", resp.payload.size(),
                 out_path.c_str());
  }
  return serve::exit_code(resp.code);
}

int cmd_seq(int argc, char** argv) {
  if (argc < 5) return usage();  // seq <prefix> + at least two frames
  const std::string out_prefix = argv[2];
  std::vector<std::string> frame_paths;
  int i = 3;
  for (; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] == '-') break;
    frame_paths.emplace_back(argv[i]);
  }
  if (frame_paths.size() < 2) {
    std::fprintf(stderr, "seq needs at least two frames\n");
    return usage();
  }

  std::string host = "127.0.0.1";
  int port = 7446;
  serve::TrackRequest req;
  req.id = 1;
  if (!parse_track_options(argc, argv, i, host, port, req)) return usage();

  // The session's fixed dims come from the first frame.
  std::vector<imaging::ImageF> frames;
  frames.reserve(frame_paths.size());
  for (const std::string& path : frame_paths)
    frames.push_back(imaging::read_pgm(path));
  for (const imaging::ImageF& f : frames)
    if (f.width() != frames[0].width() || f.height() != frames[0].height())
      throw std::invalid_argument("frame dimensions differ");
  req.width = frames[0].width();
  req.height = frames[0].height();

  serve::Client client;
  client.connect(host, port);

  std::uint64_t next_id = req.id;
  serve::TrackResponse resp = client.seq_open(req);
  std::fprintf(stderr, "open: outcome=%s code=%s msg=%s\n",
               serve::outcome_name(resp.outcome),
               serve::serve_error_name(resp.code), resp.message.c_str());
  serve::ServeError worst = resp.code;
  if (resp.outcome != serve::Outcome::kOk) return serve::exit_code(worst);

  std::size_t pair = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    resp = client.seq_frame(++next_id, req.width, req.height,
                            to_bytes(frames[k]));
    std::fprintf(stderr,
                 "frame %zu: outcome=%s code=%s valid=%ld/%ld "
                 "wall_ms=%.3f%s%s\n",
                 k, serve::outcome_name(resp.outcome),
                 serve::serve_error_name(resp.code), resp.valid, resp.total,
                 resp.wall_ms, resp.message.empty() ? "" : " msg=",
                 resp.message.c_str());
    if (resp.code != serve::ServeError::kOk) {
      worst = resp.code;
      break;
    }
    if (resp.payload.empty()) continue;  // first frame: buffered only
    ++pair;
    const std::string out_path =
        out_prefix + "_p" + std::to_string(pair) + ".txt";
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
      throw std::runtime_error("sma_client: cannot open " + out_path);
    out.write(resp.payload.data(),
              static_cast<std::streamsize>(resp.payload.size()));
    if (!out.good())
      throw std::runtime_error("sma_client: write failed: " + out_path);
    std::fprintf(stderr, "flow (%zu bytes) -> %s\n", resp.payload.size(),
                 out_path.c_str());
  }

  if (worst == serve::ServeError::kOk) {
    resp = client.seq_close(++next_id);
    std::fprintf(stderr, "close: outcome=%s code=%s msg=%s\n",
                 serve::outcome_name(resp.outcome),
                 serve::serve_error_name(resp.code), resp.message.c_str());
    worst = resp.code;
  }
  client.quit();
  return serve::exit_code(worst);
}

int cmd_line(int argc, char** argv, bool ping) {
  std::string host = "127.0.0.1";
  int port = 7446;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--host")
      host = serve::flag_value(argc, argv, i);
    else if (a == "--port")
      port = serve::int_flag(argc, argv, i);
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return usage();
    }
  }
  serve::Client client;
  client.connect(host, port);
  const std::string line = ping ? client.ping() : client.stats();
  client.quit();
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "track") return cmd_track(argc, argv);
    if (cmd == "seq") return cmd_seq(argc, argv);
    if (cmd == "ping") return cmd_line(argc, argv, true);
    if (cmd == "stats") return cmd_line(argc, argv, false);
  } catch (const std::exception& e) {
    const serve::ServeError code = serve::classify_exception(e);
    std::fprintf(stderr, "sma_client: %s error: %s\n",
                 serve::serve_error_name(code), e.what());
    return serve::exit_code(code);
  }
  return usage();
}
