// sma_serve.cpp — the fault-tolerant multi-tenant tracking daemon.
//
//   sma_serve [--host H] [--port P] [--workers N] [--backend NAME]
//             [--sched-threads N]
//             [--queue N] [--rate R] [--burst B] [--retry-after-ms MS]
//             [--deadline-ms MS] [--geometry-cache N]
//             [--max-sessions N] [--no-batch] [--batch-max N]
//             [--metrics FILE] [--drain-flush-ms MS]
//             [--chaos] [--chaos-seed N] [--chaos-frame-fault-rate R]
//             [--chaos-fault-intensity R] [--chaos-stall-rate R]
//             [--chaos-stall-ms MS] [--chaos-slow-read-rate R]
//             [--chaos-slow-read-bytes N]
//
// Listens for line-protocol TRACK requests and SEQ-OPEN/FRAME/CLOSE
// sequence sessions (serve/protocol.hpp) and answers each message with
// exactly one of ok / degraded / rejected / deadline / error.  SIGTERM / SIGINT trigger a graceful drain: in-flight and
// queued requests finish, new ones are rejected with code=shutdown,
// buffers flush, metrics land in --metrics, and the process exits 0.
// --chaos arms the deterministic adversary (serve/chaos.hpp) used by the
// chaos smoke test and the load bench.
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "maspar/backend.hpp"
#include "serve/error.hpp"
#include "serve/server.hpp"

namespace {

using namespace sma;

serve::Server* g_server = nullptr;

void on_signal(int) {
  // Async-signal-safe: atomic store + one write() on the self-pipe.
  if (g_server != nullptr) g_server->request_drain();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sma_serve [--host H] [--port P] [--workers N]\n"
      "                 [--backend NAME] [--sched-threads N]\n"
      "                 [--queue N] [--rate R] [--burst B]\n"
      "                 [--retry-after-ms MS] [--deadline-ms MS]\n"
      "                 [--geometry-cache N]\n"
      "                 [--max-sessions N] [--no-batch] [--batch-max N]\n"
      "                 [--metrics FILE] [--drain-flush-ms MS]\n"
      "                 [--chaos] [--chaos-seed N]\n"
      "                 [--chaos-frame-fault-rate R]\n"
      "                 [--chaos-fault-intensity R] [--chaos-stall-rate R]\n"
      "                 [--chaos-stall-ms MS] [--chaos-slow-read-rate R]\n"
      "                 [--chaos-slow-read-bytes N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--host")
        options.host = serve::flag_value(argc, argv, i);
      else if (a == "--port")
        options.port = serve::int_flag(argc, argv, i);
      else if (a == "--workers")
        options.workers =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else if (a == "--backend")
        options.backend = serve::flag_value(argc, argv, i);
      else if (a == "--sched-threads")
        // Tile-execution budget shared by ALL workers' tiled tracking
        // (resizes sched::ThreadPool::shared() before accepting work).
        options.sched_threads = serve::int_flag(argc, argv, i);
      else if (a == "--queue")
        options.admission.queue_capacity =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else if (a == "--rate")
        options.admission.tenant_rate = serve::double_flag(argc, argv, i);
      else if (a == "--burst")
        options.admission.tenant_burst = serve::double_flag(argc, argv, i);
      else if (a == "--retry-after-ms")
        options.admission.retry_after_ms = serve::int_flag(argc, argv, i);
      else if (a == "--deadline-ms")
        options.default_deadline_ms = serve::int_flag(argc, argv, i);
      else if (a == "--geometry-cache")
        options.geometry_cache_capacity =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else if (a == "--max-sessions")
        options.admission.max_sessions =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else if (a == "--no-batch")
        options.batching = false;
      else if (a == "--batch-max")
        options.batch_max =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else if (a == "--metrics")
        options.metrics_path = serve::flag_value(argc, argv, i);
      else if (a == "--drain-flush-ms")
        options.drain_flush_ms = serve::int_flag(argc, argv, i);
      else if (a == "--chaos")
        options.chaos.enabled = true;
      else if (a == "--chaos-seed")
        options.chaos.seed = serve::uint64_flag(argc, argv, i);
      else if (a == "--chaos-frame-fault-rate")
        options.chaos.frame_fault_rate = serve::double_flag(argc, argv, i);
      else if (a == "--chaos-fault-intensity")
        options.chaos.fault_intensity = serve::double_flag(argc, argv, i);
      else if (a == "--chaos-stall-rate")
        options.chaos.stall_rate = serve::double_flag(argc, argv, i);
      else if (a == "--chaos-stall-ms")
        options.chaos.stall_ms = serve::int_flag(argc, argv, i);
      else if (a == "--chaos-slow-read-rate")
        options.chaos.slow_read_rate = serve::double_flag(argc, argv, i);
      else if (a == "--chaos-slow-read-bytes")
        options.chaos.slow_read_bytes =
            static_cast<std::size_t>(serve::int_flag(argc, argv, i));
      else {
        std::fprintf(stderr, "unknown option: %s\n", a.c_str());
        return usage();
      }
    }

    maspar::register_maspar_backend();

    serve::Server server(options);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    // A throttled or vanished client must never kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("sma_serve listening on %s:%d (workers %zu, queue %zu, "
                "backend %s%s)\n",
                options.host.c_str(), server.port(), options.workers,
                options.admission.queue_capacity, options.backend.c_str(),
                options.chaos.enabled ? ", CHAOS" : "");
    std::fflush(stdout);

    server.run();
    g_server = nullptr;
    std::printf("sma_serve drained: %s", server.stats_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    g_server = nullptr;
    const serve::ServeError code = serve::classify_exception(e);
    std::fprintf(stderr, "sma_serve: %s error: %s\n",
                 serve::serve_error_name(code), e.what());
    return serve::exit_code(code);
  }
}
