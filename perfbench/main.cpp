// main.cpp — command line of the end-to-end benchmark harness.
//
//   perfbench_e2e --phase prepare --workload W --seed N --dir D
//   perfbench_e2e --phase run --workload W --seed N --dir D --seconds S
//                 --trace 0|1 [--trace-out FILE] [--commit SHA]
//                 [--source-digest HEX]
//
// `prepare` synthesizes the workload's inputs from the seed (and any
// reference result) into D; `run` is the measured process.  Keeping them
// apart keeps input synthesis and reference computation out of the
// measured process's set-up time and peak RSS.  `run` prints an
// environment stamp, notes, and as its last line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics, or with --trace 1 the per-layer ones this workload engages
// (perfbench/run.py reports the rest of BENCHMARK.json's list as 0).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/dispatch.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

void print_environment(const Options& o, const std::string& commit,
                       const std::string& digest) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr ? v : "");
  };
  const sma::simd::SimdLevel level = sma::simd::active_level();
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %u, \"seconds\": %.17g, "
      "\"trace\": %d, \"nproc\": %u, \"pool_threads\": %d, "
      "\"SMA_THREADS\": \"%s\", \"OMP_NUM_THREADS\": \"%s\", "
      "\"simd_level\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_digest\": \"%s\"}\n",
      o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      sma::sched::ThreadPool::shared().threads(), env("SMA_THREADS").c_str(),
      env("OMP_NUM_THREADS").c_str(), sma::simd::level_name(level),
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(), json_escape(commit).c_str(),
      json_escape(digest).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --phase prepare|run --workload "
               "semi_pair|rapidscan_session|outofcore_shard --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--commit SHA] [--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown", digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--phase") o.phase = value;
    else if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--dir") o.dir = value;
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--trace-out") o.trace_path = value;
    else if (key == "--commit") commit = value;
    else if (key == "--source-digest") digest = value;
    else return usage();
  }
  if (o.dir.empty() || o.seconds <= 0.0 ||
      (o.phase != "prepare" && o.phase != "run"))
    return usage();

  using Prepare = void (*)(const Options&);
  using Run = RunResult (*)(const Options&);
  const std::map<std::string, std::pair<Prepare, Run>> workloads = {
      {"semi_pair", {perfbench::prepare_semi_pair, perfbench::run_semi_pair}},
      {"rapidscan_session",
       {perfbench::prepare_rapidscan_session,
        perfbench::run_rapidscan_session}},
      {"outofcore_shard",
       {perfbench::prepare_outofcore_shard, perfbench::run_outofcore_shard}},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) return usage();

  try {
    if (o.phase == "prepare") {
      it->second.first(o);
      return 0;
    }
    print_environment(o, commit, digest);
    RunResult r = it->second.second(o);
    if (r.attempted < 1) {  // nothing completed: report one failed pair
      r.attempted = 1;
      r.failed = 1;
      r.correct = false;
    }
    for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
    // The traced run's own end-to-end figures, for comparing against an
    // untraced run (trace_report.py).
    if (o.trace)
      std::printf("traced_end_to_end %s\n",
                  metrics_json(r.end_to_end).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false", r.attempted, r.failed,
                metrics_json(o.trace ? r.per_layer : r.end_to_end).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
