// bench.cpp — span store, matching probe, statistics and the per-layer
// metric catalogue shared by the three workloads.
#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/match_prune.hpp"
#include "core/match_vector.hpp"

namespace perfbench {

namespace core = sma::core;

// ---------------------------------------------------------------- Tracer

int Tracer::add(const std::string& layer, Clock::time_point start,
                Clock::time_point end, std::uint64_t pair_id, int parent,
                int tid) {
  if (!enabled_) return -1;
  const auto t0 = Clock::now();
  Span s;
  s.layer = layer;
  s.start_us = 1e6 * seconds_between(origin_, start);
  s.dur_us = 1e6 * seconds_between(start, end);
  s.pair_id = pair_id;
  s.parent = parent;
  s.tid = tid;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  overhead_seconds_ += seconds_since(t0);
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::add_duration(const std::string& layer, Clock::time_point start,
                         double seconds, std::uint64_t pair_id, int parent,
                         int tid) {
  return add(layer, start,
             start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds)),
             pair_id, parent, tid);
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.dur_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer.rfind("e2e.", 0) == 0) continue;  // envelopes
    out[spans_[i].layer] += 1e-6 * (spans_[i].dur_us - child_us[i]);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\""
      << process_name << "\"}}";
  char buf[512];
  for (const Span& s : spans_) {
    const auto dot = s.layer.find('.');
    const std::string cat =
        dot == std::string::npos ? s.layer : s.layer.substr(0, dot);
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"pair\":%llu}}",
                  s.layer.c_str(), cat.c_str(), s.start_us, s.dur_us, s.tid,
                  static_cast<unsigned long long>(s.pair_id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ----------------------------------------------------------- ProbeBackend

ProbeBackend& ProbeBackend::install() {
  static ProbeBackend* probe = [] {
    auto& registry = core::BackendRegistry::instance();
    auto owned = std::unique_ptr<ProbeBackend>(
        new ProbeBackend(&registry.get("vector")));
    ProbeBackend* raw = owned.get();
    registry.register_backend(std::move(owned));
    return raw;
  }();
  return *probe;
}

core::TrackResult ProbeBackend::match(const core::MatchInput& in,
                                      const core::SmaConfig& config,
                                      const core::TrackOptions& options) const {
  const auto t0 = Clock::now();
  core::TrackResult r = inner_->match(in, config, options);
  const auto t1 = Clock::now();
  const double s = seconds_between(t0, t1);

  const auto pixels = static_cast<std::uint64_t>(in.width()) *
                      static_cast<std::uint64_t>(in.height());
  const auto* extras =
      dynamic_cast<const core::VectorBackendExtras*>(r.extras.get());
  const bool vector_path = extras != nullptr && extras->report.vector_path;
  const core::PruneReport* prune = extras != nullptr ? &extras->prune : nullptr;
  // Hypotheses evaluated: the pruned sweep's own accounting when it
  // ran (coarse + fine_scheduled, tallied separately), else the lane
  // kernel's batched + tail count, else the staged fallback's full
  // (2Nzs+1) x (2Nzs_y+1) sweep per pixel.
  std::uint64_t hyp = 0;
  if (prune != nullptr && prune->active)
    hyp = 0;  // tallied from the PruneReport fields below
  else if (vector_path)
    hyp = extras->report.batched_hypotheses + extras->report.tail_hypotheses;
  else
    hyp = pixels * static_cast<std::uint64_t>(config.z_search_size()) *
          static_cast<std::uint64_t>(config.z_search_size_y());

  std::lock_guard<std::mutex> lock(mutex_);
  MatchTally& t = tally_;
  ++t.calls;
  t.pixels += pixels;
  t.hypotheses += hyp;
  t.match_seconds += s;
  t.semifluid_seconds += r.timings.semifluid_mapping;
  t.hypothesis_seconds += r.timings.hypothesis_matching;
  t.call_seconds.push_back(s);
  if (!vector_path) ++t.vector_fallbacks;
  if (extras != nullptr) {
    t.batched += extras->report.batched_hypotheses;
    t.tail += extras->report.tail_hypotheses;
  }
  if (prune != nullptr && prune->active) {
    ++t.prune_active;
    t.full_grid += prune->full_grid_hypotheses;
    t.coarse += prune->coarse_hypotheses;
    t.fine_scheduled += prune->fine_scheduled;
    t.bound_checks += prune->bound_checks;
    t.bound_skipped += prune->bound_skipped;
    t.window_pixels += prune->window_pixels;
    t.seed_interior += prune->seed_interior;
  }
  t.bookkeeping_seconds += seconds_since(t1);
  return r;
}

MatchTally tally_delta(const MatchTally& a, const MatchTally& b) {
  MatchTally d;
  d.calls = b.calls - a.calls;
  d.pixels = b.pixels - a.pixels;
  d.hypotheses = b.hypotheses - a.hypotheses;
  d.vector_fallbacks = b.vector_fallbacks - a.vector_fallbacks;
  d.batched = b.batched - a.batched;
  d.tail = b.tail - a.tail;
  d.match_seconds = b.match_seconds - a.match_seconds;
  d.semifluid_seconds = b.semifluid_seconds - a.semifluid_seconds;
  d.hypothesis_seconds = b.hypothesis_seconds - a.hypothesis_seconds;
  d.bookkeeping_seconds = b.bookkeeping_seconds - a.bookkeeping_seconds;
  d.prune_active = b.prune_active - a.prune_active;
  d.full_grid = b.full_grid - a.full_grid;
  d.coarse = b.coarse - a.coarse;
  d.fine_scheduled = b.fine_scheduled - a.fine_scheduled;
  d.bound_checks = b.bound_checks - a.bound_checks;
  d.bound_skipped = b.bound_skipped - a.bound_skipped;
  d.window_pixels = b.window_pixels - a.window_pixels;
  d.seed_interior = b.seed_interior - a.seed_interior;
  d.call_seconds.assign(b.call_seconds.begin() +
                            static_cast<std::ptrdiff_t>(a.call_seconds.size()),
                        b.call_seconds.end());
  return d;
}

sma::sched::SchedStats sched_delta(const sma::sched::SchedStats& a,
                                   const sma::sched::SchedStats& b) {
  sma::sched::SchedStats d = b;
  d.batches = b.batches - a.batches;
  d.tiles = b.tiles - a.tiles;
  d.steals = b.steals - a.steals;
  d.inline_batches = b.inline_batches - a.inline_batches;
  d.busy_seconds = b.busy_seconds - a.busy_seconds;
  if (a.thread_busy_seconds.size() == b.thread_busy_seconds.size())
    for (std::size_t i = 0; i < d.thread_busy_seconds.size(); ++i)
      d.thread_busy_seconds[i] -= a.thread_busy_seconds[i];
  return d;
}

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool files_identical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 16), bb(1 << 16);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    const std::streamsize na = fa.gcount(), nb = fb.gcount();
    if (na != nb) return false;
    if (na == 0) return true;
    if (!std::equal(ba.begin(), ba.begin() + na, bb.begin())) return false;
  }
}

int interior_margin(const core::SmaConfig& c) {
  return c.surface_fit_radius + std::max(c.z_search_radius, c.z_search_ry()) +
         std::max(c.z_template_radius, c.z_template_ry()) +
         c.effective_nss() + c.semifluid_template_radius;
}

// ------------------------------------------------------- per-layer metrics

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_common_layer_metrics(RunResult& out, const MatchTally& m,
                              const sma::sched::SchedStats& s,
                              double window_seconds, long pairs,
                              const Tracer& tracer, double traced_wall) {
  auto& L = out.per_layer;
  const double n = static_cast<double>(std::max(pairs, 1L));
  L["match.semifluid_mapping_ms"] = {1e3 * m.semifluid_seconds / n, "ms"};
  L["match.hypothesis_ms"] = {1e3 * m.hypothesis_seconds / n, "ms"};
  const double hypotheses =
      static_cast<double>(m.hypotheses + m.coarse + m.fine_scheduled);
  L["match.hypotheses_per_px"] = {
      ratio(hypotheses, static_cast<double>(m.pixels)), "count"};
  const double hyp_seconds =
      m.hypothesis_seconds > 0.0 ? m.hypothesis_seconds : m.match_seconds;
  L["match.ns_per_hypothesis"] = {1e9 * ratio(hyp_seconds, hypotheses), "ns"};
  L["match.vector_fallback"] = {
      ratio(static_cast<double>(m.vector_fallbacks),
            static_cast<double>(m.calls)),
      "frac"};
  L["match.lane_utilization"] = {
      ratio(static_cast<double>(m.batched),
            static_cast<double>(m.batched + m.tail)),
      "frac"};

  L["prune.hypothesis_reduction"] = {
      ratio(static_cast<double>(m.full_grid),
            static_cast<double>(m.coarse + m.fine_scheduled)),
      "x"};
  L["prune.seed_hit_rate"] = {
      ratio(static_cast<double>(m.seed_interior),
            static_cast<double>(m.window_pixels)),
      "frac"};
  L["prune.bound_skip_frac"] = {
      ratio(static_cast<double>(m.bound_skipped),
            static_cast<double>(m.bound_checks)),
      "frac"};

  L["sched.busy_frac"] = {
      ratio(s.busy_seconds, static_cast<double>(s.threads) * window_seconds),
      "frac"};
  double lo = 0.0, hi = 0.0;
  if (!s.thread_busy_seconds.empty()) {
    lo = *std::min_element(s.thread_busy_seconds.begin(),
                           s.thread_busy_seconds.end());
    hi = *std::max_element(s.thread_busy_seconds.begin(),
                           s.thread_busy_seconds.end());
  }
  L["sched.busy_imbalance"] = {ratio(hi, lo), "x"};
  L["sched.tiles_per_pair"] = {static_cast<double>(s.tiles) / n, "count"};
  L["sched.steals_per_tile"] = {
      ratio(static_cast<double>(s.steals), static_cast<double>(s.tiles)),
      "count"};

  double attributed = 0.0;
  for (const auto& [layer, sec] : tracer.self_seconds()) attributed += sec;
  L["trace.unattributed_frac"] = {ratio(traced_wall - attributed, traced_wall),
                                  "frac"};
  L["trace.overhead_frac"] = {
      ratio(tracer.overhead_seconds() + m.bookkeeping_seconds, traced_wall),
      "frac"};
}

void add_attribution_table(RunResult& out, const std::string& workload,
                           const Tracer& tracer, double traced_wall,
                           long pairs) {
  const double n = static_cast<double>(std::max(pairs, 1L));
  std::vector<std::pair<double, std::string>> rows;
  double attributed = 0.0;
  for (const auto& [layer, sec] : tracer.self_seconds()) {
    rows.emplace_back(sec, layer);
    attributed += sec;
  }
  std::sort(rows.rbegin(), rows.rend());
  rows.emplace_back(traced_wall - attributed, "unattributed");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "attribution %s: traced wall %.3f s over %ld pairs",
                workload.c_str(), traced_wall, pairs);
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "  %-32s %12s %12s %8s", "layer (self time)",
                "total_ms", "ms_per_pair", "share");
  out.notes.push_back(buf);
  double sum = 0.0;
  for (const auto& [sec, layer] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-32s %12.3f %12.3f %7.2f%%",
                  layer.c_str(), 1e3 * sec, 1e3 * sec / n,
                  100.0 * ratio(sec, traced_wall));
    out.notes.push_back(buf);
    sum += sec;
  }
  std::snprintf(buf, sizeof(buf), "  %-32s %12.3f %12.3f %7.2f%%", "sum",
                1e3 * sum, 1e3 * sum / n, 100.0 * ratio(sum, traced_wall));
  out.notes.push_back(buf);
}

}  // namespace perfbench
