// semifluid.hpp — F_semi: the semi-fluid template mapping (Sec. 2.3).
//
// "The semi-fluid motion paradigm relaxes the local continuity constraint
// for a small surface patch."  For each template pixel, instead of the
// rigidly shifted target p + h prescribed by F_cont, a square
// (2N_ss+1) x (2N_ss+1) search window centered on p + h is scanned and
// the candidate minimizing the change of the intensity-surface
// discriminant over the (2N_sT+1) x (2N_sT+1) semi-fluid template is
// selected (Eqs. 9-11):
//
//   eps_semi(p; q) = (1/|eta_sT|) * sum_{s in eta_sT} (D'(q+s) - D(p+s))^2
//   F_semi(p)      = argmin_{q in eta_ss(p+h)} eps_semi(p; q)
//
// where D is the Hessian discriminant of the fitted quadratic intensity
// patch (geometry.hpp).  With N_ss = 0 the argmin degenerates to p + h and
// F_semi == F_cont (tested invariant).
//
// Sec. 4.1 optimization: because every pixel is tracked and templates
// overlap, the matching cost between a pixel p and an offset o depends
// only on (p, o).  SemiFluidCostField therefore precomputes cost layers
// C_o(p) for all offsets o in the extended
// (2(N_zs + N_ss) + 1)^2 window — "computing the error term in (10) for
// all pixels in a (2N_zs + 2N_ss + 1) x (2N_zs + 2N_ss + 1) neighborhood
// centered around the pixel being tracked, and then applying a
// (2N_ss + 1) x (2N_ss + 1) window ... and performing the minimization
// given in (9)".  Each layer is a box-filtered squared-difference image,
// so the precompute is O(pixels * offsets) instead of
// O(pixels * hypotheses * template * search).
//
// Sec. 4.3 segmentation: the full set of layers may exceed PE memory
// (67.7 KB/PE for a 23x23 search with 16 pixels/PE), so layers can be
// built for a band of offset rows at a time ("segments are in multiples
// of rows of the search or hypothesis neighborhood") and discarded after
// the corresponding hypotheses are evaluated.
//
// SemiFluidTable goes one step further and hoists the argmin of Eq. (9)
// itself: M_h(p), the winning N_ss offset for template pixel p under
// hypothesis h, depends on neither the tracked center pixel nor the
// template it sits in, so one byte per (p, h) replaces the per-template
// re-minimization.  It is built from a rolling band of 2N_ss+1 offset
// rows of cost layers — build a row, use it for every hypothesis row
// whose window covers it, discard it — so the full cost field is never
// resident.  The image is further cut into strips of kStripRows pixel
// rows, each rolling its own band, so the resident layers no longer
// scale with the image height (the horizontal box pass recomputes N_sT
// halo rows at each strip edge).  A strip reads only the shared
// discriminants and writes only its own code rows, so a parallel build
// runs the strips as tasks on the sched pool and yields the same table
// at any width; band_bytes() then counts one band per strip that can be
// resident at once.  Within a strip the argmin is two passes that
// vectorize: the least cost over the window, then the code preferred on
// a tie among those that attain it.  When no candidate cost is finite
// the window centre is kept, as semifluid_match does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "imaging/image.hpp"

namespace sma::core {

/// Direct (naive) evaluation of eps_semi between template pixel p in D
/// and candidate q in D', averaged over the semi-fluid template.
double semifluid_cost(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int px, int py,
                      int qx, int qy, int nst);

/// Direct argmin of eps_semi over the (2*nss+1)^2 window centered at
/// (cx, cy); ties break toward the window center then raster order,
/// matching SemiFluidCostField::best_offset.
std::pair<int, int> semifluid_match(const imaging::ImageF& disc_before,
                                    const imaging::ImageF& disc_after,
                                    int px, int py, int cx, int cy, int nss,
                                    int nst);

/// Precomputed matching-cost layers over a band of offset rows.
class SemiFluidCostField {
 public:
  /// Builds layers C_o for offsets o with oy in [oy_min, oy_max] and
  /// ox in [-ox_radius, +ox_radius], over the pixel rows
  /// [row_min, row_max] (row_max = -1: through the last row).
  SemiFluidCostField(const imaging::ImageF& disc_before,
                     const imaging::ImageF& disc_after, int ox_radius,
                     int oy_min, int oy_max, int nst, int row_min = 0,
                     int row_max = -1);

  int ox_radius() const { return ox_radius_; }
  int oy_min() const { return oy_min_; }
  int oy_max() const { return oy_max_; }

  /// Matching cost between pixel p and offset (ox, oy).  Offsets outside
  /// the built band, and rows outside the built rows of a row-limited
  /// field, are a contract violation (offsets assert in debug builds).
  /// Stored in double precision with the same summation grouping as
  /// `semifluid_cost`, so the two paths are bit-identical and the
  /// bench_precompute_ablation equivalence is exact.
  double cost(int px, int py, int ox, int oy) const {
    const std::size_t idx = layer_index(ox, oy);
    return layers_[idx].at_clamped(px, py - row_min_);
  }

  /// argmin over the (2*nss+1)^2 window centered at offset (cx, cy),
  /// returning the winning offset relative to p.  Tie-break: smallest
  /// displacement from the window center, then raster order — a
  /// deterministic rule shared with `semifluid_match`.
  std::pair<int, int> best_offset(int px, int py, int cx, int cy,
                                  int nss) const;

  /// Layer C_o itself (same contract as `cost` for the offset); its row
  /// 0 is pixel row row_min.
  const imaging::ImageD& layer(int ox, int oy) const {
    return layers_[layer_index(ox, oy)];
  }

  /// Bytes held by the layers (used by the PE-memory accounting).
  std::size_t bytes() const;

 private:
  std::size_t layer_index(int ox, int oy) const;

  int ox_radius_;
  int oy_min_;
  int oy_max_;
  int row_min_;
  std::vector<imaging::ImageD> layers_;
};

/// The per-segment semi-fluid correspondence table M_h(p): for every
/// pixel p and every hypothesis h = (hx, hy) with |hx| <= hx_radius and
/// hy in [hy_min, hy_max], the winning offset of the (2N_ss+1)^2 window
/// centered on h — the same argmin and tie-break as
/// SemiFluidCostField::best_offset and semifluid_match, so consumers are
/// bit-identical to either.  Entries are one byte, the raster index of
/// the winner inside the window, stored [hy][py][px][hx] so the lanes of
/// a batch of consecutive hx read contiguous bytes.
class SemiFluidTable {
 public:
  /// Largest N_ss whose window index fits the one-byte entries.
  static constexpr int kMaxNss = kMaxSemiFluidSearchRadius;
  /// Pixel rows per cost-layer strip.
  static constexpr int kStripRows = 8;

  /// With `parallel` the strips run as one batch on the shared sched
  /// pool, on at most `max_executors` workers (0 = the whole pool);
  /// otherwise on the caller, in order.  The entries are the same
  /// either way.
  SemiFluidTable(const imaging::ImageF& disc_before,
                 const imaging::ImageF& disc_after, int hx_radius,
                 int hy_min, int hy_max, int nss, int nst,
                 bool parallel = false, int max_executors = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  int hx_radius() const { return hx_radius_; }
  int hy_min() const { return hy_min_; }
  int hy_max() const { return hy_max_; }
  int nss() const { return nss_; }

  /// Window codes of in-image pixel (px, py) for hypothesis row hy, one
  /// per hx in ascending order from -hx_radius.
  const std::uint8_t* codes(int px, int py, int hy) const {
    return codes_.data() +
           ((static_cast<std::size_t>(hy - hy_min_) * height_ + py) * width_ +
            px) * static_cast<std::size_t>(2 * hx_radius_ + 1);
  }
  /// Displacement of window code `c` from the window center.
  int code_dx(std::uint8_t c) const { return dx_[c]; }
  int code_dy(std::uint8_t c) const { return dy_[c]; }

  /// M_h(p) as an offset relative to p: (hx, hy) plus the winner's
  /// displacement — the SemiFluidCostField::best_offset convention.
  std::pair<int, int> offset(int px, int py, int hx, int hy) const {
    const std::uint8_t c = codes(px, py, hy)[hx + hx_radius_];
    return {hx + dx_[c], hy + dy_[c]};
  }

  /// Bytes held by the table entries.
  std::size_t bytes() const { return codes_.size(); }
  /// High-water bytes of the cost-layer bands during the build: one
  /// strip's band times the strips that can be resident at once.
  std::size_t band_bytes() const { return band_bytes_; }

 private:
  int width_;
  int height_;
  int hx_radius_;
  int hy_min_;
  int hy_max_;
  int nss_;
  std::size_t band_bytes_ = 0;
  std::array<std::int8_t, 256> dx_{};
  std::array<std::int8_t, 256> dy_{};
  std::vector<std::uint8_t> codes_;
};

}  // namespace sma::core
