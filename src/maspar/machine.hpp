// machine.hpp — MasPar MP-2 machine description (paper, Sec. 3.1).
//
// The Goddard MP-2: 16384 custom 32-bit RISC PEs in a 128 x 128
// rectangular grid under one Array Control Unit; 80 ns clock (12.5 MHz);
// 64 KB of PE memory each (1 GB aggregate); 8-way X-net nearest-neighbor
// mesh at 23.0 GB/s aggregate register-to-register; a three-stage global
// crossbar router at 1.3 GB/s ("the X-net bandwidth is 18 times higher
// than router communication"); PE memory load/store at 22.4 GB/s direct
// plural and 10.6 GB/s indirect; sustained compute of 60% of the 6.3
// GFlops single-precision peak, 2.4 GFlops double precision; and two
// RAID-3 MasPar Parallel Disk Arrays sustaining over 30 MB/s.
//
// The sequential comparator is the paper's SGI Onyx 2/VTX R8000/90
// (360 MFlops peak, Sec. 3); its sustained fraction is calibrated from
// the paper's own Fig. 4 / Table 2 sequential projections.
#pragma once

#include <cstdint>

namespace sma::maspar {

struct MachineSpec {
  int nxproc = 128;             ///< PE grid width
  int nyproc = 128;             ///< PE grid height
  double clock_hz = 12.5e6;     ///< 80 ns PE clock
  std::uint64_t pe_memory_bytes = 64 * 1024;  ///< Goddard configuration

  // Aggregate bandwidths (bytes/second), Sec. 3.1.
  double mem_direct_bw = 22.4e9;   ///< direct plural loads/stores
  double mem_indirect_bw = 10.6e9; ///< indirect (pointer) plural accesses
  double xnet_bw = 23.0e9;         ///< X-net register-to-register
  double router_bw = 1.3e9;        ///< global router sustained
  double mpda_bw = 30.0e6;         ///< parallel disk array sustained

  // Compute rates.
  double peak_sp_flops = 6.3e9;    ///< single precision peak
  double peak_dp_flops = 2.4e9;    ///< double precision
  double sustained_fraction = 0.60;///< "60% of the advertised peak"

  int pe_count() const { return nxproc * nyproc; }

  /// Sustained double-precision rate of the whole array (flops/s).
  double sustained_dp_flops() const {
    return peak_dp_flops * sustained_fraction;
  }

  /// The paper's headline ratio: X-net vs router bandwidth (~18).
  double xnet_router_ratio() const { return xnet_bw / router_bw; }
};

/// Sequential comparator: SGI Onyx 2/VTX R8000 90 MHz, -O3.
struct SgiSpec {
  double peak_flops = 360.0e6;
  /// Sustained fraction for the scalar, cache-unfriendly SMA inner loops;
  /// calibrated against the paper's 397-day Table 2 projection (see
  /// cost_model.cpp).
  double sustained_fraction = 0.04;

  double sustained_flops() const { return peak_flops * sustained_fraction; }
};

}  // namespace sma::maspar
