/// \file builders.h
/// Builders for the paper's three photonic benchmarks (Section IV-A): the
/// 90-degree bend, the waveguide crossing, and the magneto-optic isolator —
/// each a `device_spec` with geometry, ports, monitors, and objective at
/// lambda = 1.55 um on a configurable grid pitch. A spec names them through
/// `api::device_table`. `resolution` is the grid pitch in um (default
/// 50 nm); coarser values are used by fast tests. All builders use a
/// silicon core and air cladding.

#pragma once

#include "devices/spec.h"

namespace boson::dev {

/// 90-degree waveguide bend: light enters from the left and must exit
/// through the top port. FoM: TM1 transmission efficiency (higher better).
device_spec make_bend(double resolution = 0.05);

/// Waveguide crossing: light must traverse the intersection with minimal
/// crosstalk into the vertical arms. FoM: transmission (higher better).
device_spec make_crossing(double resolution = 0.05);

/// Optical isolator benchmark: forward TM1 -> TM3 mode conversion with high
/// efficiency; backward TM1 must not return to TM1. FoM: isolation contrast
/// E_bwd / E_fwd (lower better).
device_spec make_isolator(double resolution = 0.05);

}  // namespace boson::dev
