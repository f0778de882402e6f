#include "devices/builders.h"

#include <cmath>

#include "common/error.h"

namespace boson::dev {

namespace {

constexpr double lambda_c = 1.55;  ///< central wavelength [um]

std::size_t cell_of(double position, double res) {
  return static_cast<std::size_t>(std::llround(position / res));
}

std::size_t count_of(double length, double res) {
  return static_cast<std::size_t>(std::llround(length / res));
}

grid2d make_grid(double width, double height, double res) {
  grid2d g;
  g.nx = count_of(width, res);
  g.ny = count_of(height, res);
  g.dx = g.dy = res;
  g.x0 = g.y0 = 0.0;
  return g;
}

pml_spec make_pml(double res) {
  pml_spec p;
  p.cells = std::max<std::size_t>(6, count_of(0.6, res));
  return p;
}

/// Mark cells whose center lies in [x0, x1) x [y0, y1) as solid.
void paint_rect(array2d<double>& occ, const grid2d& g, double x0, double x1, double y0,
                double y1) {
  for (std::size_t ix = 0; ix < g.nx; ++ix) {
    const double x = g.x_center(ix);
    if (x < x0 || x >= x1) continue;
    for (std::size_t iy = 0; iy < g.ny; ++iy) {
      const double y = g.y_center(iy);
      if (y >= y0 && y < y1) occ(ix, iy) = 1.0;
    }
  }
}

cell_window window_of(const grid2d& g, double x0, double y0, double w, double h, double res) {
  cell_window win;
  win.ix0 = cell_of(x0, res);
  win.iy0 = cell_of(y0, res);
  win.nx = count_of(w, res);
  win.ny = count_of(h, res);
  win.validate_within(g);
  return win;
}

/// The design window belongs to the optimizer: fixed geometry must not
/// pre-populate it (the pattern overwrites those cells at simulation time).
void clear_window(array2d<double>& occ, const cell_window& win) {
  for (std::size_t i = 0; i < win.nx; ++i)
    for (std::size_t j = 0; j < win.ny; ++j) occ(win.ix0 + i, win.iy0 + j) = 0.0;
}

port vertical_port(double x, double y_lo, double y_hi, int direction, double res) {
  port p;
  p.axis = fdfd::port_axis::vertical;
  p.line = cell_of(x, res);
  p.span_start = cell_of(y_lo, res);
  p.span_count = count_of(y_hi - y_lo, res);
  p.direction = direction;
  return p;
}

port horizontal_port(double y, double x_lo, double x_hi, int direction, double res) {
  port p;
  p.axis = fdfd::port_axis::horizontal;
  p.line = cell_of(y, res);
  p.span_start = cell_of(x_lo, res);
  p.span_count = count_of(x_hi - x_lo, res);
  p.direction = direction;
  return p;
}

flux_monitor_def vertical_flux(const std::string& name, double x, double y_lo, double y_hi,
                               double sign, double res) {
  flux_monitor_def f;
  f.name = name;
  f.axis = fdfd::port_axis::vertical;
  f.index = cell_of(x, res);
  f.span_start = cell_of(y_lo, res);
  f.span_count = count_of(y_hi - y_lo, res);
  f.sign = sign;
  return f;
}

flux_monitor_def horizontal_flux(const std::string& name, double y, double x_lo, double x_hi,
                                 double sign, double res) {
  flux_monitor_def f;
  f.name = name;
  f.axis = fdfd::port_axis::horizontal;
  f.index = cell_of(y, res);
  f.span_start = cell_of(x_lo, res);
  f.span_count = count_of(x_hi - x_lo, res);
  f.sign = sign;
  return f;
}

}  // namespace

device_spec make_bend(double resolution) {
  require(resolution > 0.0 && resolution <= 0.1, "make_bend: resolution out of range");
  const double res = resolution;
  device_spec d;
  d.name = "bending";
  d.grid = make_grid(4.4, 4.4, res);
  d.pml = make_pml(res);
  d.k0 = 2.0 * pi / lambda_c;

  // Input waveguide from the left (centerline y = 1.8), output through the
  // top (centerline x = 2.6); both 0.4 um wide. Design region 1.6 x 1.6 um.
  d.background_occupancy = array2d<double>(d.grid.nx, d.grid.ny, 0.0);
  paint_rect(d.background_occupancy, d.grid, 0.0, 1.4, 1.6, 2.0);
  paint_rect(d.background_occupancy, d.grid, 2.4, 2.8, 3.0, 4.4);

  d.reference_occupancy = array2d<double>(d.grid.nx, d.grid.ny, 0.0);
  paint_rect(d.reference_occupancy, d.grid, 0.0, 4.4, 1.6, 2.0);

  d.design = window_of(d.grid, 1.4, 1.4, 1.6, 1.6, res);
  clear_window(d.background_occupancy, d.design);

  excitation fwd;
  fwd.name = "fwd";
  fwd.source = vertical_port(0.8, 0.8, 2.8, +1, res);
  fwd.source_mode_order = 1;
  fwd.mode_monitors.push_back({"out", horizontal_port(3.6, 1.6, 3.6, +1, res), 1});
  fwd.flux_monitors.push_back(vertical_flux("influx", 1.1, 0.8, 3.6, +1.0, res));
  fwd.reference_monitor = {"ref", vertical_port(3.6, 0.8, 2.8, +1, res), 1};
  d.excitations.push_back(std::move(fwd));

  objective_spec obj;
  obj.kind = objective_kind::maximize_metric;
  obj.primary = "transmission";
  obj.metrics = {
      {"transmission", 0.0, {{"fwd.out", 1.0}}},
      {"reflection", 1.0, {{"fwd.influx", -1.0}}},
      {"radiation", 0.0, {{"fwd.influx", 1.0}, {"fwd.out", -1.0}}},
  };
  obj.dense_penalties = {
      {"reflection", 0.5, 0.05, true},
      {"radiation", 0.5, 0.10, true},
  };
  obj.fom_metric = "transmission";
  obj.fom_lower_better = false;
  d.objective = std::move(obj);

  // Quarter-circle arc of radius 1.2 um around the design window's top-left
  // corner connects the two port centerlines.
  d.init_signed_field = array2d<double>(d.design.nx, d.design.ny);
  const double cx = 1.4, cy = 3.0, radius = 1.2, half_width = 0.2;
  for (std::size_t ix = 0; ix < d.design.nx; ++ix) {
    const double x = d.grid.x_center(d.design.ix0 + ix);
    for (std::size_t iy = 0; iy < d.design.ny; ++iy) {
      const double y = d.grid.y_center(d.design.iy0 + iy);
      const double r = std::hypot(x - cx, y - cy);
      d.init_signed_field(ix, iy) = (half_width - std::abs(r - radius)) / half_width;
    }
  }
  return d;
}

device_spec make_crossing(double resolution) {
  require(resolution > 0.0 && resolution <= 0.1, "make_crossing: resolution out of range");
  const double res = resolution;
  device_spec d;
  d.name = "crossing";
  d.grid = make_grid(4.4, 4.4, res);
  d.pml = make_pml(res);
  d.k0 = 2.0 * pi / lambda_c;

  // Two 0.4 um waveguides crossing at (2.2, 2.2); design region 1.6 x 1.6 um.
  d.background_occupancy = array2d<double>(d.grid.nx, d.grid.ny, 0.0);
  paint_rect(d.background_occupancy, d.grid, 0.0, 4.4, 2.0, 2.4);
  paint_rect(d.background_occupancy, d.grid, 2.0, 2.4, 0.0, 4.4);

  d.reference_occupancy = array2d<double>(d.grid.nx, d.grid.ny, 0.0);
  paint_rect(d.reference_occupancy, d.grid, 0.0, 4.4, 2.0, 2.4);

  d.design = window_of(d.grid, 1.4, 1.4, 1.6, 1.6, res);
  clear_window(d.background_occupancy, d.design);

  excitation fwd;
  fwd.name = "fwd";
  fwd.source = vertical_port(0.8, 1.2, 3.2, +1, res);
  fwd.source_mode_order = 1;
  fwd.mode_monitors.push_back({"out", vertical_port(3.6, 1.2, 3.2, +1, res), 1});
  fwd.flux_monitors.push_back(vertical_flux("influx", 1.1, 0.8, 3.6, +1.0, res));
  fwd.flux_monitors.push_back(horizontal_flux("xtalk_up", 3.6, 1.8, 2.6, +1.0, res));
  fwd.flux_monitors.push_back(horizontal_flux("xtalk_dn", 0.8, 1.8, 2.6, -1.0, res));
  fwd.reference_monitor = {"ref", vertical_port(3.6, 1.2, 3.2, +1, res), 1};
  d.excitations.push_back(std::move(fwd));

  objective_spec obj;
  obj.kind = objective_kind::maximize_metric;
  obj.primary = "transmission";
  obj.metrics = {
      {"transmission", 0.0, {{"fwd.out", 1.0}}},
      {"reflection", 1.0, {{"fwd.influx", -1.0}}},
      {"crosstalk", 0.0, {{"fwd.xtalk_up", 1.0}, {"fwd.xtalk_dn", 1.0}}},
      {"radiation",
       0.0,
       {{"fwd.influx", 1.0}, {"fwd.out", -1.0}, {"fwd.xtalk_up", -1.0}, {"fwd.xtalk_dn", -1.0}}},
  };
  obj.dense_penalties = {
      {"reflection", 0.5, 0.05, true},
      {"crosstalk", 1.0, 0.02, true},
      {"radiation", 0.5, 0.10, true},
  };
  obj.fom_metric = "transmission";
  obj.fom_lower_better = false;
  d.objective = std::move(obj);

  // Plain cross: solid where either arm passes.
  d.init_signed_field = array2d<double>(d.design.nx, d.design.ny);
  const double half_width = 0.2, center = 2.2;
  for (std::size_t ix = 0; ix < d.design.nx; ++ix) {
    const double x = d.grid.x_center(d.design.ix0 + ix);
    for (std::size_t iy = 0; iy < d.design.ny; ++iy) {
      const double y = d.grid.y_center(d.design.iy0 + iy);
      const double dist = std::min(std::abs(x - center), std::abs(y - center));
      d.init_signed_field(ix, iy) = (half_width - dist) / half_width;
    }
  }
  return d;
}

device_spec make_isolator(double resolution) {
  require(resolution > 0.0 && resolution <= 0.1, "make_isolator: resolution out of range");
  const double res = resolution;
  device_spec d;
  d.name = "isolator";
  d.grid = make_grid(5.6, 3.6, res);
  d.pml = make_pml(res);
  d.k0 = 2.0 * pi / lambda_c;

  // One wide (1.4 um) multimode waveguide through the domain; the design
  // region (2.4 x 2.0 um) straddles it.
  d.background_occupancy = array2d<double>(d.grid.nx, d.grid.ny, 0.0);
  paint_rect(d.background_occupancy, d.grid, 0.0, 5.6, 1.1, 2.5);

  d.reference_occupancy = d.background_occupancy;

  d.design = window_of(d.grid, 1.6, 0.8, 2.4, 2.0, res);
  clear_window(d.background_occupancy, d.design);

  excitation fwd;
  fwd.name = "fwd";
  fwd.source = vertical_port(0.8, 0.8, 2.8, +1, res);
  fwd.source_mode_order = 1;
  fwd.mode_monitors.push_back({"out3", vertical_port(4.6, 0.8, 2.8, +1, res), 3});
  fwd.flux_monitors.push_back(vertical_flux("influx", 1.2, 0.8, 2.8, +1.0, res));
  fwd.reference_monitor = {"ref", vertical_port(4.6, 0.8, 2.8, +1, res), 1};
  d.excitations.push_back(std::move(fwd));

  excitation bwd;
  bwd.name = "bwd";
  bwd.source = vertical_port(4.6, 0.8, 2.8, -1, res);
  bwd.source_mode_order = 1;
  bwd.mode_monitors.push_back({"out1", vertical_port(0.8, 0.8, 2.8, -1, res), 1});
  bwd.flux_monitors.push_back(vertical_flux("influx", 4.2, 0.8, 2.8, -1.0, res));
  bwd.reference_monitor = {"ref", vertical_port(0.8, 0.8, 2.8, -1, res), 1};
  d.excitations.push_back(std::move(bwd));

  objective_spec obj;
  obj.kind = objective_kind::minimize_ratio;
  obj.primary = "bwd_transmission";
  obj.secondary = "fwd_transmission";
  obj.metrics = {
      {"fwd_transmission", 0.0, {{"fwd.out3", 1.0}}},
      {"fwd_reflection", 1.0, {{"fwd.influx", -1.0}}},
      {"fwd_radiation", 0.0, {{"fwd.influx", 1.0}, {"fwd.out3", -1.0}}},
      {"bwd_transmission", 0.0, {{"bwd.out1", 1.0}}},
      {"bwd_reflection", 1.0, {{"bwd.influx", -1.0}}},
      {"bwd_radiation", 0.0, {{"bwd.influx", 1.0}, {"bwd.out1", -1.0}}},
  };
  // The paper's worked example (Section III-D1): forward transmission above
  // 80%, reflection below 10%, backward radiation above 90%, etc. — the
  // explicit backward-transmission cap belongs to the "etc." and keeps the
  // isolation pressure alive once the ratio term's gradient flattens.
  obj.dense_penalties = {
      {"fwd_transmission", 2.0, 0.80, false},
      {"fwd_reflection", 1.0, 0.10, true},
      {"bwd_radiation", 1.0, 0.90, false},
      {"bwd_transmission", 6.0, 0.005, true},
  };
  obj.fom_metric = "contrast";
  obj.fom_lower_better = true;
  d.objective = std::move(obj);

  // Straight wide guide through the design region concentrates the optical
  // path (the paper's initialization).
  d.init_signed_field = array2d<double>(d.design.nx, d.design.ny);
  const double half_width = 0.7, centerline = 1.8;
  for (std::size_t ix = 0; ix < d.design.nx; ++ix) {
    for (std::size_t iy = 0; iy < d.design.ny; ++iy) {
      const double y = d.grid.y_center(d.design.iy0 + iy);
      d.init_signed_field(ix, iy) = (half_width - std::abs(y - centerline)) / half_width;
    }
  }
  return d;
}

}  // namespace boson::dev
