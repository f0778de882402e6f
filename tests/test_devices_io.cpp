#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>

#include "devices/builders.h"
#include "io/csv.h"
#include "io/json.h"
#include "io/pgm.h"
#include "io/table.h"

namespace boson {
namespace {

// -------------------------------------------------------------- devices ----

// GoogleTest names each case by the raw bytes of its parameter, so every byte
// of these case structs is a declared field: uninitialized padding would put
// stack garbage into the case names and change them from run to run. The tag
// values keep the case names these suites are listed under.
struct device_case {
  dev::device_kind kind;
  std::uint32_t name_tag;
  double resolution;
};
static_assert(sizeof(device_case) == 16, "device_case must have no padding");

class device_builders : public ::testing::TestWithParam<device_case> {};

TEST_P(device_builders, geometry_is_well_formed) {
  const auto kind = GetParam().kind;
  const double res = GetParam().resolution;
  const auto d = dev::make_device(kind, res);

  EXPECT_FALSE(d.name.empty());
  EXPECT_GT(d.k0, 0.0);
  ASSERT_EQ(d.background_occupancy.nx(), d.grid.nx);
  ASSERT_EQ(d.background_occupancy.ny(), d.grid.ny);
  ASSERT_EQ(d.reference_occupancy.nx(), d.grid.nx);
  EXPECT_NO_THROW(d.design.validate_within(d.grid));

  // Occupancy maps are binary.
  for (const double v : d.background_occupancy) EXPECT_TRUE(v == 0.0 || v == 1.0);
  for (const double v : d.reference_occupancy) EXPECT_TRUE(v == 0.0 || v == 1.0);

  // The design window itself is left empty in the background.
  for (std::size_t i = 0; i < d.design.nx; ++i)
    for (std::size_t j = 0; j < d.design.ny; ++j)
      EXPECT_EQ(d.background_occupancy(d.design.ix0 + i, d.design.iy0 + j), 0.0);

  // Init field has both solid and void regions.
  const auto [lo, hi] = min_max(d.init_signed_field);
  EXPECT_LT(lo, 0.0);
  EXPECT_GT(hi, 0.0);
  ASSERT_EQ(d.init_signed_field.nx(), d.design.nx);
  ASSERT_EQ(d.init_signed_field.ny(), d.design.ny);
}

TEST_P(device_builders, ports_are_inside_the_interior) {
  const auto kind = GetParam().kind;
  const double res = GetParam().resolution;
  const auto d = dev::make_device(kind, res);
  const std::size_t pml = d.pml.cells;

  auto check_port = [&](const dev::port& p) {
    if (p.axis == fdfd::port_axis::vertical) {
      EXPECT_GT(p.line, pml);
      EXPECT_LT(p.line, d.grid.nx - pml);
      EXPECT_GE(p.span_start, pml);
      EXPECT_LE(p.span_start + p.span_count, d.grid.ny - pml);
    } else {
      EXPECT_GT(p.line, pml);
      EXPECT_LT(p.line, d.grid.ny - pml);
      EXPECT_GE(p.span_start, pml);
      EXPECT_LE(p.span_start + p.span_count, d.grid.nx - pml);
    }
  };
  for (const auto& exc : d.excitations) {
    check_port(exc.source);
    check_port(exc.reference_monitor.p);
    for (const auto& mm : exc.mode_monitors) check_port(mm.p);
    for (const auto& fm : exc.flux_monitors) {
      EXPECT_GT(fm.index, pml);
      EXPECT_GE(fm.span_start, pml / 2);
    }
  }
}

TEST_P(device_builders, objective_references_defined_metrics_and_monitors) {
  const auto kind = GetParam().kind;
  const double res = GetParam().resolution;
  const auto d = dev::make_device(kind, res);

  std::set<std::string> monitor_names;
  for (const auto& exc : d.excitations) {
    for (const auto& mm : exc.mode_monitors) monitor_names.insert(exc.name + "." + mm.name);
    for (const auto& fm : exc.flux_monitors) monitor_names.insert(exc.name + "." + fm.name);
  }
  std::set<std::string> metric_names;
  for (const auto& m : d.objective.metrics) {
    metric_names.insert(m.name);
    for (const auto& t : m.terms)
      EXPECT_TRUE(monitor_names.count(t.monitor)) << "unknown monitor " << t.monitor;
  }
  if (d.objective.kind == dev::objective_kind::maximize_metric) {
    EXPECT_TRUE(metric_names.count(d.objective.primary));
    EXPECT_TRUE(metric_names.count(d.objective.fom_metric));
  } else {
    EXPECT_TRUE(metric_names.count(d.objective.primary));
    EXPECT_TRUE(metric_names.count(d.objective.secondary));
    EXPECT_EQ(d.objective.fom_metric, "contrast");
  }
  for (const auto& pen : d.objective.dense_penalties)
    EXPECT_TRUE(metric_names.count(pen.metric)) << "penalty on unknown metric " << pen.metric;
}

INSTANTIATE_TEST_SUITE_P(
    all, device_builders,
    ::testing::Values(device_case{dev::device_kind::bend, 0, 0.05},
                      device_case{dev::device_kind::bend, 0x7fff, 0.1},
                      device_case{dev::device_kind::crossing, 0, 0.05},
                      device_case{dev::device_kind::crossing, 0, 0.1},
                      device_case{dev::device_kind::isolator, 0, 0.05},
                      device_case{dev::device_kind::isolator, 0x7fff, 0.1}));

TEST(devices, names_match_paper_benchmarks) {
  EXPECT_STREQ(dev::to_string(dev::device_kind::bend), "bending");
  EXPECT_STREQ(dev::to_string(dev::device_kind::crossing), "crossing");
  EXPECT_STREQ(dev::to_string(dev::device_kind::isolator), "isolator");
}

TEST(devices, isolator_has_forward_and_backward_excitations) {
  const auto d = dev::make_isolator(0.1);
  ASSERT_EQ(d.excitations.size(), 2u);
  EXPECT_EQ(d.excitations[0].name, "fwd");
  EXPECT_EQ(d.excitations[1].name, "bwd");
  EXPECT_EQ(d.excitations[0].source.direction, +1);
  EXPECT_EQ(d.excitations[1].source.direction, -1);
  EXPECT_EQ(d.excitations[0].mode_monitors.at(0).mode_order, 3);  // TM3 out
  EXPECT_EQ(d.excitations[1].mode_monitors.at(0).mode_order, 1);  // TM1 back
  EXPECT_TRUE(d.objective.fom_lower_better);
}

TEST(devices, bend_init_traces_the_arc) {
  const auto d = dev::make_bend(0.05);
  const auto& f = d.init_signed_field;
  // Solid near the arc (e.g. bottom-left entry region aligned with the input
  // waveguide centerline), void in the far corner.
  EXPECT_GT(f(0, 7), 0.0);           // entry at y ~= 1.8 um (design-local)
  EXPECT_LT(f(f.nx() - 1, 0), 0.0);  // bottom-right far from the arc
}

TEST(devices, crossing_is_symmetric_under_xy_swap) {
  const auto d = dev::make_crossing(0.05);
  for (std::size_t i = 0; i < d.grid.nx; ++i)
    for (std::size_t j = 0; j < d.grid.ny; ++j)
      EXPECT_EQ(d.background_occupancy(i, j), d.background_occupancy(j, i));
}

TEST(devices, invalid_resolution_rejected) {
  EXPECT_THROW(dev::make_bend(0.0), bad_argument);
  EXPECT_THROW(dev::make_crossing(0.5), bad_argument);
}

// ------------------------------------------------------------------- io ----

TEST(csv, writes_header_and_rows) {
  const std::string path = ::testing::TempDir() + "boson_test.csv";
  {
    io::csv_writer w(path, {"name", "a", "b"});
    w.write_row({"row1", "1.5", "2"});
    w.write_row("row2", {3.25, -4.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "row1,1.5,2");
  std::getline(in, line);
  EXPECT_EQ(line, "row2,3.25,-4");
  std::remove(path.c_str());
}

TEST(csv, escapes_cells_with_commas) {
  const std::string path = ::testing::TempDir() + "boson_escape.csv";
  {
    io::csv_writer w(path, {"x", "y"});
    w.write_row({"hello, world", "plain"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"hello, world\",plain");
  std::remove(path.c_str());
}

TEST(csv, column_mismatch_throws) {
  const std::string path = ::testing::TempDir() + "boson_cols.csv";
  io::csv_writer w(path, {"a", "b"});
  EXPECT_THROW(w.write_row({"only-one"}), bad_argument);
  std::remove(path.c_str());
}

TEST(table, renders_aligned_columns) {
  io::console_table t({"model", "fom"});
  t.add_row({"Density", io::console_table::sci(4.89e-6)});
  t.add_row({"BOSON-1", io::console_table::num(0.9671, 4)});
  const std::string text = t.render("Table X");
  EXPECT_NE(text.find("Table X"), std::string::npos);
  EXPECT_NE(text.find("Density"), std::string::npos);
  EXPECT_NE(text.find("4.89e-06"), std::string::npos);
  EXPECT_NE(text.find("0.9671"), std::string::npos);
  // All data lines share the same width.
  std::size_t first_len = std::string::npos;
  std::size_t pos = text.find('\n') + 1;  // skip title
  while (pos < text.size()) {
    const std::size_t next = text.find('\n', pos);
    if (next == std::string::npos) break;
    const std::size_t len = next - pos;
    if (first_len == std::string::npos) first_len = len;
    EXPECT_EQ(len, first_len);
    pos = next + 1;
  }
}

TEST(pgm, writes_valid_header_and_size) {
  const std::string path = ::testing::TempDir() + "boson_test.pgm";
  array2d<double> img(8, 4);
  for (std::size_t i = 0; i < img.size(); ++i) img.data()[i] = static_cast<double>(i) / 31.0;
  io::write_pgm(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::size_t w, h, maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 8u);
  EXPECT_EQ(h, 4u);
  EXPECT_EQ(maxval, 255u);
  in.get();  // single whitespace after header
  std::string pixels((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(pixels.size(), 32u);
  std::remove(path.c_str());
}

TEST(json, scalars_and_strings_serialize) {
  EXPECT_EQ(io::json_value(true).dump(), "true");
  EXPECT_EQ(io::json_value(2.5).dump(), "2.5");
  EXPECT_EQ(io::json_value(42).dump(), "42");
  EXPECT_EQ(io::json_value("hi").dump(), "\"hi\"");
  EXPECT_EQ(io::json_value().dump(), "null");
}

TEST(json, escapes_special_characters) {
  EXPECT_EQ(io::json_value("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(json, nan_becomes_null) {
  EXPECT_EQ(io::json_value(std::nan("")).dump(), "null");
}

TEST(json, objects_preserve_insertion_order) {
  auto obj = io::json_value::object();
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  const std::string compact = obj.dump(-1);
  EXPECT_EQ(compact, "{\"zeta\":1,\"alpha\":2}");
}

TEST(json, nested_structures) {
  auto root = io::json_value::object();
  root["name"] = "table1";
  auto& rows = root["rows"];
  auto row = io::json_value::object();
  row["model"] = "BOSON-1";
  row["fom"] = 0.967;
  rows.push_back(std::move(row));
  const std::string compact = root.dump(-1);
  EXPECT_EQ(compact, "{\"name\":\"table1\",\"rows\":[{\"model\":\"BOSON-1\",\"fom\":0.967}]}");
  // Pretty output contains newlines and indentation.
  const std::string pretty = root.dump(2);
  EXPECT_NE(pretty.find("\n  \"name\""), std::string::npos);
}

TEST(json, from_map_and_file_round_trip) {
  const std::map<std::string, double> metrics{{"a", 1.0}, {"b", -2.5}};
  auto obj = io::json_value::from_map(metrics);
  EXPECT_EQ(obj.dump(-1), "{\"a\":1,\"b\":-2.5}");
  const std::string path = ::testing::TempDir() + "boson_test.json";
  obj.write_file(path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"b\": -2.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(json, type_misuse_throws) {
  io::json_value num(1.0);
  EXPECT_THROW(num["key"], bad_argument);
  EXPECT_THROW(num.push_back(io::json_value(2.0)), bad_argument);
}

TEST(pgm, clamps_out_of_range_values) {
  const std::string path = ::testing::TempDir() + "boson_clamp.pgm";
  array2d<double> img(2, 2);
  img(0, 0) = -5.0;
  img(1, 1) = 7.0;
  EXPECT_NO_THROW(io::write_pgm(path, img));
  EXPECT_THROW(io::write_pgm(path, img, 1.0, 1.0), bad_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace boson
