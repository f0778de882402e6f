#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/session.h"
#include "api/spec.h"
#include "io/json.h"

namespace boson {
namespace {

namespace fs = std::filesystem;

/// EXPECT that `fn` throws `Exception` whose message contains `fragment`.
template <class Exception, class Fn>
void expect_throw_with(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected an exception containing \"" << fragment << "\"";
  } catch (const Exception& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------------ json parse ---

TEST(json_parse, scalars) {
  EXPECT_TRUE(io::json_value::parse("null").is_null());
  EXPECT_TRUE(io::json_value::parse("true").as_bool());
  EXPECT_FALSE(io::json_value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(io::json_value::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(io::json_value::parse("-3.5e2").as_number(), -350.0);
  EXPECT_DOUBLE_EQ(io::json_value::parse("0.125").as_number(), 0.125);
  EXPECT_EQ(io::json_value::parse("\"hi\"").as_string(), "hi");
}

TEST(json_parse, string_escapes) {
  EXPECT_EQ(io::json_value::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(io::json_value::parse(R"("Aé")").as_string(), "A\xC3\xA9");
  // Surrogate pairs combine into one 4-byte UTF-8 code point.
  EXPECT_EQ(io::json_value::parse(R"("😀")").as_string(),
            "\xF0\x9F\x98\x80");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"("\ud83d oops")"); }, "unpaired high surrogate");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"("\ude00")"); }, "unpaired low surrogate");
}

TEST(json_parse, nested_structures) {
  const auto v = io::json_value::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 3u);
  const auto& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.elements()[1].as_number(), 2.0);
  EXPECT_TRUE(a.elements()[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(json_parse, round_trips_through_dump) {
  const std::string text =
      R"({"name":"x","values":[1,2.5,-3],"nested":{"flag":false},"s":"a b"})";
  const auto v = io::json_value::parse(text);
  const auto again = io::json_value::parse(v.dump(2));
  EXPECT_EQ(v.dump(-1), again.dump(-1));
}

TEST(json_parse, tolerates_whitespace) {
  const auto v = io::json_value::parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(json_parse, truncated_input) {
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"({"a": 1)"); }, "unterminated object");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"([1, 2)"); }, "unterminated array");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"("abc)"); }, "unterminated string");
  expect_throw_with<io::json_parse_error>([] { io::json_value::parse(""); },
                                          "unexpected end of input");
}

TEST(json_parse, malformed_input) {
  expect_throw_with<io::json_parse_error>([] { io::json_value::parse("{} x"); },
                                          "trailing characters");
  expect_throw_with<io::json_parse_error>([] { io::json_value::parse("tru"); },
                                          "expected 'true'");
  expect_throw_with<io::json_parse_error>([] { io::json_value::parse("[1 2]"); },
                                          "expected ',' or ']'");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"({"a" 1})"); }, "expected ':'");
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"({"a": 1, "a": 2})"); }, "duplicate object key 'a'");
  expect_throw_with<io::json_parse_error>([] { io::json_value::parse("1.2.3"); },
                                          "invalid number");
  // Laxer-than-JSON number forms strtod would accept are rejected.
  for (const char* bad : {"01", "1.", ".5", "+1", "1e"})
    expect_throw_with<io::json_parse_error>([&] { io::json_value::parse(bad); },
                                            "invalid");
  EXPECT_DOUBLE_EQ(io::json_value::parse("-0.5e+2").as_number(), -50.0);
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse(R"("bad \x escape")"); }, "invalid escape");
}

TEST(json_parse, reports_line_and_column) {
  expect_throw_with<io::json_parse_error>(
      [] { io::json_value::parse("{\n  \"a\": @\n}"); }, "2:8");
}

// -------------------------------------------------------------- registry ---

TEST(api_registry, built_in_scenarios_are_registered) {
  auto& reg = api::registry::global();
  for (const char* device : {"bend", "crossing", "isolator"})
    EXPECT_TRUE(reg.has_device(device)) << device;
  EXPECT_GE(reg.method_names().size(), 15u);
  EXPECT_EQ(reg.method("boson"), core::preset_recipe(core::method_id::boson));
  EXPECT_EQ(reg.method("boson_no_relax"),
            core::preset_recipe(core::method_id::boson_no_relax));
  EXPECT_TRUE(reg.has_objective("device_default"));
  EXPECT_EQ(reg.objective("fwd_transmission").override_metric, "fwd_transmission");
}

TEST(api_registry, unknown_names_list_known_entries) {
  auto& reg = api::registry::global();
  expect_throw_with<bad_argument>([&] { reg.make_device("warp_core", 0.1); },
                                  "unknown device 'warp_core'");
  expect_throw_with<bad_argument>([&] { reg.make_device("warp_core", 0.1); }, "bend");
  expect_throw_with<bad_argument>([&] { reg.method("sgd"); }, "unknown method 'sgd'");
  expect_throw_with<bad_argument>([&] { reg.objective("q"); }, "unknown objective 'q'");
}

TEST(api_registry, custom_device_registration) {
  api::registry reg;  // private registry: no built-ins
  EXPECT_FALSE(reg.has_device("tiny"));
  reg.register_device("tiny", [](double res) { return dev::make_bend(res); }, "test");
  EXPECT_TRUE(reg.has_device("tiny"));
  const auto spec = reg.make_device("tiny", 0.1);
  EXPECT_FALSE(spec.name.empty());
  EXPECT_EQ(reg.device_description("tiny"), "test");
}

// ------------------------------------------------------------------ spec ---

api::experiment_spec full_plan_spec() {
  api::experiment_spec spec;
  spec.name = "roundtrip";
  spec.device = "isolator";
  spec.method = "invfabcor_m_3";
  spec.resolution = 0.1;
  spec.iterations = 12;
  spec.relax_epochs = 3;
  spec.seed = 99;
  spec.backend = "gmres";
  spec.evaluation = {
      api::eval_step::monte_carlo(7),
      api::eval_step::sweep({1.53, 1.55}),
      api::eval_step::window({0.0, 0.08}, {0.95, 1.05}),
  };
  return spec;
}

TEST(experiment_spec, retired_use_operator_cache_key_is_accepted_and_ignored) {
  // Older specs still carry the removed engine-cache switch.
  io::json_value v = full_plan_spec().to_json();
  const std::string expected = v.dump();
  for (const bool flag : {true, false}) {
    v["run"]["use_operator_cache"] = flag;
    EXPECT_EQ(api::experiment_spec::from_json(v).to_json().dump(), expected);
  }
  v["run"]["use_operator_cache"] = "yes";
  EXPECT_THROW((void)api::experiment_spec::from_json(v), bad_argument);
}

TEST(experiment_spec, json_round_trip_is_identity) {
  const api::experiment_spec spec = full_plan_spec();
  const auto first = spec.to_json();
  const api::experiment_spec parsed = api::experiment_spec::from_json(first);
  const auto second = parsed.to_json();
  EXPECT_EQ(first.dump(), second.dump());

  EXPECT_EQ(parsed.device, "isolator");
  EXPECT_EQ(parsed.method, "invfabcor_m_3");
  EXPECT_EQ(parsed.backend, "gmres");
  EXPECT_EQ(parsed.seed, 99u);
  ASSERT_EQ(parsed.evaluation.size(), 3u);
  EXPECT_EQ(parsed.evaluation[0].samples, 7u);
  ASSERT_EQ(parsed.evaluation[1].wavelengths_um.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.evaluation[1].wavelengths_um[1], 1.55);
  ASSERT_EQ(parsed.evaluation[2].dose.size(), 2u);
}

TEST(experiment_spec, defaults_round_trip_and_derive_a_name) {
  const api::experiment_spec spec;  // all defaults
  EXPECT_EQ(spec.display_name(), "bend_boson");
  const auto parsed = api::experiment_spec::from_json(spec.to_json());
  EXPECT_EQ(parsed.name, "bend_boson");
  EXPECT_EQ(parsed.to_json().dump(), spec.to_json().dump());
}

TEST(experiment_spec, rejects_unknown_registry_names) {
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"device": "warp"})"));
      },
      "unknown device 'warp'");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"method": "sgd"})"));
      },
      "unknown method 'sgd'");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"objective": "x"})"));
      },
      "unknown objective 'x'");
}

TEST(experiment_spec, rejects_unknown_keys) {
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"devcie": "bend"})"));
      },
      "unknown key 'devcie'");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"momentum": 0.9}})"));
      },
      "unknown key 'momentum' in run");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(
            R"({"evaluation": [{"type": "postfab_monte_carlo", "n": 3}]})"));
      },
      "unknown key 'n' in evaluation[0]");
}

TEST(experiment_spec, rejects_wrong_types) {
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"iterations": "many"}})"));
      },
      "'run.iterations' must be a number, got string");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"iterations": 2.5}})"));
      },
      "non-negative integer");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"name": 7})"));
      },
      "'name' must be a string, got number");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"evaluation": {}})"));
      },
      "'evaluation' must be an array");
}

TEST(experiment_spec, rejects_out_of_range_values) {
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(R"({"resolution": 0})"));
      },
      "'resolution' must be in (0, 1]");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"iterations": 0}})"));
      },
      "'run.iterations' must be at least 1");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(
            R"({"evaluation": [{"type": "postfab_monte_carlo", "samples": 0}]})"));
      },
      "samples' must be at least 1");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(
            R"({"evaluation": [{"type": "wavelength_sweep", "wavelengths_um": []}]})"));
      },
      "must not be empty");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"backend": "cg"}})"));
      },
      "'run.backend' must be one of");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(io::json_value::parse(
            R"({"evaluation": [{"type": "teleport"}]})"));
      },
      "'evaluation[0].type' must be one of");
}

TEST(experiment_spec, fab_model_fields_round_trip) {
  api::experiment_spec spec;
  spec.litho.wavelength = 0.248;
  spec.litho.energy_capture = 0.95;
  spec.eole.eta0 = 0.45;
  const auto parsed = api::experiment_spec::from_json(spec.to_json());
  EXPECT_DOUBLE_EQ(parsed.litho.wavelength, 0.248);
  EXPECT_DOUBLE_EQ(parsed.litho.energy_capture, 0.95);
  EXPECT_DOUBLE_EQ(parsed.eole.eta0, 0.45);
  EXPECT_EQ(parsed.to_json().dump(), spec.to_json().dump());
}

TEST(experiment_spec, rejects_objective_override_on_non_ratio_devices) {
  api::experiment_spec spec;
  spec.device = "bend";
  spec.objective = "fwd_transmission";
  spec.resolution = 0.1;
  expect_throw_with<bad_argument>([&] { api::validate(spec); },
                                  "only applies to ratio-objective devices");
  spec.device = "isolator";
  EXPECT_NO_THROW(api::validate(spec));

  // The '-eff' method bakes the same override into its recipe.
  api::experiment_spec eff;
  eff.device = "bend";
  eff.method = "invfabcor_m_3_eff";
  eff.resolution = 0.1;
  expect_throw_with<bad_argument>([&] { api::validate(eff); },
                                  "only applies to ratio-objective devices");
}

TEST(experiment_spec, rejects_seeds_that_cannot_round_trip) {
  api::experiment_spec spec;
  spec.seed = (std::uint64_t{1} << 53) + 2;
  expect_throw_with<bad_argument>([&] { api::validate(spec); }, "exceeds 2^53");
  expect_throw_with<bad_argument>(
      [] {
        api::experiment_spec::from_json(
            io::json_value::parse(R"({"run": {"seed": 9007199254740994}})"));
      },
      "exceeds 2^53");
}

TEST(experiment_spec, rejects_duplicate_monte_carlo_steps) {
  api::experiment_spec spec;
  spec.evaluation = {api::eval_step::monte_carlo(2), api::eval_step::monte_carlo(3)};
  expect_throw_with<bad_argument>([&] { api::validate(spec); },
                                  "at most one postfab_monte_carlo");
}

TEST(experiment_spec, load_specs_handles_single_and_batch) {
  const fs::path dir = fs::path(testing::TempDir()) / "boson_spec_io";
  fs::create_directories(dir);

  const fs::path single = dir / "single.json";
  api::experiment_spec spec;
  spec.to_json().write_file(single.string());
  const auto one = api::load_specs(single.string());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].device, "bend");

  const fs::path batch = dir / "batch.json";
  io::json_value arr = io::json_value::array();
  arr.push_back(api::experiment_spec{}.to_json());
  arr.push_back(full_plan_spec().to_json());
  arr.write_file(batch.string());
  const auto two = api::load_specs(batch.string());
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[1].name, "roundtrip");

  expect_throw_with<io_error>([&] { api::load_specs((dir / "absent.json").string()); },
                              "cannot open");

  const fs::path bad = dir / "bad.json";
  {
    std::ofstream f(bad);
    f << "{\"device\": ";
  }
  expect_throw_with<io::json_parse_error>([&] { api::load_specs(bad.string()); },
                                          "bad.json");
}

// --------------------------------------------------------------- session ---

/// Coarse, fast spec mirroring the core test configuration (100 nm pixels,
/// small pupil, few SOCS kernels / EOLE terms).
api::experiment_spec smoke_spec() {
  api::experiment_spec spec;
  spec.name = "api_smoke";
  spec.device = "bend";
  spec.method = "boson_no_relax";
  spec.resolution = 0.1;
  spec.iterations = 4;
  spec.relax_epochs = 0;
  spec.litho.na = 0.65;
  spec.litho.sigma = 0.35;
  spec.litho.kernel_half = 5;
  spec.litho.max_kernels = 5;
  spec.eole.anchors_x = 4;
  spec.eole.anchors_y = 4;
  spec.eole.num_terms = 5;
  spec.evaluation = {api::eval_step::monte_carlo(2)};
  return spec;
}

struct counting_observer : api::observer {
  std::vector<api::progress_event> events;
  void on_event(const api::progress_event& event) override { events.push_back(event); }

  std::size_t count(api::progress_event::phase kind) const {
    std::size_t n = 0;
    for (const auto& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }
};

TEST(api_session, config_for_maps_spec_fields) {
  api::experiment_spec spec = smoke_spec();
  spec.backend = "gmres";
  const core::experiment_config cfg = api::session::config_for(spec);
  EXPECT_EQ(cfg.iterations, 4u);
  EXPECT_EQ(cfg.mc_samples, 2u);
  EXPECT_DOUBLE_EQ(cfg.resolution, 0.1);
  EXPECT_EQ(cfg.engine.backend, sim::backend_kind::gmres);
  EXPECT_EQ(cfg.litho.kernel_half, 5u);
  EXPECT_EQ(cfg.eole.num_terms, 5u);
}

TEST(api_session, problem_for_builds_the_described_problem) {
  const core::design_problem problem = api::session::problem_for(smoke_spec());
  EXPECT_GT(problem.spec().design.nx, 0u);
  EXPECT_GT(problem.parameterization().num_params(), 0u);
}

TEST(api_session, runs_a_spec_end_to_end_with_artifacts_and_events) {
  const fs::path out = fs::path(testing::TempDir()) / "boson_api_session";
  fs::remove_all(out);

  counting_observer watcher;
  api::session_options options;
  options.output_dir = out.string();
  options.watcher = &watcher;
  api::session session(options);

  const api::experiment_result result = session.run(smoke_spec());

  EXPECT_EQ(result.spec.name, "api_smoke");
  EXPECT_EQ(result.method.postfab.samples, 2u);
  EXPECT_FALSE(result.method.run.trajectory.empty());
  EXPECT_GT(result.seconds, 0.0);

  const fs::path dir = out / "api_smoke";
  EXPECT_EQ(result.artifact_dir, dir.string());
  for (const char* file : {"summary.json", "trajectory.csv", "mask.pgm"})
    EXPECT_TRUE(fs::exists(dir / file)) << file;

  // The summary parses back and echoes the normalized spec.
  const auto summary = io::json_value::parse_file((dir / "summary.json").string());
  EXPECT_EQ(summary.at("spec").at("name").as_string(), "api_smoke");
  EXPECT_TRUE(summary.at("results").at("postfab_monte_carlo").at("fom_mean").is_number());

  using phase = api::progress_event::phase;
  EXPECT_EQ(watcher.count(phase::experiment_started), 1u);
  EXPECT_EQ(watcher.count(phase::experiment_finished), 1u);
  EXPECT_EQ(watcher.count(phase::iteration_finished), 4u);
  EXPECT_GE(watcher.count(phase::stage_started), 2u);
  EXPECT_GE(watcher.count(phase::artifact_written), 3u);
  for (const auto& e : watcher.events) EXPECT_EQ(e.experiment, "api_smoke");
}

TEST(api_session, batch_shares_a_session_and_writes_batch_summary) {
  const fs::path out = fs::path(testing::TempDir()) / "boson_api_batch";
  fs::remove_all(out);

  api::session_options options;
  options.output_dir = out.string();
  api::session session(options);

  api::experiment_spec second = smoke_spec();
  second.name = "api_smoke_2";
  second.record_trajectory = false;
  const auto results = session.run_all({smoke_spec(), second});

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].method.run.trajectory.empty());
  EXPECT_FALSE(fs::exists(out / "api_smoke_2" / "trajectory.csv"));
  const auto batch = io::json_value::parse_file((out / "batch_summary.json").string());
  const auto& experiments = batch.at("experiments");
  ASSERT_EQ(experiments.size(), 2u);
  EXPECT_EQ(experiments.elements()[0].at("name").as_string(), "api_smoke");
  EXPECT_EQ(experiments.elements()[1].at("name").as_string(), "api_smoke_2");
  // The batch-level aggregate: wall clock dominates the per-experiment sum
  // (sequential execution).
  EXPECT_GE(batch.at("wall_seconds").as_number(), batch.at("total_seconds").as_number() * 0.5);
  EXPECT_GT(batch.at("total_seconds").as_number(), 0.0);
}

TEST(api_session, dot_names_cannot_escape_the_output_directory) {
  const fs::path out = fs::path(testing::TempDir()) / "boson_api_escape" / "root";
  fs::remove_all(out.parent_path());

  api::session_options options;
  options.output_dir = out.string();
  api::session session(options);

  api::experiment_spec spec = smoke_spec();
  spec.name = "..";
  const auto result = session.run(spec);

  EXPECT_EQ(result.artifact_dir, (out / "experiment").string());
  EXPECT_TRUE(fs::exists(out / "experiment" / "summary.json"));
  EXPECT_FALSE(fs::exists(out.parent_path() / "summary.json"));
}

TEST(api_session, rejects_batches_with_colliding_artifact_names) {
  api::session session;
  api::experiment_spec a = smoke_spec();
  api::experiment_spec b = smoke_spec();
  b.name = "api smoke";  // sanitizes to the same directory as "api_smoke"
  expect_throw_with<bad_argument>([&] { session.run_all({a, b}); },
                                  "same artifact directory");
}

TEST(api_session, no_artifacts_mode_writes_nothing) {
  const fs::path out = fs::path(testing::TempDir()) / "boson_api_noart";
  fs::remove_all(out);

  api::session_options options;
  options.output_dir = out.string();
  options.write_artifacts = false;
  api::session session(options);
  const auto result = session.run(smoke_spec());
  EXPECT_TRUE(result.artifact_dir.empty());
  EXPECT_FALSE(fs::exists(out));
}

// ------------------------------------------------------- trajectory csv ----

TEST(trajectory_csv, exports_iteration_loss_and_metric_columns) {
  std::vector<core::iteration_record> trajectory(3);
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    trajectory[i].iteration = i;
    trajectory[i].loss = 1.0 / static_cast<double>(i + 1);
    trajectory[i].metrics = {{"transmission", 0.5 + 0.1 * static_cast<double>(i)},
                             {"reflection", 0.1}};
  }

  const fs::path path = fs::path(testing::TempDir()) / "trajectory_test.csv";
  api::write_trajectory_csv(path.string(), trajectory);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "iteration,loss,reflection,transmission");
  std::getline(f, line);
  EXPECT_EQ(line.substr(0, 4), "0,1,");
  std::size_t rows = 1;
  while (std::getline(f, line) && !line.empty()) ++rows;
  EXPECT_EQ(rows, 3u);

  expect_throw_with<bad_argument>([&] { api::write_trajectory_csv(path.string(), {}); },
                                  "empty trajectory");
}

// -------------------------------------------------------------- recipes ----

TEST(recipe_json, all_fifteen_presets_round_trip) {
  for (const core::method_id id : core::all_method_ids()) {
    const core::method_recipe preset = core::preset_recipe(id);
    const io::json_value v = api::recipe_to_json(preset);
    const core::method_recipe parsed = api::recipe_from_json(v);
    EXPECT_EQ(parsed, preset) << preset.label;
    // The canonical form itself is stable.
    EXPECT_EQ(api::recipe_to_json(parsed).dump(), v.dump()) << preset.label;
  }
}

TEST(recipe_json, density_blur_accepts_mfs_or_cells) {
  core::method_recipe r = api::recipe_from_json(io::json_value::parse(
      R"({"parameterization": "density", "density_blur": "mfs"})"));
  EXPECT_TRUE(r.density_blur_mfs);
  r = api::recipe_from_json(io::json_value::parse(
      R"({"parameterization": "density", "density_blur": 1.5})"));
  EXPECT_FALSE(r.density_blur_mfs);
  EXPECT_DOUBLE_EQ(r.density_blur_cells, 1.5);
  expect_throw_with<bad_argument>(
      [] {
        (void)api::recipe_from_json(io::json_value::parse(
            R"({"parameterization": "density", "density_blur": "big"})"));
      },
      "must be \"mfs\" or a cell radius");
}

TEST(recipe_json, rejects_unknown_keys_and_policies_with_suggestions) {
  expect_throw_with<bad_argument>(
      [] { (void)api::recipe_from_json(io::json_value::parse(R"({"cornerz": "none"})")); },
      "unknown key 'cornerz' in recipe; did you mean 'corners'?");
  expect_throw_with<bad_argument>(
      [] {
        (void)api::recipe_from_json(
            io::json_value::parse(R"({"initialization": "grey"})"));
      },
      "did you mean 'gray'?");
  expect_throw_with<bad_argument>(
      [] { (void)api::recipe_from_json(io::json_value::parse(R"({"corners": 3})")); },
      "'recipe.corners' must be a string");
}

TEST(experiment_spec, inline_recipe_round_trips_and_labels_the_method) {
  const io::json_value doc = io::json_value::parse(R"({
    "device": "bend",
    "recipe": {
      "label": "Hybrid",
      "parameterization": "density",
      "density_blur": "mfs",
      "corners": "adaptive",
      "relaxation": "linear",
      "reshaping": "dense",
      "initialization": "gray",
      "mask_correction": "all_corners"
    }
  })");
  const api::experiment_spec spec = api::experiment_spec::from_json(doc);
  ASSERT_TRUE(spec.recipe.has_value());
  EXPECT_EQ(spec.method, "custom");  // no explicit method key: neutral label
  EXPECT_EQ(spec.display_name(), "bend_custom");
  EXPECT_EQ(spec.recipe->mask_correction, "all_corners");

  const api::experiment_spec again = api::experiment_spec::from_json(spec.to_json());
  ASSERT_TRUE(again.recipe.has_value());
  EXPECT_EQ(*again.recipe, *spec.recipe);
  EXPECT_EQ(again.to_json().dump(), spec.to_json().dump());

  // The inline recipe wins over the method registry: the label need not be
  // (and here is not) a registered method name.
  api::experiment_spec labeled = spec;
  labeled.method = "never_registered_hybrid";
  EXPECT_NO_THROW(api::validate(labeled));
  EXPECT_EQ(api::resolved_recipe(labeled).label, "Hybrid");

  // Without the inline recipe the same label is an unknown method.
  labeled.recipe.reset();
  expect_throw_with<bad_argument>([&] { api::validate(labeled); },
                                  "unknown method 'never_registered_hybrid'");
}

TEST(experiment_spec, inline_recipe_policy_errors_carry_the_json_path) {
  expect_throw_with<bad_argument>(
      [] {
        (void)api::experiment_spec::from_json(io::json_value::parse(
            R"({"device": "bend", "recipe": {"corners": "adaptve"}})"));
      },
      "unknown corners policy 'adaptve'");
  expect_throw_with<bad_argument>(
      [] {
        (void)api::experiment_spec::from_json(io::json_value::parse(
            R"({"device": "bend", "recipe": {"density_blur": "mfs"}})"));
      },
      "only applies to the density parameterization");
}

TEST(experiment_spec, inline_recipe_objective_override_is_validated) {
  // A recipe-baked override needs a ratio-objective device, exactly like the
  // preset '-eff' variant.
  io::json_value doc = io::json_value::parse(R"({
    "device": "bend",
    "recipe": {"objective_override": "fwd_transmission"}
  })");
  expect_throw_with<bad_argument>(
      [&] { (void)api::experiment_spec::from_json(doc); },
      "only applies to ratio-objective devices");
}

TEST(api_registry, lookup_errors_suggest_the_closest_name) {
  auto& reg = api::registry::global();
  expect_throw_with<bad_argument>([&] { (void)reg.method("boson_norelax"); },
                                  "did you mean 'boson_no_relax'?");
  expect_throw_with<bad_argument>([&] { (void)reg.make_device("bendd", 0.1); },
                                  "did you mean 'bend'?");
  expect_throw_with<bad_argument>([&] { (void)reg.objective("device_defautl"); },
                                  "did you mean 'device_default'?");
}

TEST(api_registry, custom_recipes_register_and_validate) {
  auto& reg = api::registry::global();
  core::method_recipe hybrid = core::preset_recipe(core::method_id::boson);
  hybrid.label = "BOSON-1 (TV)";
  hybrid.tv_weight = 0.01;
  reg.register_method("test_boson_tv", hybrid);
  EXPECT_TRUE(reg.has_method("test_boson_tv"));
  EXPECT_EQ(reg.method("test_boson_tv"), hybrid);

  core::method_recipe broken;
  broken.corners = "no_such_policy";
  expect_throw_with<bad_argument>([&] { reg.register_method("test_broken", broken); },
                                  "unknown corners policy 'no_such_policy'");
  EXPECT_FALSE(reg.has_method("test_broken"));
}

TEST(api_session, inline_recipe_runs_bit_identical_to_its_preset_name) {
  // The acceptance property behind all fifteen presets: naming a method and
  // inlining its (JSON round-tripped) recipe are the same experiment. One
  // end-to-end pair proves the spec/session plumbing; the per-preset mapping
  // equivalence lives in test_core's golden table.
  api::experiment_spec named = smoke_spec();
  named.name = "recipe_e2e";

  api::experiment_spec inlined = named;
  inlined.recipe = api::recipe_from_json(
      api::recipe_to_json(api::registry::global().method(named.method)));

  api::session_options options;
  options.write_artifacts = false;
  api::session session(options);
  const api::experiment_result a = session.run(named);
  const api::experiment_result b = session.run(inlined);

  ASSERT_EQ(a.method.run.trajectory.size(), b.method.run.trajectory.size());
  for (std::size_t i = 0; i < a.method.run.trajectory.size(); ++i)
    EXPECT_EQ(a.method.run.trajectory[i].loss, b.method.run.trajectory[i].loss);
  ASSERT_EQ(a.method.run.theta.size(), b.method.run.theta.size());
  for (std::size_t i = 0; i < a.method.run.theta.size(); ++i)
    EXPECT_EQ(a.method.run.theta[i], b.method.run.theta[i]);
  for (std::size_t i = 0; i < a.method.mask.size(); ++i)
    EXPECT_EQ(a.method.mask.data()[i], b.method.mask.data()[i]);
  EXPECT_EQ(a.method.postfab.fom_mean, b.method.postfab.fom_mean);
}

/// Everything a run produces that must be bit-reproducible.
struct run_bits {
  std::vector<double> losses, theta, mask;
  std::map<std::string, double> postfab;
  double postfab_std = 0.0;
};

run_bits run_under_threads(api::session& session, const api::experiment_spec& spec,
                           const char* threads) {
  EXPECT_EQ(::setenv("BOSON_THREADS", threads, 1), 0);
  const api::experiment_result r = session.run(spec);
  run_bits bits;
  for (const auto& rec : r.method.run.trajectory) bits.losses.push_back(rec.loss);
  bits.theta = r.method.run.theta;
  bits.mask.assign(r.method.mask.begin(), r.method.mask.end());
  bits.postfab = r.method.postfab.metric_means;
  bits.postfab["fom_mean"] = r.method.postfab.fom_mean;
  bits.postfab_std = r.method.postfab.fom_std;
  return bits;
}

TEST(api_session, same_spec_gives_same_bits_across_threads_and_process_history) {
  // The central invariant: one spec and seed give the same bits whatever
  // the thread count, and whatever else ran earlier in the process. The
  // first three runs see a process that has run nothing else.
  api::experiment_spec spec = smoke_spec();
  spec.name = "determinism";
  spec.evaluation = {api::eval_step::monte_carlo(4)};
  api::experiment_spec other = smoke_spec();
  other.name = "determinism_other";
  other.device = "crossing";
  other.method = "density";
  other.seed = 3;

  const char* saved = std::getenv("BOSON_THREADS");
  const std::string saved_threads = saved != nullptr ? saved : "";
  api::session_options options;
  options.write_artifacts = false;
  api::session session(options);
  std::vector<run_bits> runs;
  for (const char* threads : {"1", "2", "4"})
    runs.push_back(run_under_threads(session, spec, threads));
  (void)run_under_threads(session, other, "4");
  for (const char* threads : {"4", "2", "1"})
    runs.push_back(run_under_threads(session, spec, threads));
  if (saved != nullptr)
    ::setenv("BOSON_THREADS", saved_threads.c_str(), 1);
  else
    ::unsetenv("BOSON_THREADS");

  ASSERT_EQ(runs[0].losses.size(), 4u);
  ASSERT_FALSE(runs[0].postfab.empty());
  for (std::size_t k = 1; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].losses, runs[0].losses) << "run " << k;
    EXPECT_EQ(runs[k].theta, runs[0].theta) << "run " << k;
    EXPECT_EQ(runs[k].mask, runs[0].mask) << "run " << k;
    EXPECT_EQ(runs[k].postfab, runs[0].postfab) << "run " << k;
    EXPECT_EQ(runs[k].postfab_std, runs[0].postfab_std) << "run " << k;
  }
}

TEST(api_session, summary_records_recipe_provenance) {
  const fs::path out = fs::path(testing::TempDir()) / "boson_api_recipe_prov";
  fs::remove_all(out);
  api::experiment_spec spec = smoke_spec();
  spec.name = "prov";
  api::session_options options;
  options.output_dir = out.string();
  api::session session(options);
  (void)session.run(spec);

  const io::json_value summary =
      io::json_value::parse_file((out / "prov" / "summary.json").string());
  ASSERT_NE(summary.find("resolved_recipe"), nullptr);
  EXPECT_EQ(summary.at("resolved_recipe").at("label").as_string(),
            "BOSON-1 (- subspace relax)");
  EXPECT_EQ(summary.at("recipe_signature").as_string(),
            api::registry::global().method(spec.method).signature());
}

}  // namespace
}  // namespace boson
