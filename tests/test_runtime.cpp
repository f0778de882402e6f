// Tests of the campaign runtime: campaign expansion, the append-only
// journal (and its refusal of a pre-store single-file journal), the result
// store's heal-under-lock, bit-exact checkpoint serialization, checkpoint /
// resume determinism of the optimization loop, the lease-based elastic
// scheduler (claim races, steals, heartbeats — all under injected manual
// clocks, never wall-clock sleeps), and a multi-process fault-injection
// matrix that SIGKILLs forked workers at named kill points and proves the
// survivors re-lease and finish every job exactly once.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "common/rng.h"
#include "core/methods.h"
#include "optim/optimizer.h"
#include "runtime/campaign.h"
#include "runtime/checkpoint.h"
#include "runtime/fault.h"
#include "runtime/journal.h"
#include "runtime/lease.h"
#include "runtime/result_store.h"
#include "runtime/scheduler.h"
#include "store/segment_log.h"

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

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The only segment of a journal store this build creates — where raw torn
/// or malformed bytes go.
fs::path first_segment(const std::string& journal_dir) {
  return fs::path(journal_dir) / "segment-000000.jsonl";
}

/// Coarse, fast base spec (mirrors the api/core smoke configuration).
api::experiment_spec smoke_base() {
  api::experiment_spec spec;
  spec.resolution = 0.1;
  spec.iterations = 6;
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

/// 1 device x 3 methods x 2 seeds x 2 overrides = 12 cheap-to-expand jobs.
runtime::campaign_spec synthetic_campaign() {
  runtime::campaign_spec spec;
  spec.name = "synthetic";
  spec.devices = {"bend"};
  spec.methods = {"density", "ls", "boson_no_relax"};
  spec.seeds = {1, 2};
  runtime::campaign_override nominal;
  nominal.name = "nom";
  runtime::campaign_override hot;
  hot.name = "hot";
  hot.patch = io::json_value::parse(R"({"litho": {"corner_defocus": 0.08}})");
  spec.overrides = {nominal, hot};
  spec.base = smoke_base();
  spec.scheduler.workers = 3;
  spec.scheduler.max_retries = 0;
  return spec;
}

/// Executor that fabricates a result without running any simulation.
runtime::job_executor counting_executor(std::atomic<std::size_t>& executed) {
  return [&executed](const runtime::campaign_job& job, const api::run_control&,
                     api::observer*) {
    ++executed;
    api::experiment_result result;
    result.spec = job.spec;
    result.method.prefab_fom = static_cast<double>(job.index);
    result.method.postfab.samples = 2;
    result.method.postfab.fom_mean = static_cast<double>(job.index) * 0.5;
    result.seconds = 0.001;
    return result;
  };
}

/// Like `counting_executor`, but drives `iterations` iteration_finished
/// events through the scheduler's watcher first — so cooperative
/// cancellation, mid_run fault points, and lease heartbeats all get their
/// boundaries without running a simulation.
runtime::job_executor chatty_executor(std::atomic<std::size_t>& executed,
                                      std::size_t iterations) {
  return [&executed, iterations](const runtime::campaign_job& job,
                                 const api::run_control&, api::observer* watcher) {
    for (std::size_t i = 0; i < iterations; ++i) {
      api::progress_event event;
      event.kind = api::progress_event::phase::iteration_finished;
      event.experiment = job.name;
      event.iteration = i;
      event.total_iterations = iterations;
      watcher->on_event(event);  // may throw cancelled/lease_lost
    }
    ++executed;
    api::experiment_result result;
    result.spec = job.spec;
    return result;
  };
}

/// Raw line count of the result store — `result_store::load` collapses to
/// the latest attempt per job, so exactly-once assertions count lines.
std::size_t result_line_count(const fs::path& campaign_dir) {
  std::ifstream in(runtime::result_store::store_path(campaign_dir.string()));
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++lines;
  return lines;
}

/// Replay-check the core lease invariant over a full journal history: at no
/// prefix do two live leases cover one job. Concretely, a job's lease owner
/// never changes within a single applied record (ownership must pass through
/// pending via a release / expiry / failure / completion), `completed` is
/// terminal, and an expiry that frees a lease carries stamp >= the freed
/// lease's deadline.
void expect_single_owner_throughout(const std::vector<runtime::journal_entry>& entries) {
  runtime::lease_table table;
  std::map<std::size_t, runtime::lease_view> prev;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const runtime::journal_entry& e = entries[i];
    table.apply(e);
    const runtime::lease_view cur = table.view(e.job_index);
    const auto it = prev.find(e.job_index);
    if (it != prev.end()) {
      const runtime::lease_view& p = it->second;
      if (p.state == runtime::lease_view::phase::leased &&
          cur.state == runtime::lease_view::phase::leased) {
        EXPECT_TRUE(p.worker == cur.worker && p.lease_id == cur.lease_id)
            << "record " << i << " handed job " << e.job_index << " from "
            << p.worker << "#" << p.lease_id << " to " << cur.worker << "#"
            << cur.lease_id << " without passing through pending";
      }
      if (p.state == runtime::lease_view::phase::done) {
        EXPECT_EQ(cur.state, runtime::lease_view::phase::done)
            << "record " << i << " resurrected completed job " << e.job_index;
      }
      if (p.state == runtime::lease_view::phase::leased &&
          cur.state != runtime::lease_view::phase::leased &&
          e.state == runtime::job_state::lease_expired) {
        EXPECT_GE(e.stamp, p.deadline)
            << "record " << i << " expired job " << e.job_index
            << " before its deadline";
      }
    }
    prev[e.job_index] = cur;
  }
}

/// Fork a worker process running `fn`; the child never returns into gtest.
template <class Fn>
pid_t fork_worker(Fn&& fn) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    fn();
    std::_Exit(0);
  }
  return pid;
}

enum class child_end { clean_exit, sigkilled, other };

child_end wait_worker(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return child_end::clean_exit;
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return child_end::sigkilled;
  return child_end::other;
}

TEST(campaign_spec, expands_the_cross_product_deterministically) {
  const runtime::campaign_spec spec = synthetic_campaign();
  EXPECT_EQ(spec.job_count(), 12u);
  const std::vector<runtime::campaign_job> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 12u);
  EXPECT_EQ(jobs[0].name, "bend_density_s1_nom");
  EXPECT_EQ(jobs[1].name, "bend_density_s1_hot");
  EXPECT_EQ(jobs[2].name, "bend_density_s2_nom");
  EXPECT_EQ(jobs[11].name, "bend_boson_no_relax_s2_hot");
  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    names.insert(jobs[i].name);
    EXPECT_EQ(jobs[i].spec.name, jobs[i].name);
  }
  EXPECT_EQ(names.size(), jobs.size());

  // The override axis patches the expanded specs.
  EXPECT_DOUBLE_EQ(jobs[0].spec.litho.corner_defocus,
                   smoke_base().litho.corner_defocus);
  EXPECT_DOUBLE_EQ(jobs[1].spec.litho.corner_defocus, 0.08);
  // Seeds land in the specs.
  EXPECT_EQ(jobs[0].spec.seed, 1u);
  EXPECT_EQ(jobs[2].spec.seed, 2u);
}

TEST(campaign_spec, json_round_trip_preserves_the_expansion) {
  const runtime::campaign_spec spec = synthetic_campaign();
  const runtime::campaign_spec parsed =
      runtime::campaign_spec::from_json(spec.to_json());
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.job_count(), spec.job_count());
  const auto a = spec.expand();
  const auto b = parsed.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].spec.to_json().dump(), b[i].spec.to_json().dump()) << a[i].name;
  }
}

TEST(campaign_spec, strict_parsing_rejects_precisely) {
  expect_throw_with<bad_argument>(
      [] {
        (void)runtime::campaign_spec::from_json(
            io::json_value::parse(R"({"axes": {"devices": ["bend"], "methods": ["ls"]},
                                      "frobnicate": 1})"));
      },
      "unknown key 'frobnicate'");
  expect_throw_with<bad_argument>(
      [] {
        (void)runtime::campaign_spec::from_json(
            io::json_value::parse(R"({"axes": {"methods": ["ls"]}})"));
      },
      "'axes.devices' must not be empty");
  expect_throw_with<bad_argument>(
      [] {
        (void)runtime::campaign_spec::from_json(io::json_value::parse(
            R"({"axes": {"devices": ["bend"], "methods": ["ls"]},
                "base": {"device": "bend"}})"));
      },
      "'base.device' is campaign-owned");
  expect_throw_with<bad_argument>(
      [] {
        (void)runtime::campaign_spec::from_json(io::json_value::parse(
            R"({"axes": {"devices": ["bend"], "methods": ["ls"]},
                "overrides": [{"name": "x", "device": "bend"}]})"));
      },
      "unknown key 'device' in overrides[0]");
  expect_throw_with<bad_argument>(
      [] {
        runtime::campaign_spec spec = synthetic_campaign();
        spec.methods = {"no_such_method"};
        (void)spec.expand();
      },
      "unknown method");
  // Override names that only differ in characters the artifact sanitizer
  // folds would share one job directory: rejected at expansion.
  expect_throw_with<bad_argument>(
      [] {
        runtime::campaign_spec spec = synthetic_campaign();
        spec.overrides[0].name = "hot+1";
        spec.overrides[1].name = "hot(1";
        spec.overrides[1].patch = io::json_value();
        (void)spec.expand();
      },
      "same artifact directory");
}

TEST(campaign_spec, campaign_local_recipes_form_a_method_axis) {
  io::json_value doc = synthetic_campaign().to_json();
  doc["axes"]["methods"] = io::json_value::parse(R"(["ls", "hybrid"])");
  doc["recipes"] = io::json_value::parse(R"([
    {"name": "hybrid",
     "recipe": {"label": "Hybrid", "parameterization": "density",
                "corners": "adaptive", "initialization": "gray"}}
  ])");
  const runtime::campaign_spec spec = runtime::campaign_spec::from_json(doc);
  ASSERT_EQ(spec.recipes.size(), 1u);
  EXPECT_EQ(spec.recipes[0].recipe.label, "Hybrid");

  const std::vector<runtime::campaign_job> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 8u);  // 1 device x 2 methods x 2 seeds x 2 overrides
  for (const runtime::campaign_job& job : jobs) {
    if (job.spec.method == "hybrid") {
      ASSERT_TRUE(job.spec.recipe.has_value()) << job.name;
      EXPECT_EQ(job.spec.recipe->parameterization, "density") << job.name;
    } else {
      EXPECT_FALSE(job.spec.recipe.has_value()) << job.name;
    }
  }

  // The canonical form carries the recipes, so resume/status/report sessions
  // re-expand identically.
  const runtime::campaign_spec again = runtime::campaign_spec::from_json(spec.to_json());
  const auto a = spec.expand();
  const auto b = again.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].spec.to_json().dump(), b[i].spec.to_json().dump()) << a[i].name;
}

TEST(campaign_spec, recipe_section_is_validated_strictly) {
  const auto parse_with = [](const std::string& recipes) {
    io::json_value doc = synthetic_campaign().to_json();
    doc["recipes"] = io::json_value::parse(recipes);
    (void)runtime::campaign_spec::from_json(doc);
  };
  expect_throw_with<bad_argument>(
      [&] { parse_with(R"([{"recipe": {"label": "x"}}])"); }, "non-empty 'name'");
  expect_throw_with<bad_argument>([&] { parse_with(R"([{"name": "x"}])"); },
                                  "missing the 'recipe' object");
  expect_throw_with<bad_argument>(
      [&] { parse_with(R"([{"name": "x", "recipe": {"corners": "bogus"}}])"); },
      "unknown corners policy 'bogus'");
  expect_throw_with<bad_argument>(
      [&] {
        parse_with(R"([{"name": "x", "recipe": {}}, {"name": "x", "recipe": {}}])");
      },
      "duplicate recipe name 'x'");
  // A recipe on the base spec would misattribute every job: campaign-owned.
  expect_throw_with<bad_argument>(
      [] {
        (void)runtime::campaign_spec::from_json(io::json_value::parse(
            R"({"axes": {"devices": ["bend"], "methods": ["ls"]},
                "base": {"recipe": {"label": "x"}}})"));
      },
      "'base.recipe' is campaign-owned");
}

TEST(campaign_spec, unlabeled_campaign_recipes_take_the_axis_name) {
  io::json_value doc = synthetic_campaign().to_json();
  doc["axes"]["methods"] = io::json_value::parse(R"(["hybrid"])");
  doc["recipes"] = io::json_value::parse(
      R"([{"name": "hybrid", "recipe": {"parameterization": "density"}}])");
  const runtime::campaign_spec spec = runtime::campaign_spec::from_json(doc);
  ASSERT_EQ(spec.recipes.size(), 1u);
  // No "label" in the JSON: the axis name becomes the display label instead
  // of every unlabeled hybrid reporting as "custom".
  EXPECT_EQ(spec.recipes[0].recipe.label, "hybrid");

  // The same defaulting covers programmatically-built campaigns at expand().
  runtime::campaign_spec programmatic = synthetic_campaign();
  programmatic.methods = {"prog_hybrid"};
  programmatic.recipes.push_back({"prog_hybrid", core::method_recipe{}});
  for (const runtime::campaign_job& job : programmatic.expand()) {
    ASSERT_TRUE(job.spec.recipe.has_value());
    EXPECT_EQ(job.spec.recipe->label, "prog_hybrid");
  }
}

TEST(campaign_spec, programmatic_base_or_override_recipes_are_rejected) {
  runtime::campaign_spec spec = synthetic_campaign();
  spec.base.recipe = core::method_recipe{};
  expect_throw_with<bad_argument>([&] { (void)spec.expand(); },
                                  "'base' must not carry a recipe");

  runtime::campaign_spec patched = synthetic_campaign();
  patched.overrides[1].patch =
      io::json_value::parse(R"({"recipe": {"label": "sneaky"}})");
  expect_throw_with<bad_argument>([&] { (void)patched.expand(); },
                                  "must not patch 'recipe'");
}

TEST(campaign_spec, method_axis_typos_see_campaign_recipes) {
  runtime::campaign_spec spec = synthetic_campaign();
  spec.recipes.push_back({"hybrid", core::method_recipe{}});

  // A declared-but-unswept recipe is an error, not a silent no-op.
  expect_throw_with<bad_argument>([&] { (void)spec.expand(); },
                                  "recipe 'hybrid' is not listed in axes.methods");

  // Unknown-method did-you-mean covers campaign-local recipe names too.
  spec.methods = {"hybird"};
  expect_throw_with<bad_argument>([&] { (void)spec.expand(); },
                                  "did you mean 'hybrid'?");
}

// --------------------------------------------------------------- journal ---

TEST(journal, append_replay_and_latest_state) {
  const fs::path dir = fresh_dir("boson_runtime_journal");
  const std::string path = runtime::journal_path(dir.string());

  {
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_index = 3;
    e.job_name = "job3";
    e.state = runtime::job_state::running;
    e.attempt = 1;
    log.append(e);
    e.state = runtime::job_state::checkpointed;
    e.detail = "iteration 2/6";
    log.append(e);
    e.state = runtime::job_state::completed;
    e.detail = "";
    e.seconds = 1.25;
    log.append(e);
    runtime::journal_entry other;
    other.job_index = 4;
    other.job_name = "job4";
    other.state = runtime::job_state::failed;
    other.attempt = 2;
    other.detail = "solver diverged";
    log.append(other);
  }

  const auto entries = runtime::journal::replay(path);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[1].detail, "iteration 2/6");

  const auto latest = runtime::journal::latest_states(entries);
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(3).state, runtime::job_state::completed);
  EXPECT_DOUBLE_EQ(latest.at(3).seconds, 1.25);
  EXPECT_EQ(latest.at(4).state, runtime::job_state::failed);
  EXPECT_EQ(latest.at(4).detail, "solver diverged");
}

TEST(journal, replay_tolerates_a_torn_tail_but_not_mid_file_corruption) {
  const fs::path dir = fresh_dir("boson_runtime_journal_torn");
  const std::string path = runtime::journal_path(dir.string());
  {
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_index = 0;
    e.job_name = "job0";
    e.state = runtime::job_state::completed;
    e.attempt = 1;
    log.append(e);
  }
  // A crash mid-append leaves a truncated final line: ignored on replay.
  {
    std::ofstream out(first_segment(path), std::ios::app);
    out << R"({"job":1,"name":"job1","sta)";
  }
  const auto entries = runtime::journal::replay(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].job_name, "job0");

  // Re-opening the journal for appending (a resume after the crash) heals
  // the torn tail: the fragment is dropped, the new record does not merge
  // into it, and the history stays replayable.
  {
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_index = 1;
    e.job_name = "job1";
    e.state = runtime::job_state::running;
    e.attempt = 1;
    log.append(e);
  }
  const auto healed = runtime::journal::replay(path);
  ASSERT_EQ(healed.size(), 2u);
  EXPECT_EQ(healed[0].job_name, "job0");
  EXPECT_EQ(healed[1].job_name, "job1");

  // Complete garbage mid-file (followed by a good record) is corruption.
  {
    std::ofstream out(first_segment(path), std::ios::app);
    out << "not json\n"
        << R"({"job":2,"name":"job2","state":"completed","attempt":1})" << "\n";
  }
  expect_throw_with<io_error>([&] { (void)runtime::journal::replay(path); }, "line 3");
}

TEST(journal, replaying_a_missing_file_is_an_empty_history) {
  EXPECT_TRUE(runtime::journal::replay(runtime::journal_path("/nonexistent")).empty());
}

// ------------------------------------------------------------ checkpoint ---

TEST(checkpoint, hex_encoding_is_bit_exact) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -1.234e-300,
                           denormal,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    const std::string hex = runtime::encode_double(v);
    EXPECT_EQ(hex.size(), 16u);
    const double back = runtime::decode_double(hex);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << hex;
  }
  // NaN round-trips its exact bit pattern too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double back = runtime::decode_double(runtime::encode_double(nan));
  EXPECT_EQ(std::memcmp(&nan, &back, sizeof nan), 0);

  const dvec vec{0.1, 0.2, -0.3, 1e-17};
  const dvec round = runtime::decode_dvec(runtime::encode_dvec(vec));
  ASSERT_EQ(round.size(), vec.size());
  for (std::size_t i = 0; i < vec.size(); ++i) EXPECT_EQ(round[i], vec[i]);

  expect_throw_with<bad_argument>([] { (void)runtime::decode_double("xyz"); },
                                  "16 characters");
}

TEST(checkpoint, file_round_trip_restores_every_field) {
  const fs::path dir = fresh_dir("boson_runtime_checkpoint");

  core::run_checkpoint ck;
  ck.next_iteration = 4;
  ck.total_iterations = 10;
  ck.theta = {0.5, -0.25, 1.0 / 3.0};
  ck.optimizer.m = {1e-3, -2e-3, 3e-3};
  ck.optimizer.v = {1e-6, 2e-6, 3e-6};
  ck.optimizer.t = 4;
  ck.rng_state = rng(42).save_state();
  ck.has_worst = true;
  ck.worst.d_xi = {0.1, -0.2};
  ck.worst.d_temperature = -0.125;
  ck.final_loss = 0.875;
  core::iteration_record rec;
  rec.iteration = 3;
  rec.loss = 1.0 / 7.0;
  rec.metrics["transmission"] = 0.625;
  ck.trajectory.push_back(rec);
  ck.design_rho = array2d<double>(4, 3, 0.5);

  runtime::save_checkpoint(dir.string(), "jobX", ck);
  EXPECT_TRUE(fs::exists(dir / "checkpoint.json"));
  EXPECT_TRUE(fs::exists(dir / "checkpoint.pgm"));
  EXPECT_FALSE(fs::exists(dir / "checkpoint.json.tmp"));

  const runtime::checkpoint_file file =
      runtime::load_checkpoint(runtime::checkpoint_path(dir.string()));
  EXPECT_EQ(file.job, "jobX");
  const core::run_checkpoint& back = file.state;
  EXPECT_EQ(back.next_iteration, ck.next_iteration);
  EXPECT_EQ(back.total_iterations, ck.total_iterations);
  EXPECT_EQ(back.theta, ck.theta);
  EXPECT_EQ(back.optimizer.m, ck.optimizer.m);
  EXPECT_EQ(back.optimizer.v, ck.optimizer.v);
  EXPECT_EQ(back.optimizer.t, ck.optimizer.t);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  ASSERT_TRUE(back.has_worst);
  EXPECT_EQ(back.worst.d_xi, ck.worst.d_xi);
  EXPECT_EQ(back.worst.d_temperature, ck.worst.d_temperature);
  EXPECT_EQ(back.final_loss, ck.final_loss);
  ASSERT_EQ(back.trajectory.size(), 1u);
  EXPECT_EQ(back.trajectory[0].iteration, 3u);
  EXPECT_EQ(back.trajectory[0].loss, rec.loss);
  EXPECT_EQ(back.trajectory[0].metrics.at("transmission"), 0.625);
}

TEST(checkpoint, rng_save_restore_resumes_the_exact_stream) {
  rng a(123);
  (void)a.normal();
  (void)a.uniform(0.0, 1.0);
  const std::string state = a.save_state();
  dvec expected;
  for (int i = 0; i < 8; ++i) expected.push_back(a.normal());

  rng b(999);  // different seed; state restore overrides everything
  b.restore_state(state);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.normal(), expected[static_cast<std::size_t>(i)]);

  expect_throw_with<bad_argument>([] { rng r; r.restore_state("not a state"); },
                                  "malformed state");
}

TEST(checkpoint, adam_state_restore_continues_bit_identically) {
  opt::adam a(0.05);
  dvec xa{1.0, -2.0, 0.5};
  const dvec g1{0.1, 0.2, -0.3};
  const dvec g2{-0.2, 0.1, 0.4};
  a.step(xa, g1);
  a.step(xa, g2);
  const opt::adam_state snapshot = a.state();
  dvec xb = xa;  // same params at the snapshot point
  a.step(xa, g1);

  opt::adam b(0.05);
  b.restore(snapshot);
  b.step(xb, g1);
  EXPECT_EQ(xa, xb);
}

// The headline determinism property: run J iterations, checkpoint, resume in
// a fresh problem/optimizer/rng, and the remaining trajectory, final theta
// and density are bit-identical to the uninterrupted run — including the
// BOSON-1 recipe's stateful pieces (corner sampling RNG, worst-case ascent
// carry-over, Adam moments).
TEST(checkpoint, resumed_run_is_bit_identical_to_uninterrupted) {
  api::experiment_spec spec = smoke_base();
  spec.name = "resume_smoke";
  spec.device = "bend";
  spec.method = "boson";  // axial_plus_worst sampling + relaxation warmup
  spec.relax_epochs = 2;

  const core::experiment_config cfg = api::session::config_for(spec);
  const core::method_recipe recipe = api::find_method(spec.method);
  const dev::device_spec device = api::find_device(spec.device).make(spec.resolution);

  core::method_hooks plain;
  plain.run_postfab_mc = false;
  const core::method_result uninterrupted = core::run_method(device, recipe, cfg, plain);

  // Same run, capturing a mid-flight checkpoint every 2 iterations.
  std::shared_ptr<core::run_checkpoint> mid;
  core::method_hooks capturing;
  capturing.run_postfab_mc = false;
  capturing.checkpoint_every = 2;
  capturing.on_checkpoint = [&mid](const core::run_checkpoint& ck) {
    if (ck.next_iteration == 2) mid = std::make_shared<core::run_checkpoint>(ck);
  };
  const core::method_result checkpointed = core::run_method(device, recipe, cfg, capturing);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->total_iterations, cfg.iterations);

  // Emitting checkpoints must not perturb the run itself.
  EXPECT_EQ(checkpointed.run.theta, uninterrupted.run.theta);

  // Round-trip the snapshot through its serialized form, then resume.
  const fs::path dir = fresh_dir("boson_runtime_resume");
  runtime::save_checkpoint(dir.string(), spec.name, *mid);
  const runtime::checkpoint_file loaded =
      runtime::load_checkpoint(runtime::checkpoint_path(dir.string()));

  core::method_hooks resuming;
  resuming.run_postfab_mc = false;
  resuming.resume = std::make_shared<core::run_checkpoint>(loaded.state);
  const core::method_result resumed = core::run_method(device, recipe, cfg, resuming);

  EXPECT_EQ(resumed.run.theta, uninterrupted.run.theta);
  EXPECT_EQ(resumed.run.final_loss, uninterrupted.run.final_loss);
  ASSERT_EQ(resumed.run.trajectory.size(), uninterrupted.run.trajectory.size());
  for (std::size_t i = 0; i < resumed.run.trajectory.size(); ++i) {
    EXPECT_EQ(resumed.run.trajectory[i].loss, uninterrupted.run.trajectory[i].loss) << i;
    EXPECT_EQ(resumed.run.trajectory[i].metrics, uninterrupted.run.trajectory[i].metrics) << i;
  }
  EXPECT_EQ(resumed.prefab_fom, uninterrupted.prefab_fom);
  ASSERT_EQ(resumed.mask.size(), uninterrupted.mask.size());
  for (std::size_t i = 0; i < resumed.mask.size(); ++i)
    ASSERT_EQ(resumed.mask.data()[i], uninterrupted.mask.data()[i]) << i;
}

// ----------------------------------------------------------- result store --

TEST(result_store, append_load_and_latest_attempt_wins) {
  const fs::path dir = fresh_dir("boson_runtime_store");
  {
    runtime::result_store store(dir.string());
    runtime::job_result_row row;
    row.job_index = 1;
    row.name = "job1";
    row.device = "bend";
    row.method = "ls";
    row.seed = 7;
    row.prefab_fom = 0.5;
    row.attempt = 1;
    store.append(row);
    row.prefab_fom = 0.75;  // retry overwrote the result
    row.attempt = 2;
    store.append(row);
    runtime::job_result_row other;
    other.job_index = 0;
    other.name = "job0";
    other.device = "bend";
    other.method = "density";
    other.seed = 7;
    other.prefab_fom = 0.25;
    other.postfab_samples = 2;
    other.postfab_mean = 0.2;
    other.postfab_std = 0.05;
    other.postfab_min = 0.15;
    other.postfab_max = 0.25;
    store.append(other);
  }
  const auto rows = runtime::result_store::load(dir.string());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].job_index, 0u);
  EXPECT_EQ(rows[0].postfab_samples, 2u);
  EXPECT_DOUBLE_EQ(rows[0].postfab_max, 0.25);
  EXPECT_EQ(rows[1].attempt, 2u);
  EXPECT_DOUBLE_EQ(rows[1].prefab_fom, 0.75);
}

/// A row as the store writes it, for hand-built store files.
std::string row_line(std::size_t job) {
  runtime::job_result_row row;
  row.job_index = job;
  row.name = "job" + std::to_string(job);
  return row.to_json().dump(-1);
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

TEST(result_store, opening_heals_a_torn_tail_before_appending) {
  const fs::path dir = fresh_dir("boson_runtime_store_heal");
  const std::string path = runtime::result_store::store_path(dir.string());
  std::ofstream(path, std::ios::binary) << row_line(0) << "\n" << R"({"job":1,"na)";
  EXPECT_EQ(runtime::result_store::load(dir.string()).size(), 1u);  // torn tail ignored
  {
    runtime::result_store store(dir.string());
    EXPECT_EQ(read_text(path), row_line(0) + "\n");
    runtime::job_result_row row;
    row.job_index = 2;
    store.append(row);
  }
  const auto rows = runtime::result_store::load(dir.string());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].job_index, 2u);
}

TEST(result_store, opening_does_not_truncate_while_another_descriptor_holds_the_lock) {
  // An appender holds a shared flock on results.jsonl across its write. A
  // worker opening the store meanwhile must wait for it before cutting a
  // torn tail: a boundary computed earlier would drop the committed row.
  const fs::path dir = fresh_dir("boson_runtime_store_heal_lock");
  const std::string path = runtime::result_store::store_path(dir.string());
  const std::string torn = row_line(0) + "\n" + R"({"job":1,"na)";
  std::ofstream(path, std::ios::binary) << torn;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_SH), 0);
  std::atomic<bool> opened{false};
  std::string failure;
  std::thread opener([&] {
    try {
      runtime::result_store store(dir.string());
    } catch (const std::exception& e) {
      failure = e.what();
    }
    opened.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(opened.load());
  EXPECT_EQ(read_text(path), torn);

  ::flock(fd, LOCK_UN);
  ::close(fd);
  opener.join();
  EXPECT_EQ(failure, "");
  EXPECT_EQ(read_text(path), row_line(0) + "\n");
}

TEST(result_store, report_covers_the_method_device_grid) {
  runtime::campaign_spec spec = synthetic_campaign();
  std::vector<runtime::job_result_row> rows;
  for (const runtime::campaign_job& job : spec.expand()) {
    runtime::job_result_row row;
    row.job_index = job.index;
    row.name = job.name;
    row.device = job.spec.device;
    row.method = job.spec.method;
    row.seed = job.spec.seed;
    row.prefab_fom = 0.5;
    row.postfab_samples = 2;
    row.postfab_mean = 0.4;
    row.postfab_std = 0.01;
    rows.push_back(row);
  }
  const std::string report = runtime::render_report(spec, rows);
  EXPECT_NE(report.find("12/12 jobs"), std::string::npos);
  for (const std::string& method : spec.methods)
    EXPECT_NE(report.find(method), std::string::npos) << method;
  EXPECT_NE(report.find("Device: bend"), std::string::npos);
}

TEST(result_store, report_names_the_override_of_every_detail_row) {
  // Jobs of a named override axis share method and seed: only the override
  // column tells their detail rows apart.
  runtime::campaign_spec spec = synthetic_campaign();  // overrides "nom", "hot"
  spec.methods = {"ls"};
  spec.seeds = {7};
  const auto rows_of = [](const runtime::campaign_spec& campaign) {
    std::vector<runtime::job_result_row> rows;
    for (const runtime::campaign_job& job : campaign.expand()) {
      runtime::job_result_row row;
      row.job_index = job.index;
      row.name = job.name;
      row.device = job.spec.device;
      row.method = job.spec.method;
      row.seed = job.spec.seed;
      rows.push_back(row);
    }
    return rows;
  };
  const std::string report = runtime::render_report(spec, rows_of(spec));
  EXPECT_NE(report.find("| override "), std::string::npos) << report;
  EXPECT_NE(report.find("| nom "), std::string::npos) << report;
  EXPECT_NE(report.find("| hot "), std::string::npos) << report;

  // Without named overrides the detail layout is unchanged.
  spec.overrides.clear();
  EXPECT_EQ(runtime::render_report(spec, rows_of(spec)).find("override"), std::string::npos);
}

/// One Monte-Carlo result row per job of `spec`, each from `fill`.
std::vector<runtime::job_result_row> mc_rows(
    const runtime::campaign_spec& spec,
    const std::function<void(runtime::job_result_row&)>& fill) {
  std::vector<runtime::job_result_row> rows;
  for (const runtime::campaign_job& job : spec.expand()) {
    runtime::job_result_row row;
    row.job_index = job.index;
    row.name = job.name;
    row.device = job.spec.device;
    row.method = job.spec.method;
    row.seed = job.spec.seed;
    row.postfab_samples = 4;
    fill(row);
    rows.push_back(row);
  }
  return rows;
}

TEST(result_store, report_worst_is_the_bad_side_of_the_fom_direction) {
  // In both rows the extreme farther from the mean is the *good* one: the
  // bend's (higher-is-better) maximum and the isolator's (lower-is-better)
  // minimum. "worst" must still print the bad side.
  runtime::campaign_spec spec = synthetic_campaign();
  spec.devices = {"bend", "isolator"};
  spec.methods = {"ls"};
  spec.seeds = {7};
  spec.overrides.clear();
  const std::string report =
      runtime::render_report(spec, mc_rows(spec, [](runtime::job_result_row& row) {
        const bool bend = row.device == "bend";
        row.postfab_mean = bend ? 0.9 : 0.05;
        row.postfab_min = bend ? 0.88 : 0.01;
        row.postfab_max = bend ? 0.99 : 0.06;
      }));
  EXPECT_NE(report.find("| 8.80e-01 |"), std::string::npos) << report;
  EXPECT_NE(report.find("| 6.00e-02 |"), std::string::npos) << report;
  EXPECT_EQ(report.find("9.90e-01"), std::string::npos) << report;
  EXPECT_EQ(report.find("1.00e-02"), std::string::npos) << report;
}

TEST(result_store, report_header_says_its_spread_is_the_mean_monte_carlo_std) {
  // Two seeds with means 0.4 / 0.6 and MC stds 0.01 / 0.03: the summary cell
  // is 0.5 +- 0.02 (the mean per-job std), not the 0.14 spread over seeds.
  runtime::campaign_spec spec = synthetic_campaign();
  spec.methods = {"ls"};
  spec.seeds = {7, 8};
  spec.overrides.clear();
  const std::string report =
      runtime::render_report(spec, mc_rows(spec, [](runtime::job_result_row& row) {
        row.postfab_mean = row.seed == 7 ? 0.4 : 0.6;
        row.postfab_std = row.seed == 7 ? 0.01 : 0.03;
      }));
  EXPECT_NE(report.find("Post-fab FoM (mean over jobs +- mean per-job Monte-Carlo std)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("| 5.00e-01 +- 2.00e-02 |"), std::string::npos) << report;
  EXPECT_EQ(report.find("over seeds"), std::string::npos) << report;
}

TEST(committed_specs, load_and_expand_against_the_registries) {
  // Every committed spec under examples/specs/ (the paper's tables and
  // figures in paper/ included) parses and resolves against the name tables,
  // and every campaign expands to exactly the product of its axes.
  std::size_t campaigns = 0;
  std::size_t experiments = 0;
  for (const auto& entry : fs::recursive_directory_iterator(BOSON_SPECS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string path = entry.path().string();
    SCOPED_TRACE(path);
    const io::json_value doc = io::json_value::parse_file(path);
    if (doc.is_object() && doc.find("axes") != nullptr) {
      const io::json_value& axes = doc.at("axes");
      const auto length = [](const io::json_value* axis) {
        return axis == nullptr ? std::size_t{1} : axis->size();
      };
      const std::size_t product = axes.at("devices").size() * axes.at("methods").size() *
                                  length(axes.find("seeds")) * length(doc.find("overrides"));
      std::vector<runtime::campaign_job> jobs;
      ASSERT_NO_THROW(jobs = runtime::campaign_spec::load(path).expand());
      EXPECT_EQ(jobs.size(), product);
      ++campaigns;
    } else {
      std::vector<api::experiment_spec> specs;
      ASSERT_NO_THROW(specs = api::load_specs(path));
      for (const api::experiment_spec& spec : specs) EXPECT_NO_THROW(api::validate(spec));
      ++experiments;
    }
  }
  EXPECT_GE(campaigns, 7u);  // bend_campaign plus the six paper artefacts
  EXPECT_GE(experiments, 2u);
}

// -------------------------------------------------------------- scheduler --

TEST(scheduler, runs_every_job_and_journals_the_lifecycle) {
  const fs::path dir = fresh_dir("boson_runtime_sched");
  std::atomic<std::size_t> executed{0};

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = counting_executor(executed);
  runtime::scheduler scheduler(synthetic_campaign(), options);
  const runtime::scheduler_report report = scheduler.run();

  EXPECT_EQ(executed.load(), 12u);
  EXPECT_EQ(report.jobs, 12u);
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.rows.size(), 12u);

  const auto latest = runtime::journal::latest_states(
      runtime::journal::replay(runtime::journal_path(dir.string())));
  ASSERT_EQ(latest.size(), 12u);
  for (const auto& [index, entry] : latest) {
    (void)index;
    EXPECT_EQ(entry.state, runtime::job_state::completed);
    EXPECT_EQ(entry.attempt, 1u);
  }
  EXPECT_EQ(runtime::result_store::load(dir.string()).size(), 12u);
}

TEST(scheduler, tracing_emits_a_chrome_trace_artifact_per_job) {
  const fs::path dir = fresh_dir("boson_runtime_sched_trace");
  std::atomic<std::size_t> executed{0};

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = counting_executor(executed);
  options.trace = true;
  const runtime::scheduler_report report =
      runtime::scheduler(synthetic_campaign(), options).run();
  ASSERT_EQ(report.completed, 12u);

  // Every job directory gained a trace.json that Chrome's trace viewer can
  // load: a traceEvents array of complete ("X") events carrying the span
  // lifecycle (lease -> run -> commit) with microsecond timestamps.
  std::size_t traces = 0;
  for (const auto& entry : fs::directory_iterator(dir / "jobs")) {
    const fs::path trace_path = entry.path() / "trace.json";
    ASSERT_TRUE(fs::exists(trace_path)) << trace_path;
    ++traces;

    const io::json_value doc = io::json_value::parse_file(trace_path.string());
    const auto& events = doc.at("traceEvents").elements();
    ASSERT_FALSE(events.empty());
    std::set<std::string> names;
    for (const auto& event : events) {
      EXPECT_EQ(event.at("ph").as_string(), "X");
      EXPECT_GE(event.at("dur").as_number(), 0.0);
      names.insert(event.at("name").as_string());
    }
    EXPECT_EQ(names.count("job.lease"), 1u);
    EXPECT_EQ(names.count("job.run"), 1u);
    EXPECT_EQ(names.count("job.commit"), 1u);
  }
  EXPECT_EQ(traces, 12u);
}

TEST(scheduler, rerunning_a_finished_campaign_executes_nothing) {
  const fs::path dir = fresh_dir("boson_runtime_sched_rerun");
  std::atomic<std::size_t> executed{0};

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = counting_executor(executed);
  (void)runtime::scheduler(synthetic_campaign(), options).run();
  ASSERT_EQ(executed.load(), 12u);

  const runtime::scheduler_report second =
      runtime::scheduler(synthetic_campaign(), options).run();
  EXPECT_EQ(executed.load(), 12u);  // nothing re-ran
  EXPECT_EQ(second.skipped, 12u);
  EXPECT_EQ(second.completed, 0u);
}

TEST(scheduler, retries_until_the_budget_is_exhausted) {
  const fs::path dir = fresh_dir("boson_runtime_sched_retry");
  std::atomic<std::size_t> attempts{0};

  runtime::campaign_spec spec = synthetic_campaign();
  spec.methods = {"ls"};
  spec.seeds = {1};
  spec.overrides.clear();
  spec.scheduler.max_retries = 2;
  spec.scheduler.workers = 1;

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = [&](const runtime::campaign_job& job, const api::run_control&,
                         api::observer*) -> api::experiment_result {
    if (attempts.fetch_add(1) < 2) throw numeric_error("transient solver failure");
    api::experiment_result result;
    result.spec = job.spec;
    return result;
  };

  const auto report = runtime::scheduler(spec, options).run();
  EXPECT_EQ(attempts.load(), 3u);  // two failures + one success
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 0u);

  const auto rows = runtime::result_store::load(dir.string());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].attempt, 3u);

  // A permanently-failing job exhausts the budget and reports the error.
  const fs::path dir2 = fresh_dir("boson_runtime_sched_fail");
  options.campaign_dir = dir2.string();
  options.executor = [](const runtime::campaign_job&, const api::run_control&,
                        api::observer*) -> api::experiment_result {
    throw numeric_error("permanent failure");
  };
  const auto failed = runtime::scheduler(spec, options).run();
  EXPECT_EQ(failed.completed, 0u);
  EXPECT_EQ(failed.failed, 1u);
  ASSERT_EQ(failed.errors.size(), 1u);
  EXPECT_NE(failed.errors[0].find("permanent failure"), std::string::npos);
  const auto latest = runtime::journal::latest_states(
      runtime::journal::replay(runtime::journal_path(dir2.string())));
  EXPECT_EQ(latest.at(0).state, runtime::job_state::failed);
  EXPECT_EQ(latest.at(0).attempt, 3u);
}

TEST(scheduler, cancel_stops_dispatch_of_queued_jobs) {
  const fs::path dir = fresh_dir("boson_runtime_sched_cancel");
  std::atomic<std::size_t> executed{0};

  runtime::campaign_spec spec = synthetic_campaign();
  spec.scheduler.workers = 1;  // deterministic dispatch order

  runtime::scheduler* target = nullptr;
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = [&](const runtime::campaign_job& job, const api::run_control&,
                         api::observer*) {
    ++executed;
    target->cancel();  // the first job pulls the plug on the campaign
    api::experiment_result result;
    result.spec = job.spec;
    return result;
  };
  runtime::scheduler scheduler(spec, options);
  target = &scheduler;
  const auto report = scheduler.run();

  // The in-flight job still completed (cancellation is cooperative and only
  // fires at iteration/stage boundaries); nothing else was dispatched.
  EXPECT_EQ(executed.load(), 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_TRUE(scheduler.cancel_requested());

  std::size_t completed = 0;
  const auto latest = runtime::journal::latest_states(
      runtime::journal::replay(runtime::journal_path(dir.string())));
  for (const auto& [index, entry] : latest) {
    (void)index;
    completed += entry.state == runtime::job_state::completed ? 1 : 0;
  }
  EXPECT_EQ(completed, 1u);
}

TEST(scheduler, discards_a_stale_checkpoint_instead_of_burning_retries) {
  // A checkpoint captured under a different effective run length (an edited
  // campaign spec) must be discarded up front so the job runs fresh, not
  // retried against the same dead snapshot.
  const fs::path dir = fresh_dir("boson_runtime_sched_stale");

  runtime::campaign_spec spec;
  spec.name = "stale_ck";
  spec.devices = {"bend"};
  spec.methods = {"ls"};
  spec.base = smoke_base();
  spec.base.iterations = 4;
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;  // no budget to burn

  const std::string job_dir = runtime::job_directory(dir.string(), "bend_ls_s7");
  core::run_checkpoint stale;
  stale.next_iteration = 500;
  stale.total_iterations = 999;  // never matches a 4-iteration run
  stale.theta = {0.0};
  stale.rng_state = rng(1).save_state();
  runtime::save_checkpoint(job_dir, "bend_ls_s7", stale);

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  const auto report = runtime::scheduler(spec, options).run();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.resumed, 0u);  // ran fresh, not from the stale snapshot
  EXPECT_FALSE(fs::exists(runtime::checkpoint_path(job_dir)));
}

TEST(scheduler, cancellation_via_observer_interrupts_and_resume_completes) {
  // A campaign of two real jobs, workers=1, checkpoint every 2 iterations.
  // An external watcher cancels the scheduler mid-way through job 1 (the
  // second job); the scheduler stops at the next iteration boundary leaving
  // job 1's checkpoint behind, and a second scheduler pass resumes it to
  // produce exactly what an uninterrupted campaign produces.
  runtime::campaign_spec spec;
  spec.name = "resume_e2e";
  spec.devices = {"bend"};
  spec.methods = {"boson_no_relax"};
  spec.seeds = {7, 8};
  spec.base = smoke_base();
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;
  spec.scheduler.checkpoint_every = 2;

  // Reference: uninterrupted campaign.
  const fs::path ref_dir = fresh_dir("boson_runtime_e2e_ref");
  runtime::scheduler_options ref_options;
  ref_options.campaign_dir = ref_dir.string();
  const auto ref_report = runtime::scheduler(spec, ref_options).run();
  ASSERT_EQ(ref_report.completed, 2u);

  // Interrupted: cancel when the second job reaches iteration 3.
  const fs::path dir = fresh_dir("boson_runtime_e2e");

  struct cancelling_watcher : api::observer {
    runtime::scheduler* target = nullptr;
    std::string trigger_job;
    void on_event(const api::progress_event& event) override {
      if (event.kind == api::progress_event::phase::iteration_finished &&
          event.experiment == trigger_job && event.iteration >= 3)
        target->cancel();
    }
  };
  cancelling_watcher watcher;
  watcher.trigger_job = "bend_boson_no_relax_s8";

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.watcher = &watcher;
  runtime::scheduler first_pass(spec, options);
  watcher.target = &first_pass;
  const auto report1 = first_pass.run();
  EXPECT_EQ(report1.completed, 1u);
  EXPECT_EQ(report1.cancelled, 1u);
  EXPECT_TRUE(
      fs::exists(runtime::checkpoint_path(runtime::job_directory(
          dir.string(), "bend_boson_no_relax_s8"))));

  // Resume without the watcher: the cancelled job restarts from iteration 4.
  runtime::scheduler_options resume_options;
  resume_options.campaign_dir = dir.string();
  runtime::scheduler second_pass(spec, resume_options);
  const auto report2 = second_pass.run();
  EXPECT_EQ(report2.skipped, 1u);
  EXPECT_EQ(report2.completed, 1u);
  EXPECT_EQ(report2.resumed, 1u);

  // Job-level results match the uninterrupted campaign exactly.
  const auto ref_rows = runtime::result_store::load(ref_dir.string());
  const auto rows = runtime::result_store::load(dir.string());
  ASSERT_EQ(ref_rows.size(), 2u);
  ASSERT_EQ(rows.size(), 2u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, ref_rows[i].name);
    EXPECT_EQ(rows[i].prefab_fom, ref_rows[i].prefab_fom) << rows[i].name;
    EXPECT_EQ(rows[i].postfab_mean, ref_rows[i].postfab_mean) << rows[i].name;
    EXPECT_EQ(rows[i].postfab_std, ref_rows[i].postfab_std) << rows[i].name;
  }

  // And the resumed job's trajectory artifact is byte-identical to the
  // uninterrupted one: the checkpointed early iterations and the post-resume
  // iterations fuse into the exact same series.
  const auto read = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string ref_csv =
      read(fs::path(ref_dir) / "jobs" / "bend_boson_no_relax_s8" / "trajectory.csv");
  const std::string csv =
      read(fs::path(dir) / "jobs" / "bend_boson_no_relax_s8" / "trajectory.csv");
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(csv, ref_csv);
}

// ------------------------------------------------------- lease journaling --

TEST(journal, lease_records_round_trip_every_field) {
  runtime::journal_entry e;
  e.job_index = 7;
  e.job_name = "job7";
  e.state = runtime::job_state::leased;
  e.attempt = 2;
  e.worker = "w42";
  e.lease_id = 9;
  e.deadline = 1234.5;
  e.stamp = 1204.5;
  const runtime::journal_entry back = runtime::journal_entry::from_json(e.to_json());
  EXPECT_EQ(back.state, runtime::job_state::leased);
  EXPECT_EQ(back.worker, "w42");
  EXPECT_EQ(back.lease_id, 9u);
  EXPECT_DOUBLE_EQ(back.deadline, 1234.5);
  EXPECT_DOUBLE_EQ(back.stamp, 1204.5);

  // Every lease state survives the string round trip.
  for (const runtime::job_state s :
       {runtime::job_state::leased, runtime::job_state::lease_renewed,
        runtime::job_state::lease_released, runtime::job_state::lease_expired})
    EXPECT_EQ(runtime::job_state_from_string(runtime::to_string(s)), s);

  // A legacy (pre-lease) record serializes without any lease keys and a
  // legacy line parses to the zero defaults — old journals stay replayable.
  runtime::journal_entry legacy;
  legacy.job_index = 1;
  legacy.job_name = "old";
  legacy.state = runtime::job_state::completed;
  legacy.attempt = 1;
  const io::json_value v = legacy.to_json();
  EXPECT_EQ(v.find("worker"), nullptr);
  EXPECT_EQ(v.find("lease"), nullptr);
  EXPECT_EQ(v.find("deadline"), nullptr);
  EXPECT_EQ(v.find("t"), nullptr);
  const runtime::journal_entry parsed = runtime::journal_entry::from_json(
      io::json_value::parse(R"({"job":1,"name":"old","state":"running","attempt":1})"));
  EXPECT_TRUE(parsed.worker.empty());
  EXPECT_EQ(parsed.lease_id, 0u);
  EXPECT_DOUBLE_EQ(parsed.deadline, 0.0);
  EXPECT_DOUBLE_EQ(parsed.stamp, 0.0);
}

TEST(journal, torn_lease_record_tail_heals_and_resolves) {
  const fs::path dir = fresh_dir("boson_runtime_journal_lease_torn");
  const std::string path = runtime::journal_path(dir.string());
  {
    runtime::journal log(path);
    runtime::journal_entry e;
    e.job_index = 0;
    e.job_name = "job0";
    e.state = runtime::job_state::leased;
    e.attempt = 1;
    e.worker = "a";
    e.lease_id = 1;
    e.deadline = 10.0;
    e.stamp = 0.0;
    log.append(e);
    e.state = runtime::job_state::lease_renewed;
    e.deadline = 20.0;
    e.stamp = 5.0;
    log.append(e);
  }
  // A crash mid-claim leaves a truncated lease record: dropped on replay,
  // healed on the next append, and the resolved lease state is unaffected.
  {
    std::ofstream out(first_segment(path), std::ios::app);
    out << R"({"job":1,"name":"job1","state":"leased","attempt":1,"worker":"b","lea)";
  }
  const auto torn = runtime::journal::replay(path);
  ASSERT_EQ(torn.size(), 2u);
  runtime::lease_table table = runtime::lease_table::resolve(torn);
  EXPECT_EQ(table.view(0).state, runtime::lease_view::phase::leased);
  EXPECT_EQ(table.view(0).worker, "a");
  EXPECT_DOUBLE_EQ(table.view(0).deadline, 20.0);  // the renewal took
  EXPECT_EQ(table.view(1).state, runtime::lease_view::phase::pending);

  {
    runtime::journal log(path);  // heals the torn tail
    runtime::journal_entry e;
    e.job_index = 1;
    e.job_name = "job1";
    e.state = runtime::job_state::leased;
    e.attempt = 1;
    e.worker = "b";
    e.lease_id = 1;
    e.deadline = 12.0;
    e.stamp = 2.0;
    log.append(e);
  }
  const auto healed = runtime::journal::replay(path);
  ASSERT_EQ(healed.size(), 3u);
  table = runtime::lease_table::resolve(healed);
  EXPECT_EQ(table.view(1).state, runtime::lease_view::phase::leased);
  EXPECT_EQ(table.view(1).worker, "b");
}

TEST(campaign_spec, lease_ttl_round_trips_and_validates) {
  runtime::campaign_spec spec = synthetic_campaign();
  spec.scheduler.lease_ttl = 12.5;
  const runtime::campaign_spec back = runtime::campaign_spec::from_json(spec.to_json());
  EXPECT_DOUBLE_EQ(back.scheduler.lease_ttl, 12.5);

  io::json_value bad = spec.to_json();
  bad["scheduler"]["lease_ttl"] = 0.0;
  expect_throw_with<bad_argument>(
      [&] { (void)runtime::campaign_spec::from_json(bad); }, "lease_ttl");
  bad["scheduler"]["lease_ttl"] = io::json_value::parse("\"fast\"");
  expect_throw_with<bad_argument>(
      [&] { (void)runtime::campaign_spec::from_json(bad); }, "lease_ttl");
}

// --------------------------------------------------------- lease semantics --

TEST(fault_injector, arms_parses_and_fires_at_the_nth_occurrence) {
  runtime::fault_injector faults;
  std::vector<std::size_t> fired;
  faults.arm(runtime::fault_point::mid_run, 3,
             [&fired](const runtime::fault_site& site) { fired.push_back(site.occurrence); });
  for (std::size_t i = 0; i < 5; ++i) faults.hit(runtime::fault_point::mid_run, 1, "j", 1);
  ASSERT_EQ(fired.size(), 1u);  // only the 3rd hit fired
  EXPECT_EQ(fired[0], 3u);
  EXPECT_EQ(faults.count(runtime::fault_point::mid_run), 5u);
  EXPECT_EQ(faults.count(runtime::fault_point::after_lease), 0u);

  // The CLI spec form: "point:n" (and every point name parses).
  for (const char* name : {"after_lease", "mid_run", "after_checkpoint", "before_result"})
    EXPECT_STREQ(runtime::to_string(runtime::fault_point_from_string(name)), name);
  expect_throw_with<bad_argument>(
      [] { (void)runtime::fault_point_from_string("mid_flight"); }, "mid_flight");
  runtime::fault_injector cli;
  cli.arm("after_checkpoint:2");  // arms kill_process; never hit here
  expect_throw_with<bad_argument>([&] { cli.arm("mid_run:x"); }, "occurrence");
}

TEST(lease_table, resolution_rules_cover_claims_steals_and_legacy_records) {
  using phase = runtime::lease_view::phase;
  const auto rec = [](std::size_t job, runtime::job_state state, std::size_t attempt,
                      const std::string& worker, std::uint64_t lease, double deadline,
                      double stamp) {
    runtime::journal_entry e;
    e.job_index = job;
    e.job_name = "j" + std::to_string(job);
    e.state = state;
    e.attempt = attempt;
    e.worker = worker;
    e.lease_id = lease;
    e.deadline = deadline;
    e.stamp = stamp;
    return e;
  };

  runtime::lease_table t;
  // A claim wins from pending; a second claim over the live lease loses.
  t.apply(rec(0, runtime::job_state::leased, 1, "a", 1, 10.0, 0.0));
  t.apply(rec(0, runtime::job_state::leased, 1, "b", 1, 11.0, 1.0));
  EXPECT_EQ(t.view(0).worker, "a");

  // Renewal by a non-owner is void; by the owner it moves the deadline.
  t.apply(rec(0, runtime::job_state::lease_renewed, 1, "b", 1, 99.0, 2.0));
  EXPECT_DOUBLE_EQ(t.view(0).deadline, 10.0);
  t.apply(rec(0, runtime::job_state::lease_renewed, 1, "a", 1, 15.0, 3.0));
  EXPECT_DOUBLE_EQ(t.view(0).deadline, 15.0);

  // A premature expiry (stamp < deadline) cannot rob a slow worker...
  t.apply(rec(0, runtime::job_state::lease_expired, 1, "a", 1, 15.0, 14.0));
  EXPECT_EQ(t.view(0).state, phase::leased);
  // ...a proven one frees the job, and the thief's claim then wins.
  t.apply(rec(0, runtime::job_state::lease_expired, 1, "a", 1, 15.0, 15.0));
  EXPECT_EQ(t.view(0).state, phase::pending);
  t.apply(rec(0, runtime::job_state::leased, 2, "b", 2, 30.0, 15.0));
  EXPECT_EQ(t.view(0).worker, "b");
  EXPECT_EQ(t.view(0).attempts, 2u);

  // completed is terminal: stragglers from the robbed worker are ignored.
  t.apply(rec(0, runtime::job_state::completed, 2, "b", 2, 0.0, 16.0));
  t.apply(rec(0, runtime::job_state::leased, 3, "a", 2, 99.0, 17.0));
  EXPECT_EQ(t.view(0).state, phase::done);

  // Voluntary release frees the job for the next claimant.
  t.apply(rec(1, runtime::job_state::leased, 1, "a", 3, 10.0, 0.0));
  t.apply(rec(1, runtime::job_state::lease_released, 1, "a", 3, 0.0, 1.0));
  EXPECT_EQ(t.view(1).state, phase::pending);

  // failed / cancelled release the owner's lease; legacy records (no
  // worker — the pre-lease flow) release whatever is live.
  t.apply(rec(2, runtime::job_state::leased, 1, "a", 4, 10.0, 0.0));
  t.apply(rec(2, runtime::job_state::failed, 1, "a", 4, 0.0, 1.0));
  EXPECT_EQ(t.view(2).state, phase::pending);
  t.apply(rec(3, runtime::job_state::leased, 1, "a", 5, 10.0, 0.0));
  t.apply(rec(3, runtime::job_state::cancelled, 1, "", 0, 0.0, 1.0));
  EXPECT_EQ(t.view(3).state, phase::pending);

  // A journal written by the pre-lease scheduler (running / completed only,
  // no lease fields) resolves to done just the same.
  runtime::lease_table legacy;
  legacy.apply(rec(4, runtime::job_state::running, 1, "", 0, 0.0, 0.0));
  EXPECT_EQ(legacy.view(4).state, phase::pending);
  legacy.apply(rec(4, runtime::job_state::completed, 1, "", 0, 0.0, 0.0));
  EXPECT_TRUE(legacy.done(4));
}

TEST(lease_table, seeded_adversarial_histories_never_overlap_live_leases) {
  // Property test: fold journals of fully random records (every state kind,
  // random workers / lease ids / stamps / deadlines, including nonsense
  // combinations no healthy worker would write) and replay-check that the
  // single-owner invariant holds at every prefix.
  const std::vector<runtime::job_state> states = {
      runtime::job_state::leased,         runtime::job_state::lease_renewed,
      runtime::job_state::lease_released, runtime::job_state::lease_expired,
      runtime::job_state::running,        runtime::job_state::checkpointed,
      runtime::job_state::completed,      runtime::job_state::failed,
      runtime::job_state::cancelled};
  const std::vector<std::string> workers = {"", "a", "b", "c"};
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    rng r(seed);
    std::vector<runtime::journal_entry> history;
    history.reserve(400);
    for (std::size_t i = 0; i < 400; ++i) {
      runtime::journal_entry e;
      e.job_index = static_cast<std::size_t>(r.uniform_int(0, 3));
      e.job_name = "j" + std::to_string(e.job_index);
      e.state = states[static_cast<std::size_t>(r.uniform_int(0, 8))];
      e.attempt = static_cast<std::size_t>(r.uniform_int(0, 4));
      e.worker = workers[static_cast<std::size_t>(r.uniform_int(0, 3))];
      e.lease_id = static_cast<std::uint64_t>(r.uniform_int(0, 5));
      e.deadline = r.uniform(0.0, 20.0);
      e.stamp = r.uniform(0.0, 20.0);
      history.push_back(e);
    }
    expect_single_owner_throughout(history);
  }
}

// ---------------------------------------------------------- lease manager --

TEST(lease_manager, append_then_verify_claims_and_expired_lease_steals) {
  const fs::path dir = fresh_dir("boson_runtime_lease_claims");
  const std::string path = runtime::journal_path(dir.string());
  runtime::journal log_a(path);
  runtime::journal log_b(path);

  double now_a = 0.0;
  double now_b = 0.0;
  runtime::lease_manager a(log_a, "a", 10.0, [&now_a] { return now_a; });
  runtime::lease_manager b(log_b, "b", 10.0, [&now_b] { return now_b; });

  // First claim wins; the loser's verify pass reports the loss.
  std::optional<runtime::job_lease> held = a.claim(0, "job0");
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(held->stolen);
  EXPECT_EQ(held->attempt, 1u);
  EXPECT_DOUBLE_EQ(held->deadline, 10.0);
  EXPECT_FALSE(b.claim(0, "job0").has_value());
  EXPECT_TRUE(a.still_owner(*held));

  // Before the deadline nobody can steal; after it, an explicit expiry
  // record plus a fresh claim transfer the job.
  now_b = 9.0;
  EXPECT_FALSE(b.claim(0, "job0").has_value());
  now_b = 10.0;
  const std::optional<runtime::job_lease> stolen = b.claim(0, "job0");
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->stolen);
  EXPECT_EQ(stolen->stolen_from, "a");
  EXPECT_EQ(stolen->attempt, 2u);

  // The robbed worker notices on its next heartbeat / ownership check.
  EXPECT_FALSE(a.still_owner(*held));
  EXPECT_FALSE(a.renew(*held));

  // The whole exchange satisfies the single-owner invariant.
  expect_single_owner_throughout(runtime::journal::replay(path));
}

TEST(lease_manager, renewals_extend_and_releases_free_immediately) {
  const fs::path dir = fresh_dir("boson_runtime_lease_renew");
  const std::string path = runtime::journal_path(dir.string());
  runtime::journal log_a(path);
  runtime::journal log_b(path);

  double now = 0.0;
  const runtime::clock_fn clock = [&now] { return now; };
  runtime::lease_manager a(log_a, "a", 10.0, clock);
  runtime::lease_manager b(log_b, "b", 10.0, clock);

  std::optional<runtime::job_lease> held = a.claim(5, "job5");
  ASSERT_TRUE(held.has_value());
  now = 6.0;
  ASSERT_TRUE(a.renew(*held));
  EXPECT_DOUBLE_EQ(held->deadline, 16.0);
  now = 12.0;  // past the original deadline, inside the renewed one
  EXPECT_FALSE(b.claim(5, "job5").has_value());

  // A voluntary release frees the job with no expiry wait at all.
  a.release(*held);
  const std::optional<runtime::job_lease> next = b.claim(5, "job5");
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->stolen);  // released, not expired: a clean claim
  EXPECT_FALSE(a.still_owner(*held));
}

TEST(lease_manager, incremental_refresh_leaves_a_partial_tail_for_later) {
  const fs::path dir = fresh_dir("boson_runtime_lease_tail");
  const std::string path = runtime::journal_path(dir.string());
  runtime::journal log(path);
  runtime::lease_manager writer(log, "a", 10.0, [] { return 0.0; });
  ASSERT_TRUE(writer.claim(0, "job0").has_value());

  runtime::journal log_b(path);
  runtime::lease_manager reader(log_b, "b", 10.0, [] { return 0.0; });
  EXPECT_EQ(reader.snapshot().view(0).worker, "a");

  // A racing writer's half-flushed line is not consumed...
  const std::string record =
      R"({"job":1,"name":"job1","state":"leased","attempt":1,"worker":"c","lease":1,"deadline":9})";
  {
    std::ofstream out(first_segment(path), std::ios::app | std::ios::binary);
    out << record.substr(0, 40);
  }
  EXPECT_EQ(reader.snapshot().view(1).state, runtime::lease_view::phase::pending);
  // ...and folds in whole once the rest of the line (and newline) lands.
  {
    std::ofstream out(first_segment(path), std::ios::app | std::ios::binary);
    out << record.substr(40) << "\n";
  }
  EXPECT_EQ(reader.snapshot().view(1).worker, "c");
  EXPECT_EQ(writer.snapshot().view(1).worker, "c");  // the writer tails too
}

TEST(lease_manager, seeded_protocol_interleavings_keep_at_most_one_owner) {
  // Property test over the *protocol* (not raw records): three managers
  // claim / renew / release / complete four jobs under a shared manual
  // clock that jumps by random amounts (sometimes past deadlines, forcing
  // steals). After every operation, at most one held lease per job may
  // still verify as owned, and the incremental folds agree with a full
  // replay at the end.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const fs::path dir =
        fresh_dir("boson_runtime_lease_prop_" + std::to_string(seed));
    const std::string path = runtime::journal_path(dir.string());
    double now = 0.0;
    const runtime::clock_fn clock = [&now] { return now; };

    std::vector<std::unique_ptr<runtime::journal>> logs;
    std::vector<std::unique_ptr<runtime::lease_manager>> managers;
    const std::vector<std::string> names = {"a", "b", "c"};
    for (const std::string& name : names) {
      logs.push_back(std::make_unique<runtime::journal>(path));
      managers.push_back(
          std::make_unique<runtime::lease_manager>(*logs.back(), name, 10.0, clock));
    }
    std::vector<std::vector<runtime::job_lease>> held(managers.size());

    rng r(seed);
    for (std::size_t step = 0; step < 250; ++step) {
      const std::size_t m = static_cast<std::size_t>(r.uniform_int(0, 2));
      switch (r.uniform_int(0, 5)) {
        case 0:
        case 1: {  // claim a random job
          const std::size_t job = static_cast<std::size_t>(r.uniform_int(0, 3));
          std::optional<runtime::job_lease> lease =
              managers[m]->claim(job, "j" + std::to_string(job));
          if (lease) held[m].push_back(*lease);
          break;
        }
        case 2: {  // heartbeat a random held lease
          if (held[m].empty()) break;
          const std::size_t k =
              static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(held[m].size()) - 1));
          if (!managers[m]->renew(held[m][k]))
            held[m].erase(held[m].begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case 3: {  // voluntarily release one
          if (held[m].empty()) break;
          const std::size_t k =
              static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(held[m].size()) - 1));
          managers[m]->release(held[m][k]);
          held[m].erase(held[m].begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case 4: {  // commit one (the done-is-terminal path)
          if (held[m].empty()) break;
          const std::size_t k =
              static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(held[m].size()) - 1));
          if (managers[m]->still_owner(held[m][k])) {
            runtime::journal_entry e;
            e.job_index = held[m][k].job_index;
            e.job_name = held[m][k].job_name;
            e.state = runtime::job_state::completed;
            e.attempt = held[m][k].attempt;
            e.worker = names[m];
            e.lease_id = held[m][k].lease_id;
            e.stamp = now;
            logs[m]->append(e);
          }
          held[m].erase(held[m].begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case 5:  // time marches (sometimes past a deadline)
          now += r.uniform(0.0, 6.0);
          break;
      }

      // Invariant: per job, at most one held lease still verifies as owned.
      for (std::size_t job = 0; job < 4; ++job) {
        std::size_t owners = 0;
        for (std::size_t i = 0; i < managers.size(); ++i)
          for (const runtime::job_lease& lease : held[i])
            if (lease.job_index == job && managers[i]->still_owner(lease)) ++owners;
        ASSERT_LE(owners, 1u) << "seed " << seed << " step " << step << " job " << job;
      }
    }

    const auto entries = runtime::journal::replay(path);
    expect_single_owner_throughout(entries);
    const runtime::lease_table replayed = runtime::lease_table::resolve(entries);
    for (std::size_t job = 0; job < 4; ++job) {
      const runtime::lease_view truth = replayed.view(job);
      for (const auto& manager : managers) {
        const runtime::lease_view folded = manager->snapshot().view(job);
        EXPECT_EQ(folded.state, truth.state) << "seed " << seed << " job " << job;
        EXPECT_EQ(folded.worker, truth.worker);
        EXPECT_EQ(folded.lease_id, truth.lease_id);
      }
    }
  }
}

// ------------------------------------------------------ elastic scheduler --

TEST(scheduler, concurrent_elastic_workers_cover_the_campaign_exactly_once) {
  // Two scheduler processes' worth of workers race over one
  // campaign directory; leases keep them disjoint with no static partition.
  const fs::path dir = fresh_dir("boson_runtime_sched_elastic");
  std::atomic<std::size_t> executed_a{0};
  std::atomic<std::size_t> executed_b{0};

  runtime::scheduler_report report_a;
  runtime::scheduler_report report_b;
  const auto run_worker = [&dir](const std::string& worker,
                                 std::atomic<std::size_t>& executed,
                                 runtime::scheduler_report& out) {
    runtime::scheduler_options options;
    options.campaign_dir = dir.string();
    options.worker_id = worker;
    options.executor = counting_executor(executed);
    out = runtime::scheduler(synthetic_campaign(), options).run();
  };
  std::thread ta(run_worker, "alpha", std::ref(executed_a), std::ref(report_a));
  std::thread tb(run_worker, "beta", std::ref(executed_b), std::ref(report_b));
  ta.join();
  tb.join();

  EXPECT_EQ(executed_a.load() + executed_b.load(), 12u);
  EXPECT_EQ(report_a.completed + report_b.completed, 12u);
  EXPECT_EQ(report_a.claimed + report_b.claimed, 12u);
  EXPECT_EQ(report_a.stolen + report_b.stolen, 0u);  // nobody died
  EXPECT_EQ(runtime::result_store::load(dir.string()).size(), 12u);
  EXPECT_EQ(result_line_count(dir), 12u);  // exactly once, not latest-wins
  expect_single_owner_throughout(
      runtime::journal::replay(runtime::journal_path(dir.string())));
}

TEST(scheduler, losing_a_lease_mid_run_forfeits_instead_of_double_reporting) {
  // A thief steals the job while the worker is mid-iteration (the manual
  // clock jumps past the deadline); the worker's next heartbeat fails, the
  // attempt aborts, and no result row is committed by the loser.
  const fs::path dir = fresh_dir("boson_runtime_sched_lost");
  runtime::campaign_spec spec = synthetic_campaign();
  spec.methods = {"ls"};
  spec.seeds = {1};
  spec.overrides.clear();
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;

  std::atomic<double> now{0.0};
  std::atomic<std::size_t> executed{0};
  runtime::fault_injector faults;
  faults.arm(runtime::fault_point::mid_run, 2, [&](const runtime::fault_site& site) {
    // Simulate a stalled worker: time leaps past the deadline and another
    // worker takes the job over, then abandons it (releases) so only the
    // exactly-once accounting is at stake.
    now.store(100.0);
    runtime::journal log(runtime::journal_path(dir.string()));
    runtime::lease_manager thief(log, "thief", 10.0, [&now] { return now.load(); });
    std::optional<runtime::job_lease> loot = thief.claim(site.job_index, site.job_name);
    ASSERT_TRUE(loot.has_value());
    EXPECT_TRUE(loot->stolen);
    thief.release(*loot);
  });

  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = chatty_executor(executed, 4);
  options.lease_ttl = 9.0;
  options.clock = [&now] { return now.load(); };
  options.faults = &faults;
  const auto report = runtime::scheduler(spec, options).run();
  EXPECT_EQ(report.lost, 1u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(result_line_count(dir), 0u);  // the loser forfeited

  // A later pass (same worker id is fine — the job is pending again)
  // completes the job; the store ends with exactly one row.
  const auto recovery = runtime::scheduler(spec, options).run();
  EXPECT_EQ(recovery.completed, 1u);
  EXPECT_EQ(result_line_count(dir), 1u);
  expect_single_owner_throughout(
      runtime::journal::replay(runtime::journal_path(dir.string())));
}

TEST(scheduler, cancel_between_checkpoint_and_result_neither_discards_nor_doubles) {
  // Regression: a cancel that lands right after a checkpoint is persisted
  // (and before the result would be appended) must leave the campaign in a
  // state where one resume produces exactly one row, bit-identical to an
  // uninterrupted run.
  runtime::campaign_spec spec;
  spec.name = "cancel_ck";
  spec.devices = {"bend"};
  spec.methods = {"boson_no_relax"};
  spec.seeds = {7};
  spec.base = smoke_base();
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;
  spec.scheduler.checkpoint_every = 2;

  const fs::path ref_dir = fresh_dir("boson_runtime_cancel_ck_ref");
  runtime::scheduler_options ref_options;
  ref_options.campaign_dir = ref_dir.string();
  ASSERT_EQ(runtime::scheduler(spec, ref_options).run().completed, 1u);

  const fs::path dir = fresh_dir("boson_runtime_cancel_ck");
  runtime::fault_injector faults;
  runtime::scheduler* target = nullptr;
  faults.arm(runtime::fault_point::after_checkpoint, 2,
             [&target](const runtime::fault_site&) { target->cancel(); });
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.faults = &faults;
  runtime::scheduler first(spec, options);
  target = &first;
  const auto report1 = first.run();
  EXPECT_EQ(report1.cancelled, 1u);
  EXPECT_EQ(report1.completed, 0u);
  EXPECT_EQ(result_line_count(dir), 0u);  // not double-counted later
  ASSERT_TRUE(fs::exists(runtime::checkpoint_path(
      runtime::job_directory(dir.string(), "bend_boson_no_relax_s7"))));

  runtime::scheduler_options resume_options;
  resume_options.campaign_dir = dir.string();
  const auto report2 = runtime::scheduler(spec, resume_options).run();
  EXPECT_EQ(report2.resumed, 1u);
  EXPECT_EQ(report2.completed, 1u);

  const auto rows = runtime::result_store::load(dir.string());
  const auto ref_rows = runtime::result_store::load(ref_dir.string());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(ref_rows.size(), 1u);
  EXPECT_EQ(result_line_count(dir), 1u);  // neither discarded nor doubled
  EXPECT_EQ(rows[0].attempt, 2u);
  EXPECT_EQ(rows[0].prefab_fom, ref_rows[0].prefab_fom);
  EXPECT_EQ(rows[0].postfab_mean, ref_rows[0].postfab_mean);
  EXPECT_EQ(rows[0].postfab_std, ref_rows[0].postfab_std);
}

TEST(scheduler, steals_an_expired_lease_and_resumes_bit_identically) {
  // A worker claimed the job, checkpointed, and "died" (its lease simply
  // never moves again). A second worker with a later clock proves the lease
  // expired, steals the job, resumes from the dead worker's checkpoint, and
  // produces byte-identical artifacts to an uninterrupted run.
  runtime::campaign_spec spec;
  spec.name = "steal_resume";
  spec.devices = {"bend"};
  spec.methods = {"boson_no_relax"};
  spec.seeds = {7};
  spec.base = smoke_base();
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;
  spec.scheduler.checkpoint_every = 2;

  const fs::path ref_dir = fresh_dir("boson_runtime_steal_ref");
  runtime::scheduler_options ref_options;
  ref_options.campaign_dir = ref_dir.string();
  ASSERT_EQ(runtime::scheduler(spec, ref_options).run().completed, 1u);

  // Interrupt a real run mid-way (leaves the iteration-4 checkpoint), then
  // re-lease the job to a ghost worker that never comes back.
  const fs::path dir = fresh_dir("boson_runtime_steal");
  struct cancelling_watcher : api::observer {
    runtime::scheduler* target = nullptr;
    void on_event(const api::progress_event& event) override {
      if (event.kind == api::progress_event::phase::iteration_finished &&
          event.iteration >= 3)
        target->cancel();
    }
  } watcher;
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.watcher = &watcher;
  runtime::scheduler first(spec, options);
  watcher.target = &first;
  ASSERT_EQ(first.run().cancelled, 1u);
  ASSERT_TRUE(fs::exists(runtime::checkpoint_path(
      runtime::job_directory(dir.string(), "bend_boson_no_relax_s7"))));
  {
    runtime::journal log(runtime::journal_path(dir.string()));
    runtime::lease_manager ghost(log, "ghost", 1000.0, [] { return 0.0; });
    ASSERT_TRUE(ghost.claim(0, "bend_boson_no_relax_s7").has_value());
  }

  // The rescuer's clock sits past the ghost's deadline: instant takeover.
  runtime::scheduler_options rescue_options;
  rescue_options.campaign_dir = dir.string();
  rescue_options.worker_id = "rescuer";
  rescue_options.clock = [] { return 2000.0; };
  const auto rescue = runtime::scheduler(spec, rescue_options).run();
  EXPECT_EQ(rescue.stolen, 1u);
  EXPECT_EQ(rescue.resumed, 1u);
  EXPECT_EQ(rescue.completed, 1u);

  const auto rows = runtime::result_store::load(dir.string());
  const auto ref_rows = runtime::result_store::load(ref_dir.string());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].prefab_fom, ref_rows[0].prefab_fom);
  EXPECT_EQ(rows[0].postfab_mean, ref_rows[0].postfab_mean);
  EXPECT_EQ(rows[0].postfab_std, ref_rows[0].postfab_std);

  const auto read = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string ref_csv =
      read(fs::path(ref_dir) / "jobs" / "bend_boson_no_relax_s7" / "trajectory.csv");
  const std::string csv =
      read(fs::path(dir) / "jobs" / "bend_boson_no_relax_s7" / "trajectory.csv");
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(csv, ref_csv);
  expect_single_owner_throughout(
      runtime::journal::replay(runtime::journal_path(dir.string())));
}

// ------------------------------------------------- multi-process kill matrix --

/// One forked CLI-less worker: runs an elastic scheduler over `spec` in
/// `dir` under a constant clock (0.0), optionally armed to SIGKILL itself at
/// the `kill_at_claim`-th won lease. With one thread and no live competitor
/// its claims happen in job order, so a worker started after its
/// predecessors died has a deterministic kill schedule.
pid_t fork_campaign_worker(const runtime::campaign_spec& spec, const fs::path& dir,
                           const std::string& worker, std::size_t kill_at_claim) {
  return fork_worker([&spec, &dir, worker, kill_at_claim] {
    runtime::fault_injector faults;
    if (kill_at_claim > 0)
      faults.arm(runtime::fault_point::after_lease, kill_at_claim, runtime::kill_process);
    std::atomic<std::size_t> executed{0};
    runtime::scheduler_options options;
    options.campaign_dir = dir.string();
    options.worker_id = worker;
    options.workers = 1;  // one thread -> claims in job order
    options.lease_ttl = 5.0;
    options.clock = [] { return 0.0; };
    options.executor = counting_executor(executed);
    options.faults = kill_at_claim > 0 ? &faults : nullptr;
    (void)runtime::scheduler(spec, options).run();
  });
}

TEST(scheduler, sigkilled_workers_jobs_are_stolen_and_finished_exactly_once) {
  // Three real worker processes take turns at the 12-job campaign; two are
  // SIGKILLed at staggered kill points while holding leases. A recovery
  // worker (clock past every dead lease's deadline) steals and finishes:
  // 12/12 coverage, one result row per job, single-owner throughout.
  const fs::path dir = fresh_dir("boson_runtime_sched_kill");
  const runtime::campaign_spec spec = synthetic_campaign();

  // A kills itself claiming its 2nd job (job 0 completed, job 1
  // leased-at-death); B skips A's live lease and dies claiming its 4th
  // (jobs 2-4 completed, job 5 leased-at-death); C completes jobs 6-11.
  const pid_t a = fork_campaign_worker(spec, dir, "wa", 2);
  EXPECT_EQ(wait_worker(a), child_end::sigkilled);
  const pid_t b = fork_campaign_worker(spec, dir, "wb", 4);
  EXPECT_EQ(wait_worker(b), child_end::sigkilled);
  const pid_t c = fork_campaign_worker(spec, dir, "wc", 0);
  EXPECT_EQ(wait_worker(c), child_end::clean_exit);
  ASSERT_EQ(result_line_count(dir), 10u);  // 1 + 3 + 6 made it before the rescue

  std::atomic<std::size_t> executed{0};
  runtime::scheduler_options rescue;
  rescue.campaign_dir = dir.string();
  rescue.worker_id = "rescuer";
  rescue.clock = [] { return 100.0; };  // past every dead deadline: no waiting
  rescue.executor = counting_executor(executed);
  const auto report = runtime::scheduler(spec, rescue).run();
  EXPECT_EQ(report.skipped, 10u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.stolen, 2u);  // the two leases that died with their workers
  EXPECT_EQ(report.failed, 0u);

  const auto rows = runtime::result_store::load(dir.string());
  ASSERT_EQ(rows.size(), 12u);
  EXPECT_EQ(result_line_count(dir), 12u);  // exactly once — no duplicates
  std::set<std::size_t> jobs;
  for (const auto& row : rows) jobs.insert(row.job_index);
  EXPECT_EQ(jobs.size(), 12u);
  const auto entries = runtime::journal::replay(runtime::journal_path(dir.string()));
  expect_single_owner_throughout(entries);
  std::size_t expired = 0;
  for (const auto& e : entries)
    expired += e.state == runtime::job_state::lease_expired ? 1 : 0;
  EXPECT_EQ(expired, 2u);  // each steal wrote its takeover prologue
}

TEST(scheduler, losing_half_the_fleet_mid_campaign_still_reaches_full_coverage) {
  // Four workers, two SIGKILLed at staggered claims — the surviving half of
  // the fleet plus one recovery pass still reach 12/12.
  const fs::path dir = fresh_dir("boson_runtime_sched_half_fleet");
  const runtime::campaign_spec spec = synthetic_campaign();

  // w0 dies holding job 0; w1 completes jobs 1-2 and dies holding job 3;
  // the surviving pair then races over the rest.
  const pid_t w0 = fork_campaign_worker(spec, dir, "w0", 1);  // dies instantly
  EXPECT_EQ(wait_worker(w0), child_end::sigkilled);
  const pid_t w1 = fork_campaign_worker(spec, dir, "w1", 3);
  EXPECT_EQ(wait_worker(w1), child_end::sigkilled);
  const pid_t w2 = fork_campaign_worker(spec, dir, "w2", 0);
  const pid_t w3 = fork_campaign_worker(spec, dir, "w3", 0);
  EXPECT_EQ(wait_worker(w2), child_end::clean_exit);
  EXPECT_EQ(wait_worker(w3), child_end::clean_exit);

  std::atomic<std::size_t> executed{0};
  runtime::scheduler_options rescue;
  rescue.campaign_dir = dir.string();
  rescue.worker_id = "rescuer";
  rescue.clock = [] { return 100.0; };
  rescue.executor = counting_executor(executed);
  const auto report = runtime::scheduler(spec, rescue).run();
  EXPECT_EQ(report.completed + report.skipped, 12u);
  EXPECT_EQ(report.stolen, 2u);

  ASSERT_EQ(runtime::result_store::load(dir.string()).size(), 12u);
  EXPECT_EQ(result_line_count(dir), 12u);
  expect_single_owner_throughout(
      runtime::journal::replay(runtime::journal_path(dir.string())));
}

// ------------------------------------------------ pre-store single file --

/// Every entry directly under `dir`, by name.
std::set<std::string> entry_names(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    names.insert(entry.path().filename().string());
  return names;
}

TEST(journal, refuses_a_pre_store_single_file_journal_and_writes_nothing) {
  // A campaign written before the segmented store kept one `journal.jsonl`.
  // Opening it names the file instead of starting an empty store beside it
  // that would hide the history; neither the path lookup nor a scheduler
  // run creates or renames anything.
  const fs::path dir = fresh_dir("boson_runtime_pre_store");
  const runtime::campaign_spec spec = synthetic_campaign();
  spec.to_json().write_file(runtime::campaign_spec_path(dir.string()));
  std::ofstream(dir / "journal.jsonl")
      << R"({"job":0,"name":"j","state":"leased","attempt":1})" << "\n";
  const std::set<std::string> before = entry_names(dir);

  expect_throw_with<io_error>([&] { (void)runtime::journal_path(dir.string()); },
                              (dir / "journal.jsonl").string());
  std::atomic<std::size_t> executed{0};
  runtime::scheduler_options options;
  options.campaign_dir = dir.string();
  options.executor = counting_executor(executed);
  expect_throw_with<io_error>([&] { (void)runtime::scheduler(spec, options).run(); },
                              "journal.jsonl");
  EXPECT_EQ(executed.load(), 0u);
  EXPECT_EQ(entry_names(dir), before);
}

TEST(scheduler, sigkilled_mid_run_worker_resumes_bit_identically) {
  // A worker process running the real physics is SIGKILLed mid-run (after
  // its iteration-2 checkpoint). A rescuer steals the dead lease, resumes
  // from the checkpoint and produces exactly what an uninterrupted run
  // produces.
  runtime::campaign_spec spec;
  spec.name = "kill_resume";
  spec.devices = {"bend"};
  spec.methods = {"boson_no_relax"};
  spec.seeds = {7};
  spec.base = smoke_base();
  spec.scheduler.workers = 1;
  spec.scheduler.max_retries = 0;
  spec.scheduler.checkpoint_every = 2;

  const fs::path ref_dir = fresh_dir("boson_runtime_kill_ref");
  runtime::scheduler_options ref_options;
  ref_options.campaign_dir = ref_dir.string();
  ASSERT_EQ(runtime::scheduler(spec, ref_options).run().completed, 1u);

  const fs::path dir = fresh_dir("boson_runtime_kill_resume");
  const pid_t worker = fork_worker([&spec, &dir] {
    runtime::fault_injector faults;
    faults.arm(runtime::fault_point::mid_run, 3, runtime::kill_process);
    runtime::scheduler_options options;
    options.campaign_dir = dir.string();
    options.worker_id = "doomed";
    options.clock = [] { return 0.0; };
    options.faults = &faults;
    (void)runtime::scheduler(spec, options).run();
  });
  ASSERT_EQ(wait_worker(worker), child_end::sigkilled);
  ASSERT_TRUE(fs::exists(runtime::checkpoint_path(
      runtime::job_directory(dir.string(), "bend_boson_no_relax_s7"))));

  runtime::scheduler_options rescue_options;
  rescue_options.campaign_dir = dir.string();
  rescue_options.worker_id = "rescuer";
  rescue_options.clock = [] { return 2000.0; };  // past the dead lease
  const auto rescue = runtime::scheduler(spec, rescue_options).run();
  EXPECT_EQ(rescue.stolen, 1u);
  EXPECT_EQ(rescue.resumed, 1u);
  EXPECT_EQ(rescue.completed, 1u);

  const auto rows = runtime::result_store::load(dir.string());
  const auto ref_rows = runtime::result_store::load(ref_dir.string());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].prefab_fom, ref_rows[0].prefab_fom);
  EXPECT_EQ(rows[0].postfab_mean, ref_rows[0].postfab_mean);
  EXPECT_EQ(rows[0].postfab_std, ref_rows[0].postfab_std);
  const std::string ref_csv =
      read_text(ref_dir / "jobs" / "bend_boson_no_relax_s7" / "trajectory.csv");
  ASSERT_FALSE(ref_csv.empty());
  EXPECT_EQ(read_text(dir / "jobs" / "bend_boson_no_relax_s7" / "trajectory.csv"), ref_csv);
  expect_single_owner_throughout(
      runtime::journal::replay(runtime::journal_path(dir.string())));
}

}  // namespace
}  // namespace boson
