// Microbenchmarks (google-benchmark) of the computational kernels behind the
// inverse-design loop: the nested-dissection LDLᵀ (the FDFD direct solver)
// and its substitutions, the simulation engine's prepare/solve split, the FFT
// convolution engine, the Hopkins lithography model's forward/backward
// passes, slab mode solving and one full pipeline evaluation. These quantify
// where an optimization iteration's time goes. After the google-benchmark run
// the program times the solver figures (factorization scaling, engine split)
// with a wall clock and writes them to BENCH_solvers.json so the performance
// trajectory is recorded run over run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <tuple>

#include "common/rng.h"
#include "common/timer.h"
#include "core/design_problem.h"
#include "core/methods.h"
#include "devices/builders.h"
#include "fab/litho.h"
#include "fab/temperature.h"
#include "fdfd/solver.h"
#include "fft/conv2d.h"
#include "io/json.h"
#include "modes/slab.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/campaign.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/lease.h"
#include "runtime/scheduler.h"
#include "sim/engine.h"
#include "store/segment_log.h"
#include "sparse/multifrontal.h"

namespace {

using namespace boson;

// ----------------------------------------------- nested-dissection LDLᵀ ----

/// Random complex 5-point stencil on a side x side grid (unknown ix*side+iy).
sp::grid_stencil random_grid_stencil(std::size_t side, rng& r) {
  const std::size_t n = side * side;
  sp::grid_stencil a{side, side, cvec(n), cvec(n), cvec(n)};
  for (std::size_t ix = 0; ix < side; ++ix) {
    for (std::size_t iy = 0; iy < side; ++iy) {
      const std::size_t i = ix * side + iy;
      a.diag[i] = cplx(4.0 + r.uniform(0, 1), 1.0);
      if (iy + 1 < side) a.y[i] = cplx(-1.0, 0.0);
      if (ix + 1 < side) a.x[i] = cplx(-1.0, 0.0);
    }
  }
  return a;
}

/// Factor + one solve; 176 is the 0.025 um-resolution scaling point of the
/// 88x88 bend.
void bm_grid_ldlt(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  rng r(7);
  const sp::grid_stencil a = random_grid_stencil(side, r);
  const cvec b(side * side, cplx{1.0});
  for (auto _ : state) {
    const sp::grid_ldlt ldlt(a);
    benchmark::DoNotOptimize(ldlt.solve(b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(side * side));
}
BENCHMARK(bm_grid_ldlt)->Arg(44)->Arg(88)->Arg(176)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ substitution ------

/// FDFD waveguide operator, factored once, plus a pool of right-hand sides.
struct solver_fixture {
  grid2d g;
  pml_spec pml;
  array2d<double> eps;
  sp::grid_stencil a;
  std::unique_ptr<sp::grid_ldlt> ldlt;
  std::vector<cvec> rhs;

  explicit solver_fixture(std::size_t side = 88, std::size_t nrhs = 8) {
    g.nx = g.ny = side;
    g.dx = g.dy = 0.05;
    pml.cells = 10;
    eps = array2d<double>(side, side, 1.0);
    for (std::size_t ix = 0; ix < side; ++ix)
      for (std::size_t iy = side / 2 - 4; iy < side / 2 + 4; ++iy)
        eps(ix, iy) = fab::eps_si(300.0);
    a = fdfd::fdfd_solver(g, pml, 2.0 * pi / 1.55, eps).stencil();
    ldlt = std::make_unique<sp::grid_ldlt>(a);  // factor outside every timed region
    rng r(11);
    rhs.assign(nrhs, cvec(g.cell_count(), cplx{}));
    for (auto& b : rhs)
      for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  }
};

void bm_solve_single_rhs(benchmark::State& state) {
  static solver_fixture f;
  const auto nrhs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    for (std::size_t k = 0; k < nrhs; ++k)
      benchmark::DoNotOptimize(f.ldlt->solve(f.rhs[k]));
}
BENCHMARK(bm_solve_single_rhs)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ engine split ------

void bm_engine_prepare(benchmark::State& state) {
  static solver_fixture f(64);
  for (auto _ : state) {
    const sim::simulation_engine engine(f.g, f.pml, 2.0 * pi / 1.55, f.eps);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(bm_engine_prepare)->Unit(benchmark::kMillisecond);

void bm_engine_solve(benchmark::State& state) {
  static solver_fixture f(64);
  const sim::simulation_engine engine(f.g, f.pml, 2.0 * pi / 1.55, f.eps);
  array2d<cplx> current(f.g.nx, f.g.ny, cplx{});
  current(f.g.nx / 4, f.g.ny / 2) = cplx{1.0};
  for (auto _ : state) benchmark::DoNotOptimize(engine.solve_excitations({current}));
}
BENCHMARK(bm_engine_solve)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- FDFD solve ----

void bm_fdfd_forward_solve(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  grid2d g;
  g.nx = g.ny = side;
  g.dx = g.dy = 0.05;
  pml_spec pml;
  pml.cells = 10;
  array2d<double> eps(side, side, 1.0);
  for (std::size_t ix = 0; ix < side; ++ix)
    for (std::size_t iy = side / 2 - 4; iy < side / 2 + 4; ++iy)
      eps(ix, iy) = fab::eps_si(300.0);
  array2d<cplx> current(side, side, cplx{});
  current(side / 4, side / 2) = cplx{1.0};
  for (auto _ : state) {
    const sim::simulation_engine engine(g, pml, 2.0 * pi / 1.55, eps);
    benchmark::DoNotOptimize(engine.solve_excitations({current}));
  }
}
BENCHMARK(bm_fdfd_forward_solve)->Arg(64)->Arg(88)->Arg(112)->Unit(benchmark::kMillisecond);

void bm_fdfd_extra_solve_reusing_factorization(benchmark::State& state) {
  const std::size_t side = 88;
  grid2d g;
  g.nx = g.ny = side;
  g.dx = g.dy = 0.05;
  pml_spec pml;
  pml.cells = 10;
  array2d<double> eps(side, side, 1.0);
  const sim::simulation_engine engine(g, pml, 2.0 * pi / 1.55, eps);  // factors once
  array2d<cplx> current(side, side, cplx{});
  current(30, 44) = cplx{1.0};
  for (auto _ : state) benchmark::DoNotOptimize(engine.solve_excitations({current}));
}
BENCHMARK(bm_fdfd_extra_solve_reusing_factorization)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------ FFT ----

void bm_fft_conv2d(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  rng r(5);
  array2d<cplx> kernel(21, 21);
  for (auto& v : kernel) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  fft::kernel_conv2d plan(side, side, {kernel});
  array2d<double> in(side, side);
  for (auto& v : in) v = r.uniform(0, 1);
  for (auto _ : state) {
    const auto in_fft = plan.transform_input(in);
    benchmark::DoNotOptimize(plan.apply(in_fft, 0));
  }
}
BENCHMARK(bm_fft_conv2d)->Arg(48)->Arg(64)->Arg(96)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- litho ----

struct litho_fixture {
  fab::litho_settings settings;
  std::unique_ptr<fab::hopkins_litho> model;
  array2d<double> mask;

  litho_fixture() {
    settings.kernel_half = 10;
    model = std::make_unique<fab::hopkins_litho>(settings, fab::litho_corner_params{0.0, 1.0},
                                                 56, 56);
    mask = array2d<double>(56, 56, 0.0);
    for (std::size_t ix = 16; ix < 40; ++ix)
      for (std::size_t iy = 16; iy < 40; ++iy) mask(ix, iy) = 1.0;
  }
};

void bm_litho_forward(benchmark::State& state) {
  static litho_fixture f;
  for (auto _ : state) benchmark::DoNotOptimize(f.model->forward(f.mask));
}
BENCHMARK(bm_litho_forward)->Unit(benchmark::kMillisecond);

void bm_litho_backward(benchmark::State& state) {
  static litho_fixture f;
  const auto fwd = f.model->forward(f.mask);
  array2d<double> d_aerial(56, 56, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(f.model->backward(fwd, d_aerial));
}
BENCHMARK(bm_litho_backward)->Unit(benchmark::kMillisecond);

void bm_litho_model_construction(benchmark::State& state) {
  fab::litho_settings s;
  s.kernel_half = 8;
  for (auto _ : state) {
    fab::hopkins_litho model(s, fab::litho_corner_params{0.08, 1.05}, 48, 48);
    benchmark::DoNotOptimize(model.kernel_count());
  }
}
BENCHMARK(bm_litho_model_construction)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- modes ----

void bm_slab_modes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dvec eps(n, 1.0);
  for (std::size_t j = n / 2 - n / 8; j < n / 2 + n / 8; ++j) eps[j] = 12.1;
  for (auto _ : state)
    benchmark::DoNotOptimize(modes::solve_slab_modes(eps, 0.05, 2.0 * pi / 1.55, 4));
}
BENCHMARK(bm_slab_modes)->Arg(40)->Arg(80)->Arg(160)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- full pipeline ----

void bm_pipeline_evaluate(benchmark::State& state) {
  static core::experiment_config cfg = [] {
    core::experiment_config c;
    c.resolution = 0.1;
    c.litho.na = 0.65;
    c.litho.sigma = 0.35;
    c.litho.kernel_half = 5;
    return c;
  }();
  static core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), core::method_recipe{}, cfg);
  static const dvec theta = core::concentrated_init(problem);
  robust::variation_corner nominal;
  nominal.xi.assign(problem.fab().space.eole_terms, 0.0);
  core::eval_options o;
  o.fab_aware = true;
  o.compute_gradient = true;
  for (auto _ : state) benchmark::DoNotOptimize(problem.evaluate(theta, nominal, o));
}
BENCHMARK(bm_pipeline_evaluate)->Unit(benchmark::kMillisecond);

// ------------------------------------------- BENCH_solvers.json report ----

/// Wall-clock the solver-level figures the microbenchmarks sample — the FDFD
/// factorization at 88x88 and 176x176, the engine's prepare/solve split and
/// the Hopkins model's construction and forward/backward passes — and write
/// them to BENCH_solvers.json so the perf trajectory is recorded run to run.
io::json_value time_solvers() {
  io::json_value report = io::json_value::object();

  {  // factor + one solve of the FDFD waveguide operator (median of 5).
    io::json_value sizes = io::json_value::object();
    for (const std::size_t side : {std::size_t{88}, std::size_t{176}}) {
      solver_fixture f(side, 1);
      dvec factor_s, solve_s;
      std::size_t fill = 0;
      for (int rep = 0; rep < 5; ++rep) {
        stopwatch sw;
        const sp::grid_ldlt ldlt(f.a);
        factor_s.push_back(sw.seconds());
        fill = ldlt.fill();
        sw.reset();
        benchmark::DoNotOptimize(ldlt.solve(f.rhs[0]));
        solve_s.push_back(sw.seconds());
      }
      std::sort(factor_s.begin(), factor_s.end());
      std::sort(solve_s.begin(), solve_s.end());
      io::json_value j = io::json_value::object();
      j["factor_seconds"] = factor_s[2];
      j["solve_seconds"] = solve_s[2];
      j["fill_entries"] = fill;
      const std::string grid = std::to_string(side) + "x" + std::to_string(side);
      sizes[grid] = std::move(j);
      std::printf("nested-dissection LDLT (%s): factor %.3f ms, solve %.3f ms\n", grid.c_str(),
                  1e3 * factor_s[2], 1e3 * solve_s[2]);
    }
    report["factorization"] = std::move(sizes);
  }

  {  // engine prepare + solve on one operator.
    solver_fixture f(64);
    array2d<cplx> current(f.g.nx, f.g.ny, cplx{});
    current(f.g.nx / 4, f.g.ny / 2) = cplx{1.0};
    stopwatch sw;
    const sim::simulation_engine engine(f.g, f.pml, 2.0 * pi / 1.55, f.eps);
    const double prepare_s = sw.seconds();
    constexpr int reps = 5;
    sw.reset();
    for (int rep = 0; rep < reps; ++rep)
      benchmark::DoNotOptimize(engine.solve_excitations({current}));
    const double solve_s = sw.seconds() / reps;
    io::json_value j = io::json_value::object();
    j["prepare_seconds"] = prepare_s;
    j["solve_seconds"] = solve_s;
    io::json_value backends = io::json_value::object();
    backends["direct"] = std::move(j);
    report["backends"] = std::move(backends);
    std::printf("engine (64x64): prepare %.3f ms, solve %.3f ms\n", 1e3 * prepare_s,
                1e3 * solve_s);
  }

  {  // one defocused litho corner, median of 5: the paper's default optics on
     // the 0.05 um bend's extended design window, and the committed campaign
     // specs' coarse optics at 0.1 um. Construction is timed per model; the
     // forward and backward passes per call, averaged over a batch of calls.
    fab::litho_settings paper;
    paper.pixel = 0.05;
    fab::litho_settings campaign;
    campaign.pixel = 0.1;
    campaign.na = 0.65;
    campaign.sigma = 0.35;
    campaign.kernel_half = 5;
    campaign.max_kernels = 5;
    const auto median = [](dvec v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    io::json_value litho = io::json_value::object();
    for (const auto& [name, settings, side] :
         {std::tuple{"paper_defaults", paper, std::size_t{52}},
          std::tuple{"campaign", campaign, std::size_t{26}}}) {
      const fab::litho_corner_params corner{0.08, 1.05};
      dvec construct_s;
      for (int rep = 0; rep < 5; ++rep) {
        const stopwatch sw;
        const fab::hopkins_litho model(settings, corner, side, side);
        construct_s.push_back(sw.seconds());
        benchmark::DoNotOptimize(model.kernel_count());
      }
      const fab::hopkins_litho model(settings, corner, side, side);
      rng r(9);
      array2d<double> mask(side, side), d_aerial(side, side);
      for (auto& v : mask) v = r.uniform(0, 1);
      for (auto& v : d_aerial) v = r.uniform(-1, 1);
      const fab::litho_forward fwd = model.forward(mask);
      constexpr int calls = 50;
      dvec forward_s, backward_s;
      for (int rep = 0; rep < 5; ++rep) {
        stopwatch sw;
        for (int c = 0; c < calls; ++c) benchmark::DoNotOptimize(model.forward(mask));
        forward_s.push_back(sw.seconds() / calls);
        sw.reset();
        for (int c = 0; c < calls; ++c) benchmark::DoNotOptimize(model.backward(fwd, d_aerial));
        backward_s.push_back(sw.seconds() / calls);
      }
      io::json_value j = io::json_value::object();
      j["construct_seconds"] = median(construct_s);
      j["forward_seconds"] = median(forward_s);
      j["backward_seconds"] = median(backward_s);
      std::printf(
          "hopkins_litho (%s, %zux%zu, %zu kernels): construct %.3f ms, forward %.3f ms, "
          "backward %.3f ms\n",
          name, side, side, model.kernel_count(), 1e3 * median(construct_s),
          1e3 * median(forward_s), 1e3 * median(backward_s));
      litho[name] = std::move(j);
    }
    report["litho"] = std::move(litho);
  }

  return report;
}

// ------------------------------------------- BENCH_runtime.json report ----

/// Wall-clock the campaign runtime's overheads — scheduler dispatch
/// throughput across worker counts (no-op executors isolate the machinery
/// from the simulations), journal append/replay rates, and checkpoint
/// save+load latency at a realistic state size — and write them to
/// BENCH_runtime.json.
io::json_value time_runtime() {
  namespace fs = std::filesystem;
  io::json_value report = io::json_value::object();
  const fs::path root = fs::temp_directory_path() / "boson_bench_runtime";
  fs::remove_all(root);

  {  // scheduler throughput: dispatch + journal + store per no-op job.
    runtime::campaign_spec spec;
    spec.name = "throughput";
    spec.devices = {"bend"};
    spec.methods = {"density", "ls", "boson_no_relax", "boson"};
    spec.seeds.clear();
    for (std::uint64_t s = 1; s <= 16; ++s) spec.seeds.push_back(s);
    spec.base.resolution = 0.1;
    spec.scheduler.max_retries = 0;

    io::json_value workers_json = io::json_value::object();
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const fs::path dir = root / ("sched_w" + std::to_string(workers));
      runtime::scheduler_options options;
      options.campaign_dir = dir.string();
      options.workers = workers;
      options.executor = [](const runtime::campaign_job& job, const api::run_control&,
                            api::observer*) {
        api::experiment_result result;
        result.spec = job.spec;
        return result;
      };
      stopwatch sw;
      const runtime::scheduler_report run = runtime::scheduler(spec, options).run();
      const double seconds = sw.seconds();
      const double rate = static_cast<double>(run.completed) / seconds;
      io::json_value j = io::json_value::object();
      j["jobs"] = run.completed;
      j["seconds"] = seconds;
      j["jobs_per_second"] = rate;
      workers_json["w" + std::to_string(workers)] = std::move(j);
      std::printf("scheduler (%zu no-op jobs, %zu workers): %.3f s => %.0f jobs/s\n",
                  run.completed, workers, seconds, rate);
    }
    report["scheduler_throughput"] = std::move(workers_json);
  }

  {  // journal append + replay rates (a campaign journal's store).
    const std::string path = runtime::journal_path((root / "journal").string());
    constexpr std::size_t appends = 20000;
    stopwatch sw;
    {
      runtime::journal log(path);
      runtime::journal_entry e;
      e.job_name = "bench_job";
      e.state = runtime::job_state::checkpointed;
      e.attempt = 1;
      e.detail = "iteration 10/50";
      for (std::size_t i = 0; i < appends; ++i) {
        e.job_index = i;
        log.append(e);
      }
    }
    const double append_s = sw.seconds();
    sw.reset();
    const std::size_t replayed = runtime::journal::replay(path).size();
    const double replay_s = sw.seconds();
    io::json_value j = io::json_value::object();
    j["appends"] = appends;
    j["append_seconds"] = append_s;
    j["appends_per_second"] = static_cast<double>(appends) / append_s;
    j["replay_seconds"] = replay_s;
    j["replayed"] = replayed;
    report["journal"] = std::move(j);
    std::printf("journal: %zu appends in %.3f s (%.0f/s), replay %.3f s\n", appends,
                append_s, static_cast<double>(appends) / append_s, replay_s);
  }

  {  // segmented store: append rate and whole-store replay.
    const fs::path dir = root / "store";
    constexpr std::size_t appends = 20000;
    stopwatch sw;
    {
      store::segment_log log(dir.string(), {}, "bench");
      for (std::size_t i = 0; i < appends; ++i)
        log.append("{\"k\":" + std::to_string(i % 128) + ",\"i\":" +
                   std::to_string(i) + ",\"detail\":\"iteration 10/50\"}");
    }
    const double append_s = sw.seconds();
    sw.reset();
    const std::size_t replayed =
        store::segment_log::read_all(dir.string(), "bench").size();
    const double replay_s = sw.seconds();

    io::json_value j = io::json_value::object();
    j["appends"] = appends;
    j["append_seconds"] = append_s;
    j["appends_per_second"] = static_cast<double>(appends) / append_s;
    j["replay_seconds"] = replay_s;
    j["replayed"] = replayed;
    report["store"] = std::move(j);
    std::printf("store: %zu appends in %.3f s (%.0f/s), replay %.3f s\n", appends,
                append_s, static_cast<double>(appends) / append_s, replay_s);
  }

  {  // lease claim / renew throughput — the elastic scheduler's hot path
     // (each claim is an append + incremental re-fold of the shared journal,
     // each renew an append + verify).
    runtime::journal log(runtime::journal_path((root / "lease").string()));
    double now = 0.0;
    runtime::lease_manager manager(log, "bench", 1e9, [&now] { return now; });
    constexpr std::size_t jobs = 5000;
    std::vector<runtime::job_lease> held;
    held.reserve(jobs);
    stopwatch sw;
    for (std::size_t i = 0; i < jobs; ++i) {
      auto lease = manager.claim(i, "bench_job");
      if (lease) held.push_back(*lease);
    }
    const double claim_s = sw.seconds();
    sw.reset();
    std::size_t renewed = 0;
    for (runtime::job_lease& lease : held) renewed += manager.renew(lease) ? 1 : 0;
    const double renew_s = sw.seconds();
    io::json_value j = io::json_value::object();
    j["claims"] = held.size();
    j["claim_seconds"] = claim_s;
    j["claims_per_second"] = static_cast<double>(held.size()) / claim_s;
    j["renews"] = renewed;
    j["renew_seconds"] = renew_s;
    j["renews_per_second"] = static_cast<double>(renewed) / renew_s;
    report["lease"] = std::move(j);
    std::printf("lease: %zu claims in %.3f s (%.0f/s), %zu renews in %.3f s (%.0f/s)\n",
                held.size(), claim_s, static_cast<double>(held.size()) / claim_s,
                renewed, renew_s, static_cast<double>(renewed) / renew_s);
  }

  {  // checkpoint save + load latency at a realistic state size.
    const fs::path dir = root / "checkpoint";
    rng r(7);
    core::run_checkpoint ck;
    ck.next_iteration = 25;
    ck.total_iterations = 50;
    ck.theta = r.normal_vector(20000);
    ck.optimizer.m = r.normal_vector(20000);
    ck.optimizer.v = r.normal_vector(20000);
    ck.optimizer.t = 25;
    ck.rng_state = r.save_state();
    ck.design_rho = array2d<double>(141, 141, 0.5);
    for (std::size_t i = 0; i < 25; ++i) {
      core::iteration_record rec;
      rec.iteration = i;
      rec.loss = r.normal();
      rec.metrics["transmission"] = r.normal();
      ck.trajectory.push_back(rec);
    }
    constexpr int reps = 20;
    stopwatch sw;
    for (int rep = 0; rep < reps; ++rep)
      runtime::save_checkpoint(dir.string(), "bench_job", ck);
    const double save_s = sw.seconds() / reps;
    sw.reset();
    for (int rep = 0; rep < reps; ++rep)
      benchmark::DoNotOptimize(
          runtime::load_checkpoint(runtime::checkpoint_path(dir.string())));
    const double load_s = sw.seconds() / reps;
    io::json_value j = io::json_value::object();
    j["theta_size"] = ck.theta.size();
    j["save_seconds"] = save_s;
    j["load_seconds"] = load_s;
    report["checkpoint"] = std::move(j);
    std::printf("checkpoint (20k params): save %.3f ms, load %.3f ms\n", 1e3 * save_s,
                1e3 * load_s);
  }

  {  // telemetry overhead: the obs primitives the solver/scheduler hot paths
     // now carry. Rates use *_per_second keys so bench_compare gates them —
     // a regression here means instrumentation crept into the hot path.
    auto& reg = obs::registry::global();
    obs::counter& c = reg.get_counter("bench.telemetry.counter");
    obs::histogram& h = reg.get_histogram("bench.telemetry.hist");
    constexpr std::size_t ops = 2000000;
    stopwatch sw;
    for (std::size_t i = 0; i < ops; ++i) c.inc();
    const double counter_s = sw.seconds();
    sw.reset();
    for (std::size_t i = 0; i < ops; ++i)
      h.observe(1e-5 * static_cast<double>(i & 1023));
    const double hist_s = sw.seconds();

    // Spans without a sink — the compiled-in, disabled default every solve
    // pays — and with a live collector, the traced-job case.
    constexpr std::size_t span_ops = 1000000;
    sw.reset();
    for (std::size_t i = 0; i < span_ops; ++i) {
      obs::span sp("bench.telemetry.span", "bench");
      benchmark::DoNotOptimize(&sp);
    }
    const double span_off_s = sw.seconds();
    constexpr std::size_t traced_ops = 100000;
    obs::trace_collector collector;
    double span_on_s = 0.0;
    {
      const obs::scoped_trace_sink sink(&collector);
      sw.reset();
      for (std::size_t i = 0; i < traced_ops; ++i)
        obs::span sp("bench.telemetry.span", "bench");
      span_on_s = sw.seconds();
    }

    io::json_value j = io::json_value::object();
    j["counter_incs_per_second"] = static_cast<double>(ops) / counter_s;
    j["histogram_observes_per_second"] = static_cast<double>(ops) / hist_s;
    j["spans_disabled_per_second"] = static_cast<double>(span_ops) / span_off_s;
    j["spans_enabled_per_second"] = static_cast<double>(traced_ops) / span_on_s;
    report["telemetry"] = std::move(j);
    std::printf(
        "telemetry: counter %.0f M/s, histogram %.0f M/s, span off %.0f M/s, "
        "span on %.2f M/s (%zu events)\n",
        static_cast<double>(ops) / counter_s / 1e6,
        static_cast<double>(ops) / hist_s / 1e6,
        static_cast<double>(span_ops) / span_off_s / 1e6,
        static_cast<double>(traced_ops) / span_on_s / 1e6, collector.size());
  }

  fs::remove_all(root);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  const io::json_value report = time_solvers();
  report.write_file("BENCH_solvers.json");
  std::printf("solver timings written to BENCH_solvers.json\n");

  const io::json_value runtime_report = time_runtime();
  runtime_report.write_file("BENCH_runtime.json");
  std::printf("campaign-runtime timings written to BENCH_runtime.json\n");
  return 0;
}
