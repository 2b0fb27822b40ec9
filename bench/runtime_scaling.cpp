// Microbenchmarks (google-benchmark) of the expensive kernels, supporting
// the paper's §5 runtime claims:
//   * "a significant portion of the total execution time of min-area
//     retiming is spent on computing the clocking constraints" — compare
//     BM_WdMatrices + BM_BuildConstraints against BM_WeightedMinArea;
//   * "solving the minimum-cost flow problem is known to be quite
//     efficient" / "the time complexity of this heuristic is in the same
//     order as that of min-area retiming" — BM_MinArea vs BM_LacLoop;
//   * constraint pruning is what keeps repeated flow solves cheap —
//     BM_BuildConstraints/pruned vs /full.
#include <benchmark/benchmark.h>

#include <string>

#include "base/rng.h"
#include "bench_io.h"
#include "bench89/suite.h"
#include "netlist/generator.h"
#include "partition/fm.h"
#include "planner/interconnect_planner.h"
#include "retime/constraints.h"
#include "retime/lac_retimer.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "tests/test_util.h"

namespace {

using namespace lac;

retime::RetimingGraph make_graph(int n) {
  Rng rng(12345);
  return test::random_retiming_graph(rng, n, 2 * n, 2);
}

void BM_WdMatrices(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto wd = retime::WdMatrices::compute(g);
    benchmark::DoNotOptimize(wd.t_init_ps());
  }
}
BENCHMARK(BM_WdMatrices)->Arg(100)->Arg(300)->Arg(900);

void BM_BuildConstraints_Pruned(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto wd = retime::WdMatrices::compute(g);
  const auto t = (wd.max_vertex_delay_decips() + retime::to_decips(wd.t_init_ps())) / 2;
  for (auto _ : state) {
    auto cs = retime::build_constraints(g, wd, t, {.prune = true});
    benchmark::DoNotOptimize(cs.total());
  }
}
BENCHMARK(BM_BuildConstraints_Pruned)->Arg(100)->Arg(300)->Arg(900);

void BM_BuildConstraints_Full(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto wd = retime::WdMatrices::compute(g);
  const auto t = (wd.max_vertex_delay_decips() + retime::to_decips(wd.t_init_ps())) / 2;
  for (auto _ : state) {
    auto cs = retime::build_constraints(g, wd, t, {.prune = false});
    benchmark::DoNotOptimize(cs.total());
  }
}
BENCHMARK(BM_BuildConstraints_Full)->Arg(100)->Arg(300)->Arg(900);

void BM_WeightedMinArea(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto wd = retime::WdMatrices::compute(g);
  const auto t = (wd.max_vertex_delay_decips() + retime::to_decips(wd.t_init_ps())) / 2;
  const auto cs = retime::build_constraints(g, wd, t);
  std::vector<double> weights(static_cast<std::size_t>(g.num_vertices()), 1.0);
  for (auto _ : state) {
    auto r = retime::weighted_min_area_retiming(g, cs, weights);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WeightedMinArea)->Arg(100)->Arg(300)->Arg(900);

void BM_MinPeriod(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto wd = retime::WdMatrices::compute(g);
  for (auto _ : state) {
    auto t = retime::min_period_retiming(g, wd);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_MinPeriod)->Arg(100)->Arg(300);

void BM_FmPartition(benchmark::State& state) {
  netlist::GenSpec spec;
  spec.num_gates = static_cast<int>(state.range(0));
  spec.num_dffs = spec.num_gates / 10;
  spec.seed = 3;
  const auto nl = netlist::generate_netlist(spec);
  std::vector<double> area(static_cast<std::size_t>(nl.num_cells()), 1.0);
  for (auto _ : state) {
    auto res = partition::partition_netlist(nl, area, 9);
    benchmark::DoNotOptimize(res.cut);
  }
}
BENCHMARK(BM_FmPartition)->Arg(200)->Arg(600);

void BM_FullPlan(benchmark::State& state) {
  const auto& entry = bench89::table1_suite()[static_cast<std::size_t>(state.range(0))];
  const auto nl = bench89::load(entry);
  planner::PlannerConfig cfg;
  cfg.run.seed = 7;
  cfg.num_blocks = entry.recommended_blocks;
  cfg.fp_opt.sa_moves_per_block = 150;
  planner::InterconnectPlanner planner(cfg);
  for (auto _ : state) {
    auto res = planner.plan(nl, planner::PlanOptions{}).front();
    benchmark::DoNotOptimize(res.lac.report.n_foa);
  }
  state.SetLabel(entry.spec.name);
}
BENCHMARK(BM_FullPlan)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): an optional leading positional
// argument selects the report output directory (shifted away before
// google-benchmark parses its own --benchmark_* flags), and an
// observability run report is written after the benchmarks finish.
int main(int argc, char** argv) {
  std::string out = ".";
  if (argc > 1 && argv[1][0] != '-') {
    out = argv[1];
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lac::bench_io::write_bench_report(out, "runtime_scaling");
  return 0;
}
