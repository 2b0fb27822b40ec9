// ECO incremental re-planning gate (docs/ECO.md).
//
// Per suite circuit: open a PlanSession (one full cold plan), apply an ECO
// journal — by default a single-block resize, the canonical local edit;
// --eco FILE substitutes any journal — then close it twice over:
//   * end_eco():      the incremental re-plan, reusing unchanged routes;
//   * replan_cold():  a from-scratch plan of the same edited inputs.
// The tool verifies the two are bit-identical in every quality output and
// exits 1 on any mismatch — the equivalence guarantee of the session API,
// checked on real suite circuits.  It also writes the two quality
// fingerprints (eco_replan_eco.json / eco_replan_cold.json) as separate
// files so the CI gate can `cmp` them, and reports the work skipped (nets
// not re-routed) next to the LAC min-cost-flow effort of both plans.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/str_util.h"
#include "base/table.h"
#include "bench89/suite.h"
#include "bench_io.h"
#include "planner/plan_session.h"

namespace {

// One circuit's quality outputs, formatted identically for the ECO and the
// cold result so equal plans produce byte-equal fingerprint files.
std::string quality_fingerprint(const std::string& circuit,
                                const lac::planner::PlanResult& res) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "  {\"circuit\": \"%s\", \"t_clk_ps\": %.17g, \"t_init_ps\": %.17g,"
      " \"ma_n_foa\": %lld, \"ma_n_f\": %lld,"
      " \"lac_n_foa\": %lld, \"lac_n_f\": %lld, \"lac_n_fn\": %lld,"
      " \"n_wr\": %d, \"wirelength_um\": %.17g, \"repeaters\": %d,"
      " \"interconnect_units\": %d, \"clock_constraints\": %zu}",
      circuit.c_str(), res.t_clk_ps, res.t_init_ps,
      static_cast<long long>(res.min_area.report.n_foa),
      static_cast<long long>(res.min_area.report.n_f),
      static_cast<long long>(res.lac.report.n_foa),
      static_cast<long long>(res.lac.report.n_f),
      static_cast<long long>(res.lac.report.n_fn), res.lac.n_wr,
      res.routing.total_wirelength_um, res.repeaters, res.interconnect_units,
      res.clock_constraints);
  return buf;
}

// Deterministic-quality equality (the bench-side twin of the eco_test
// helper): everything except wall clocks and solver-effort fields.
bool results_identical(const lac::planner::PlanResult& a,
                       const lac::planner::PlanResult& b) {
  bool ok = a.block_of == b.block_of && a.fp.placement == b.fp.placement &&
            a.t_init_ps == b.t_init_ps && a.t_min_ps == b.t_min_ps &&
            a.t_clk_ps == b.t_clk_ps &&
            a.clock_constraints == b.clock_constraints &&
            a.graph.num_vertices() == b.graph.num_vertices() &&
            a.interconnect_units == b.interconnect_units &&
            a.repeaters == b.repeaters &&
            a.routing.total_wirelength_um == b.routing.total_wirelength_um &&
            a.routing.nets_routed == b.routing.nets_routed &&
            a.routing.nets_rerouted == b.routing.nets_rerouted &&
            a.routing.usage_histogram == b.routing.usage_histogram;
  const auto outcome_equal = [](const lac::planner::RetimingOutcome& x,
                                const lac::planner::RetimingOutcome& y) {
    bool same = x.r == y.r && x.n_wr == y.n_wr &&
                x.report.ac == y.report.ac &&
                x.report.n_f == y.report.n_f &&
                x.report.n_foa == y.report.n_foa &&
                x.rounds.size() == y.rounds.size();
    if (same)
      for (std::size_t i = 0; i < x.rounds.size(); ++i)
        same = same && x.rounds[i].n_foa == y.rounds[i].n_foa &&
               x.rounds[i].n_f == y.rounds[i].n_f &&
               x.rounds[i].best_n_foa == y.rounds[i].best_n_foa &&
               x.rounds[i].improved == y.rounds[i].improved;
    return same;
  };
  return ok && outcome_equal(a.min_area, b.min_area) &&
         outcome_equal(a.lac, b.lac);
}

long long lac_augmentations(const lac::planner::PlanResult& res) {
  long long total = 0;
  for (const auto& round : res.lac.rounds) total += round.augmentations;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lac;
  const bench_io::Cli cli = bench_io::parse_cli(
      argc, argv, "eco_replan", /*with_limit=*/true, /*with_eco=*/true);

  // A journal given via --eco must parse before any planning happens;
  // a malformed file is a usage error (exit 64, the bench contract).
  std::vector<planner::EcoEdit> journal;
  const bool custom_journal = !cli.eco_path.empty();
  if (custom_journal) {
    std::string error;
    const auto parsed = planner::parse_eco_journal(cli.eco_journal, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "eco_replan: malformed ECO journal '%s': %s\n",
                   cli.eco_path.c_str(), error.c_str());
      return 64;
    }
    journal = *parsed;
  }

  std::printf("=== ECO re-plan vs cold plan of the edited input ===\n\n");
  const std::string csv_path = bench_io::join(cli.out_dir, "eco_replan.csv");
  std::ofstream csv(csv_path);
  csv << "circuit,nets,invalidated_nets,reused_routes,cold_routes,"
         "cold_mcf_aug,eco_mcf_aug,eco_t_s,cold_t_s,identical\n";
  TextTable table({"circuit", "nets", "invalid", "reused", "cold aug",
                   "eco aug", "eco T(s)", "cold T(s)", "identical"});

  std::vector<bench89::SuiteEntry> suite = bench89::table1_suite();
  if (cli.limit >= 0 && cli.limit < static_cast<long long>(suite.size()))
    suite.resize(static_cast<std::size_t>(cli.limit));

  bool all_identical = true;
  long long total_invalidated = 0, total_reused = 0;
  long long total_cold_aug = 0, total_eco_aug = 0;
  std::vector<std::string> eco_fp, cold_fp;

  for (const auto& entry : suite) {
    const auto nl = bench89::load(entry);
    planner::PlannerConfig cfg;
    cfg.run.seed = 7;
    cfg.run.exec = cli.exec();
    cfg.num_blocks = entry.recommended_blocks;
    if (cli.span_cap > 0)
      cfg.run.max_root_spans = static_cast<std::size_t>(cli.span_cap);

    planner::PlanSession session(nl, cfg);
    session.begin_eco();
    if (custom_journal) {
      for (const auto& edit : journal) session.apply(edit);
    } else {
      // The canonical ECO: grow one soft block by 5%.  In-place when the
      // floorplan has adjacent free space — the edit the incremental path
      // is designed around — with an automatic re-floorplan fallback.
      int block = 0;
      for (std::size_t b = 0; b < session.result().fp.blocks.size(); ++b)
        if (!session.result().fp.blocks[b].hard) {
          block = static_cast<int>(b);
          break;
        }
      session.resize_block(block,
                           session.result().fp.blocks
                                   [static_cast<std::size_t>(block)]
                                       .area *
                               1.05);
    }

    obs::Span eco_span("bench.eco_replan");
    const planner::PlanResult& eco_res = session.end_eco();
    const double eco_s = eco_span.elapsed_seconds();

    obs::Span cold_span("bench.cold_replan");
    const planner::PlanResult cold_res = session.replan_cold();
    const double cold_s = cold_span.elapsed_seconds();

    const bool identical = results_identical(eco_res, cold_res);
    all_identical = all_identical && identical;
    eco_fp.push_back(quality_fingerprint(entry.spec.name, eco_res));
    cold_fp.push_back(quality_fingerprint(entry.spec.name, cold_res));

    const planner::EcoStats& eco = session.last_eco();
    const long long cold_aug = lac_augmentations(cold_res);
    const long long eco_aug = lac_augmentations(eco_res);
    total_invalidated += eco.invalidated_nets;
    total_reused += eco.reused_routes;
    total_cold_aug += cold_aug;
    total_eco_aug += eco_aug;

    csv << entry.spec.name << ',' << eco_res.routing.nets_routed << ','
        << eco.invalidated_nets << ',' << eco.reused_routes << ','
        << eco.cold_routes << ',' << cold_aug << ',' << eco_aug << ','
        << eco_s << ',' << cold_s << ',' << (identical ? 1 : 0) << '\n';
    table.add_row({entry.spec.name,
                   std::to_string(eco_res.routing.nets_routed),
                   std::to_string(eco.invalidated_nets),
                   std::to_string(eco.reused_routes), std::to_string(cold_aug),
                   std::to_string(eco_aug), format_double(eco_s, 3),
                   format_double(cold_s, 3), identical ? "yes" : "NO"});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("(machine-readable copy written to %s)\n\n", csv_path.c_str());

  // Quality fingerprints: byte-identical files iff the ECO re-plans match
  // their cold references (the CI gate runs `cmp` on the pair).
  for (const auto& [file, lines] :
       {std::pair{std::string("eco_replan_eco.json"), &eco_fp},
        std::pair{std::string("eco_replan_cold.json"), &cold_fp}}) {
    const std::string path = bench_io::join(cli.out_dir, file);
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < lines->size(); ++i)
      out << (*lines)[i] << (i + 1 < lines->size() ? ",\n" : "\n");
    out << "]\n";
    std::printf("(quality fingerprint written to %s)\n", path.c_str());
  }

  if (!all_identical)
    std::printf("ERROR: an ECO re-plan diverged from its cold reference\n");

  bench_io::write_bench_report(
      cli.out_dir, "eco_replan",
      {{"circuits", obs::json::Value::of(suite.size())},
       {"invalidated_nets", obs::json::Value::of(total_invalidated)},
       {"reused_routes", obs::json::Value::of(total_reused)},
       {"cold_mcf_augmentations", obs::json::Value::of(total_cold_aug)},
       {"eco_mcf_augmentations", obs::json::Value::of(total_eco_aug)},
       {"identical", obs::json::Value::of(all_identical)}});
  return all_identical ? 0 : 1;
}
