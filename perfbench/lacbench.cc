// Planner benchmark program.
//
//   lacbench --workload table1|lac_heavy|eco --seed N --seconds S
//            --trace 0|1 [--dump]
//
// Runs one workload in this process, one planning operation at a time, for
// about S seconds (always at least one full pass over the workload), checks
// every output, and prints a metric table followed by one JSON object as
// the last line of standard output.  An operation is one cold
// InterconnectPlanner::plan() or one PlanSession::end_eco().
//
// --trace 0 reports the end-to-end metrics.  --trace 1 times every
// operation the same way and then replays it layer by layer: the benchmark
// calls each module's public entry point on the operation's own inputs
// (taken from its PlanResult) and times those calls.  It reports the
// per-layer metrics, how much of each operation's wall time the layers
// account for, and the overhead of the layer-by-layer replay.
//
// Parallel stages get min(4, hardware threads) threads.
//
// --dump prints the generated inputs (circuit specs, netlist hashes, ECO
// edit streams) and exits without planning.
//
// Exit status: 0 when every operation succeeded and verified, 1 when any
// failed (the result line is still printed), 64 on a usage error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "base/rng.h"
#include "bench89/suite.h"
#include "floorplan/floorplanner.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "obs/memory.h"
#include "partition/fm.h"
#include "planner/interconnect_planner.h"
#include "planner/pipeline.h"
#include "planner/plan_session.h"
#include "planner/verify.h"
#include "repeater/repeater_planner.h"
#include "retime/collapse.h"
#include "retime/constraints.h"
#include "retime/ff_placement.h"
#include "retime/lac_retimer.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"

namespace {

using namespace lac;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  bool dump = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "lacbench: %s\nusage: lacbench --workload table1|lac_heavy|eco"
               " --seed N --seconds S --trace 0|1 [--dump]\n",
               why.c_str());
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--dump") {
      a.dump = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else {
      usage("unknown option " + key);
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str()))
      usage("bad value for " + key + ": " + val);
  }
  if (a.workload != "table1" && a.workload != "lac_heavy" &&
      a.workload != "eco")
    usage("unknown workload '" + a.workload + "'");
  if (a.seconds < 0.0) usage("--seconds must be >= 0");
  return a;
}

int bench_threads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

// ---------------------------------------------------------------------------
// Workload inputs: circuits and ECO edit streams, all derived from --seed.

struct Circuit {
  netlist::GenSpec spec;
  int blocks = 9;
};

struct Workload {
  std::vector<Circuit> circuits;
  int iterations = 1;                // planning iterations per cold plan
  double provision = 0.6;            // PlannerConfig::dff_provision_factor
  int edits_per_session = 0;         // eco: end_eco() calls per session
};

// The LAC-heavy draw: circuits at the small ISCAS89 size points, with
// register provisioning tight enough that LAC runs many weighted rounds.
// At each size point the seed samples kLacHeavyPerPoint of kLacHeavyPool
// generator seeds and shuffles the whole list.  Samples of one population
// overlap, which keeps a pass's cost comparable across seeds: fully
// independent draws spread the wall time of a 60-circuit pass by about
// +-9% between seeds, from circuit content alone.
constexpr int kLacHeavyPool = 20;
constexpr int kLacHeavyPerPoint = 18;
constexpr double kLacHeavyProvision = 0.4;
// ECO: one session per mid-size suite circuit, this many edits each.
constexpr int kEcoEditsPerSession = 4;
// ECO edit sizes: the change the repository's ECO examples make, times a
// factor drawn from 1 -+ kEcoSizeJitter (see make_edits).
constexpr double kEcoSizeJitter = 0.05;
// Set-up samples per run of a cold workload, for the median setup_s.  A
// sample repeats netlist generation, a few milliseconds, until
// kColdSetupMinS has passed and divides by the repeat count.  The samples
// are spread over the first pass, so that a few seconds of interference
// on the shared machine do not make the median.
constexpr std::size_t kColdSetups = 5;
constexpr double kColdSetupMinS = 0.5;
// ECO sets of sessions per run: each is one setup_s sample (generation
// plus the cold plan that opens each session, seconds long).  The last
// kEcoPasses sets each run one pass of the edit streams, so every
// end_eco() is timed kEcoPasses times; a third pass would add a quarter
// to the run.
constexpr int kEcoSetups = 3;
constexpr int kEcoPasses = 2;
// Planner RNG seed (partitioning, floorplan annealing), the one the
// repository's Table-1 runs use.  The workload seed varies the inputs, not
// this: on the fixed Table-1 suite, planner seeds 1-4 alone moved a pass
// from 20 s to 46 s and the share of violations LAC removes from 43% to
// 89%.
constexpr std::uint64_t kPlannerSeed = 7;

Workload make_workload(const Args& a) {
  Workload w;
  if (a.workload == "table1") {
    for (const auto& e : bench89::table1_suite())
      w.circuits.push_back({e.spec, e.recommended_blocks});
    w.iterations = 2;
  } else if (a.workload == "lac_heavy") {
    Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 1);
    // Fisher-Yates with the repository RNG: identical on every platform.
    const auto shuffle = [&rng](auto& v) {
      for (std::size_t k = v.size(); k > 1; --k)
        std::swap(v[k - 1], v[rng.uniform(k)]);
    };
    for (const char* point : {"y386", "y400", "y526"}) {
      const auto& e = bench89::entry_by_name(point);
      std::vector<int> pool(kLacHeavyPool);
      for (int g = 0; g < kLacHeavyPool; ++g) pool[g] = g;
      shuffle(pool);
      for (int k = 0; k < kLacHeavyPerPoint; ++k) {
        Circuit c{e.spec, e.recommended_blocks};
        c.spec.seed = e.spec.seed * 1000 + static_cast<std::uint64_t>(pool[k]);
        c.spec.name = e.spec.name + "_g" + std::to_string(pool[k]);
        w.circuits.push_back(c);
      }
    }
    shuffle(w.circuits);
    w.provision = kLacHeavyProvision;
  } else {
    for (const char* name : {"y641", "y838", "y953"}) {
      const auto& e = bench89::entry_by_name(name);
      w.circuits.push_back({e.spec, e.recommended_blocks});
    }
    w.edits_per_session = kEcoEditsPerSession;
  }
  return w;
}

// Edit stream for session `circuit`.  Each slot's kind and target (block,
// cell, connection) are fixed per circuit; the seed draws each edit's size.
// Targets are what decide how much a re-plan can reuse and how hard the
// LAC loop works afterwards (one buffer on y838 takes it from 4 to 15
// rounds), so seeded targets would swing the workload's cost between
// seeds.  Each size is the edit the repository's own ECO examples make,
// with the change drawn from 95% to 105% of theirs: bench/eco_replan and
// docs/ECO.md grow a block by 5%, and docs/ECO.md's journal scales a
// block's capacity by 1.25 and the channels' by 1.1 and upsizes a cell by
// 1.5.  Wider draws cross the sizes at which LAC's round count jumps: with
// 80% to 120%, y953's cell upsize below about 1.44 leaves the buffer
// after it 2 LAC rounds instead of 12, in three seeds of eight, and the
// median operation moved from 1.6 s to 0.9 s.  Only combinational gates
// are resized or buffered, so every edit is legal.
std::vector<planner::EcoEdit> make_edits(const netlist::Netlist& nl,
                                         int num_blocks, std::uint64_t seed,
                                         int circuit, int count) {
  using Kind = planner::EcoEdit::Kind;
  // The kind schedule spreads the five kinds evenly over the sessions.
  constexpr Kind kSchedule[] = {Kind::kResizeBlock, Kind::kScaleBlockCapacity,
                                Kind::kScaleChannelCapacity, Kind::kResizeCell,
                                Kind::kBuffer};
  Rng where(0x5eedULL + static_cast<std::uint64_t>(circuit));
  Rng size(seed * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(circuit));
  std::vector<netlist::CellId> gates;
  for (const auto c : nl.cells()) {
    const auto t = nl.type(c);
    if (t != netlist::CellType::kDff && t != netlist::CellType::kInput &&
        t != netlist::CellType::kOutput && !nl.fanouts(c).empty())
      gates.push_back(c);
  }
  const auto around = [&](double factor) {
    return 1.0 + (factor - 1.0) * (1.0 - kEcoSizeJitter +
                                   2.0 * kEcoSizeJitter * size.uniform_real());
  };
  std::vector<planner::EcoEdit> edits;
  for (int k = 0; k < count; ++k) {
    planner::EcoEdit e;
    e.kind = kSchedule[(circuit * count + k) % 5];
    switch (e.kind) {
      case Kind::kResizeBlock:  // value: factor on the block's current area
        e.block = static_cast<int>(where.uniform(num_blocks));
        e.value = around(1.05);
        break;
      case Kind::kScaleBlockCapacity:
        e.block = static_cast<int>(where.uniform(num_blocks));
        e.value = around(1.25);
        break;
      case Kind::kScaleChannelCapacity:
        e.value = around(1.1);
        break;
      case Kind::kResizeCell:
        e.name = nl.cell_name(gates[where.uniform(gates.size())]);
        e.value = around(1.5);
        break;
      default: {  // Kind::kBuffer
        const auto d = gates[where.uniform(gates.size())];
        const auto fo = nl.fanouts(d);
        e.name = "eco_buf" + std::to_string(k);
        e.driver = nl.cell_name(d);
        e.sink = nl.cell_name(fo[where.uniform(fo.size())]);
        break;
      }
    }
    edits.push_back(std::move(e));
  }
  return edits;
}

void apply_edit(planner::PlanSession& s, planner::EcoEdit e) {
  if (e.kind == planner::EcoEdit::Kind::kResizeBlock)
    e.value *= s.result().fp.blocks[static_cast<std::size_t>(e.block)].area;
  s.apply(e);
}

// One edit in the journal syntax of parse_eco_journal(), except that a
// block resize shows its factor ("x1.03") rather than the absolute area.
std::string edit_text(const planner::EcoEdit& e) {
  using Kind = planner::EcoEdit::Kind;
  char v[32];
  std::snprintf(v, sizeof v, "%.17g", e.value);
  switch (e.kind) {
    case Kind::kResizeBlock:
      return "resize_block " + std::to_string(e.block) + " x" + v;
    case Kind::kScaleBlockCapacity:
      return "scale_capacity " + std::to_string(e.block) + " " + v;
    case Kind::kScaleChannelCapacity:
      return std::string("scale_capacity channel ") + v;
    case Kind::kResizeCell: return "resize_cell " + e.name + " " + v;
    default: return "buffer " + e.name + " " + e.driver + " " + e.sink;
  }
}

planner::PlannerConfig config_for(const Workload& w, const Circuit& c) {
  planner::PlannerConfig cfg;
  cfg.run.seed = kPlannerSeed;
  cfg.run.exec.threads = bench_threads();
  cfg.run.observability = obs::Override::kOff;
  cfg.num_blocks = c.blocks;
  cfg.dff_provision_factor = w.provision;
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : s) h = (h ^ ch) * 1099511628211ULL;
  return h;
}

// ---------------------------------------------------------------------------
// Output checks

// Every deterministic output of a plan that the checks compare, small
// enough to keep after the plan is gone: plans agree iff their prints do.
struct OutcomePrint {
  std::vector<int> r;
  int n_wr = 0;
  std::vector<double> ac;
  std::int64_t n_f = 0;
  std::int64_t n_foa = 0;

  bool operator==(const OutcomePrint&) const = default;
};

struct PlanPrint {
  std::vector<int> block_of;
  std::vector<Rect> placement;
  double t_init_ps = 0.0;
  double t_min_ps = 0.0;
  double t_clk_ps = 0.0;
  std::size_t clock_constraints = 0;
  long long vertices = 0;
  long long edges = 0;
  int interconnect_units = 0;
  int repeaters = 0;
  double wirelength_um = 0.0;
  int nets_routed = 0;
  long long nets_rerouted = 0;
  OutcomePrint min_area;
  OutcomePrint lac;

  bool operator==(const PlanPrint&) const = default;
};

PlanPrint print_of(const planner::PlanResult& p) {
  const auto outcome = [](const planner::RetimingOutcome& o) {
    return OutcomePrint{o.r, o.n_wr, o.report.ac, o.report.n_f,
                        o.report.n_foa};
  };
  return {p.block_of,
          p.fp.placement,
          p.t_init_ps,
          p.t_min_ps,
          p.t_clk_ps,
          p.clock_constraints,
          p.graph.num_vertices(),
          p.graph.num_edges(),
          p.interconnect_units,
          p.repeaters,
          p.routing.total_wirelength_um,
          p.routing.nets_routed,
          p.routing.nets_rerouted,
          outcome(p.min_area),
          outcome(p.lac)};
}

bool same_plan(const planner::PlanResult& a, const planner::PlanResult& b) {
  return print_of(a) == print_of(b);
}

// Quality counts of one operation (summed over a pass for the metrics).
struct Quality {
  long long ma_n_foa = 0;     // min-area violations, first iteration
  long long lac_n_foa = 0;    // LAC violations, first iteration
  long long final_n_foa = 0;  // LAC violations, last iteration
  long long lac_n_f = 0;      // flip-flops after LAC, first iteration

  bool operator==(const Quality&) const = default;
};

Quality quality_of(const planner::PlanResult& first,
                   const planner::PlanResult& last) {
  return {first.min_area.report.n_foa, first.lac.report.n_foa,
          last.lac.report.n_foa, first.lac.report.n_f};
}

// Peak resident memory of one operation: VmHWM is reset to the current
// resident size just before the operation, after freed heap has gone back
// to the system, and read right after it, so checks that run outside the
// operation do not count.  Where /proc/self/clear_refs cannot be written,
// the reading is the process peak, an upper bound.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------------------
// Layer-by-layer replay (--trace 1)

using Sample = std::map<std::string, double>;  // metric -> value

// Times one call into a layer and adds its wall time to `key` and to the
// operation's covered total.
template <typename F>
auto timed(Sample& out, const std::string& key, F&& f) {
  const auto t0 = Clock::now();
  auto r = f();
  const double s = seconds_since(t0);
  out[key] += s;
  out["trace.layers_s"] += s;
  return r;
}

double cell_area(const netlist::Netlist& nl, netlist::CellId c,
                 const timing::Technology& tech) {
  switch (nl.type(c)) {
    case netlist::CellType::kDff: return tech.dff_area;
    case netlist::CellType::kInput:
    case netlist::CellType::kOutput: return tech.dff_area * 0.25;
    default: return tech.gate_area;
  }
}

enum class FrontEnd { kPartition, kExpand, kNone };

// Replays the layers of one planning iteration `res` on its own inputs and
// checks that each replayed layer reproduces the iteration's output.
// `front` selects the floorplanning step: partition + floorplan (first
// iteration of a cold plan), the expansion re-floorplan from `prev`
// (second iteration), or none (ECO: the edit already moved the
// floorplan).  `exact_physical` is false for ECO results, whose capacity
// overrides the replayed tile grid does not carry.
void replay(const netlist::Netlist& nl, const planner::PlannerConfig& cfg,
            const planner::PlanResult& res, const planner::PlanResult* prev,
            FrontEnd front, bool exact_physical, Sample& out,
            std::vector<std::string>& errors) {
  const auto& tech = cfg.tech;
  floorplan::FloorplanOptions fp_opt = cfg.fp_opt;
  fp_opt.seed = cfg.run.seed;
  if (front == FrontEnd::kPartition) {
    std::vector<double> area(static_cast<std::size_t>(nl.num_cells()));
    for (const auto c : nl.cells()) area[c.index()] = cell_area(nl, c, tech);
    partition::FmOptions fm;
    fm.seed = cfg.run.seed;
    const auto part = timed(out, "partition.s", [&] {
      return partition::partition_netlist(nl, area, cfg.num_blocks, fm);
    });
    out["partition.cut"] += part.cut;
    if (part.block_of != res.block_of) errors.push_back("partition differs");
    const auto fp = timed(out, "floorplan.s", [&] {
      return floorplan::floorplan_blocks(res.fp.blocks, fp_opt);
    });
    if (fp.placement != res.fp.placement) errors.push_back("floorplan differs");
  } else if (front == FrontEnd::kExpand) {
    const auto spec = planner::detail::expansion_spec(*prev);
    const auto fp = timed(out, "floorplan.s", [&] {
      return floorplan::refloorplan_expanded(prev->fp, spec.new_area,
                                             spec.extra_whitespace, fp_opt);
    });
    if (fp.placement != res.fp.placement)
      errors.push_back("expansion floorplan differs");
  }

  std::vector<double> used(static_cast<std::size_t>(res.fp.num_blocks()), 0.0);
  for (const auto c : nl.cells())
    if (nl.type(c) != netlist::CellType::kDff)
      used[static_cast<std::size_t>(res.block_of[c.index()])] +=
          cell_area(nl, c, tech);
  auto grid = timed(out, "tile.s", [&] {
    return tile::TileGrid(res.fp, used, cfg.tile_opt);
  });

  // Routing requests: one net per driver, its distinct sink grid cells,
  // every cell at its block's centre.
  const auto grid_cell = [&](netlist::CellId c) {
    const auto [gx, gy] = grid.cell_of_point(
        res.fp.placement[static_cast<std::size_t>(res.block_of[c.index()])]
            .center());
    return route::Cell{gx, gy};
  };
  std::map<int, route::RouteRequest> nets;
  for (const auto& conn : retime::collapse_registers(nl)) {
    auto& net = nets[conn.driver.value()];
    net.source = grid_cell(conn.driver);
    const route::Cell sink = grid_cell(conn.sink);
    if (std::find(net.sinks.begin(), net.sinks.end(), sink) == net.sinks.end())
      net.sinks.push_back(sink);
  }
  std::vector<route::RouteRequest> requests;
  for (auto& [driver, net] : nets) requests.push_back(std::move(net));

  route::GlobalRouter router(grid, cfg.route_opt);
  const auto trees =
      timed(out, "route.s", [&] { return router.route_all(requests); });
  const auto& rs = router.stats();
  out["route.nets"] += rs.nets_routed;
  out["route.reroutes"] += static_cast<double>(rs.nets_rerouted);
  out["route.ripup_rounds"] += rs.ripup_rounds_used;

  repeater::RepeaterPlanner rep(grid, tech, cfg.repeater_opt);
  timed(out, "repeater.s", [&] {
    for (const auto& t : trees)
      (void)rep.plan(t, tech.gate_out_res, tech.gate_in_cap);
    return 0;
  });
  out["repeater.count"] += rep.repeaters_inserted();
  if (exact_physical &&
      (rs.nets_routed != res.routing.nets_routed ||
       rs.total_wirelength_um != res.routing.total_wirelength_um ||
       rep.repeaters_inserted() != res.repeaters))
    errors.push_back("routing or repeaters differ");

  const auto& g = res.graph;
  const auto wd = timed(out, "retime.wd_s", [&] {
    return retime::WdMatrices::compute(g, cfg.run.exec);
  });
  out["retime.wd_bytes"] += static_cast<double>(wd.bytes_used());
  out["retime.vertices"] += g.num_vertices();
  out["retime.edges"] += g.num_edges();
  const double t_min = timed(out, "retime.min_period_s", [&] {
    return retime::min_period_retiming(g, wd);
  });
  if (t_min != res.t_min_ps) errors.push_back("min period differs");
  const auto cs = timed(out, "retime.constraints_s", [&] {
    return retime::build_constraints(g, wd, retime::to_decips(res.t_clk_ps));
  });
  out["retime.clock_constraints"] += static_cast<double>(cs.clock.size());
  out["retime.clock_constraints_unpruned"] +=
      static_cast<double>(cs.clock_before_pruning);
  if (cs.clock.size() != res.clock_constraints)
    errors.push_back("constraint count differs");
  const auto ma = timed(out, "retime.min_area_s", [&] {
    auto r = retime::min_area_retiming(g, cs);
    if (r.has_value())
      (void)retime::place_flipflops(g, *res.grid, *r, tech.dff_area);
    return r;
  });
  if (!ma.has_value() || *ma != res.min_area.r)
    errors.push_back("min-area retiming differs");
  const auto lac = timed(out, "retime.lac_s", [&] {
    return retime::lac_retiming(g, *res.grid, cs, cfg.lac_opt);
  });
  out["retime.lac_rounds"] += lac.n_wr;
  if (lac.r != res.lac.r) errors.push_back("LAC retiming differs");

  // Min-cost-flow effort of the operation's own LAC loop.
  for (const auto& round : res.lac.rounds) {
    out["graph.mcf_solve_s"] += round.solve_seconds;
    out["graph.mcf_augmentations"] += round.augmentations;
    out["graph.mcf_phases"] += round.phases;
    out["graph.mcf_warm_rounds"] += round.warm ? 1 : 0;
    out["graph.mcf_rounds"] += 1;
  }
}

void add_eco_stats(const planner::EcoStats& e, Sample& out) {
  out["planner.eco_invalidated_nets"] += static_cast<double>(e.invalidated_nets);
  out["planner.eco_reused_routes"] += static_cast<double>(e.reused_routes);
  out["planner.eco_wd_rows_total"] += static_cast<double>(e.wd_rows_total);
  out["planner.eco_wd_rows_rebuilt"] += static_cast<double>(e.wd_rows_rebuilt);
  out["planner.eco_repeater_replays"] += static_cast<double>(e.repeater_replays);
  out["planner.eco_repeater_nets"] +=
      static_cast<double>(e.repeater_replays + e.repeater_replans);
  out["planner.eco_lac_warm"] += e.lac_warm ? 1 : 0;
  out["planner.eco_ops"] += 1;
}

// plan() runs every iteration after the first as an expand_blocks() ECO
// on a PlanSession, which reuses routes, W/D rows and the warm LAC session;
// replay() runs those iterations cold.  This repeats them through a
// session, outside every timed interval, to report what they reused.
void replay_iterations_as_eco(const netlist::Netlist& nl,
                              const planner::PlannerConfig& cfg,
                              const std::vector<planner::PlanResult>& iters,
                              Sample& out, std::vector<std::string>& errors) {
  planner::PlanSession session(nl, cfg);
  for (std::size_t k = 1; k < iters.size(); ++k) {
    session.begin_eco();
    session.expand_blocks();
    if (!same_plan(session.end_eco(), iters[k]))
      errors.push_back("iteration " + std::to_string(k + 1) +
                       " differs when re-planned as an ECO");
    add_eco_stats(session.last_eco(), out);
  }
}

// ---------------------------------------------------------------------------
// The run

struct Run {
  Run(const Args& a, const Workload& wl) : args(a), w(wl) {}

  const Args& args;
  const Workload& w;
  std::vector<netlist::Netlist> nets;

  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, std::vector<double>> op_seconds;  // op id -> samples
  std::map<std::string, std::vector<Sample>> layers;      // op id -> samples
  std::map<std::string, Quality> quality;                 // op id -> first
  std::vector<PlanPrint> session_prints;                  // first set-up
  std::map<std::string, PlanPrint> eco_prints;            // op id -> first
  std::vector<double> setup_seconds;
  std::vector<double> gen_seconds;
  double peak_rss_mb = 0.0;  // largest per-operation peak

  void fail(const std::string& op, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAIL %s: %s\n", op.c_str(), why.c_str());
  }

  // Records a finished operation; later passes must repeat its quality.
  void record(const std::string& id, double seconds, const Quality& q,
              int n_wr) {
    std::printf("op %-14s ma_n_foa %4lld  lac_n_foa %4lld  final_n_foa %4lld"
                "  lac_n_f %5lld  n_wr %3d  %9.4f s\n",
                id.c_str(), q.ma_n_foa, q.lac_n_foa, q.final_n_foa, q.lac_n_f,
                n_wr, seconds);
    op_seconds[id].push_back(seconds);
    const auto [it, first] = quality.emplace(id, q);
    if (!first && !(it->second == q)) fail(id, "quality differs across passes");
  }

  void trace_op(const std::string& id, double op_s, const Sample& layer) {
    Sample s = layer;
    const double covered = s["trace.layers_s"];
    s["trace.op_s"] = op_s;
    s["trace.uncovered_s"] = op_s - covered;
    std::printf("closure %-14s op %9.4f s  layers %9.4f s  uncovered %+9.4f s"
                "  replay overhead %+9.4f s\n",
                id.c_str(), op_s, covered, op_s - covered,
                s["trace.replay_s"] - op_s);
    s["trace.overhead_s"] = s["trace.replay_s"] - op_s;
    layers[id].push_back(std::move(s));
  }

  void note_peak_rss() {
    peak_rss_mb = std::max(
        peak_rss_mb, static_cast<double>(obs::memory::peak_rss_bytes()) / 1e6);
  }

  void generate() {
    const auto t0 = Clock::now();
    nets.clear();
    for (const auto& c : w.circuits)
      nets.push_back(netlist::generate_netlist(c.spec));
    gen_seconds.push_back(seconds_since(t0));
  }

  // One cold plan of circuit i.
  void cold_op(std::size_t i) {
    const auto& c = w.circuits[i];
    const std::string id = c.spec.name;
    ++attempted;
    try {
      const planner::InterconnectPlanner planner(config_for(w, c));
      reset_peak_rss();
      const auto t0 = Clock::now();
      const auto iters = planner.plan(
          nets[i], planner::PlanOptions{.max_iterations = w.iterations});
      const double op_s = seconds_since(t0);
      note_peak_rss();
      std::vector<std::string> errors;
      for (const auto& r : iters)
        if (const auto v = planner::verify_plan(r, planner.config()); !v.ok())
          errors.push_back(v.to_string());
      if (args.trace) {
        Sample s;
        const auto t1 = Clock::now();
        for (std::size_t k = 0; k < iters.size(); ++k)
          replay(nets[i], planner.config(), iters[k],
                 k == 0 ? nullptr : &iters[k - 1],
                 k == 0 ? FrontEnd::kPartition : FrontEnd::kExpand,
                 /*exact_physical=*/true, s, errors);
        s["trace.replay_s"] = seconds_since(t1);
        replay_iterations_as_eco(nets[i], planner.config(), iters, s, errors);
        trace_op(id, op_s, s);
      }
      if (!errors.empty()) return fail(id, errors.front());
      record(id, op_s, quality_of(iters.front(), iters.back()),
             iters.front().lac.n_wr);
    } catch (const std::exception& e) {
      fail(id, e.what());
    }
  }

  // Cold set-up: one timed sample of netlist generation.
  void cold_setup() {
    const auto t0 = Clock::now();
    int repeats = 0;
    do {
      generate();
      ++repeats;
    } while (seconds_since(t0) < kColdSetupMinS);
    setup_seconds.push_back(seconds_since(t0) / repeats);
  }

  // ECO set-up: netlist generation plus the cold plan that opens each
  // session, one setup_s sample.  Every set-up must reproduce the first
  // one's cold plans.
  std::vector<std::optional<planner::PlanSession>> open_sessions() {
    generate();
    std::vector<std::optional<planner::PlanSession>> sessions(nets.size());
    const auto t0 = Clock::now();
    try {
      for (std::size_t i = 0; i < nets.size(); ++i)
        sessions[i].emplace(nets[i], config_for(w, w.circuits[i]));
    } catch (const std::exception& e) {
      ++attempted;
      fail("session", e.what());
      return {};
    }
    setup_seconds.push_back(gen_seconds.back() + seconds_since(t0));
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      auto print = print_of(sessions[i]->result());
      if (session_prints.size() < sessions.size()) {
        session_prints.push_back(std::move(print));
      } else if (!(print == session_prints[i])) {
        ++attempted;
        fail(w.circuits[i].spec.name, "cold plans differ across set-ups");
      }
    }
    return sessions;
  }

  // The seeded edit stream of every session, one end_eco() per edit.  On
  // the first set that runs them, each result is checked against a cold
  // re-plan of the same state, outside the timed interval, and traced runs
  // replay it; later sets must reproduce that set's results.
  void eco_edits(std::vector<std::optional<planner::PlanSession>>& sessions,
                 bool first_set) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      auto& session = *sessions[i];
      const auto edits =
          make_edits(nets[i], w.circuits[i].blocks, args.seed,
                     static_cast<int>(i), w.edits_per_session);
      for (std::size_t k = 0; k < edits.size(); ++k) {
        const std::string id =
            w.circuits[i].spec.name + "#" + std::to_string(k + 1);
        ++attempted;
        try {
          session.begin_eco();
          apply_edit(session, edits[k]);
          reset_peak_rss();
          const auto t1 = Clock::now();
          const planner::PlanResult& res = session.end_eco();
          const double op_s = seconds_since(t1);
          note_peak_rss();
          std::vector<std::string> errors;
          if (const auto v = planner::verify_plan(res, session.config());
              !v.ok())
            errors.push_back(v.to_string());
          if (first_set) {
            if (!same_plan(res, session.replan_cold()))
              errors.push_back("ECO result differs from replan_cold()");
            eco_prints.emplace(id, print_of(res));
          } else if (const auto it = eco_prints.find(id);
                     it == eco_prints.end() || !(print_of(res) == it->second)) {
            errors.push_back("ECO result differs from the first pass");
          }
          if (args.trace && first_set) {
            Sample s;
            add_eco_stats(session.last_eco(), s);
            const auto t2 = Clock::now();
            replay(session.netlist(), session.config(), res, nullptr,
                   FrontEnd::kNone, /*exact_physical=*/false, s, errors);
            s["trace.replay_s"] = seconds_since(t2);
            trace_op(id, op_s, s);
          }
          if (!errors.empty()) {
            fail(id, errors.front());
            continue;
          }
          record(id, op_s, quality_of(res, res), res.lac.n_wr);
        } catch (const std::exception& e) {
          fail(id, e.what());
          if (session.in_eco()) break;  // the session cannot continue
        }
      }
    }
  }

  // Cold workloads plan their circuits in order, pass after pass, until
  // the time budget is spent (the first pass always completes).  The ECO
  // workload opens kEcoSetups sets of sessions, each gone before the next
  // is opened, and runs the edit streams on the last kEcoPasses sets, one
  // pass per set whatever the time budget, since a pass needs fresh
  // sessions.
  void run() {
    if (w.edits_per_session > 0) {
      std::vector<std::optional<planner::PlanSession>> sessions;
      for (int k = 0; k < kEcoSetups; ++k) {
        sessions.clear();  // the previous set goes before the next is built
        sessions = open_sessions();
        if (sessions.empty()) return;
        if (k >= kEcoSetups - kEcoPasses)
          eco_edits(sessions, /*first_set=*/k == kEcoSetups - kEcoPasses);
      }
      return;
    }
    const std::size_t n = w.circuits.size();
    const auto t_start = Clock::now();
    for (int pass = 0;; ++pass)
      for (std::size_t i = 0; i < n; ++i) {
        if (pass > 0 && seconds_since(t_start) >= args.seconds) return;
        // Set-up samples before circuits 0, n/k, 2n/k, ... of the first pass.
        if (pass == 0 && setup_seconds.size() < kColdSetups &&
            i == setup_seconds.size() * n / kColdSetups)
          cold_setup();
        cold_op(i);
      }
  }
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title.c_str());
  for (const auto& m : ms)
    std::printf("  %-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_json(bool correct, long long attempted, long long failed,
                const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int dump(const Args& a, const Workload& w) {
  for (std::size_t i = 0; i < w.circuits.size(); ++i) {
    const auto& s = w.circuits[i].spec;
    const auto nl = netlist::generate_netlist(s);
    std::printf("circuit %s pi=%d po=%d gates=%d dffs=%d depth=%d seed=%llu"
                " blocks=%d provision=%.17g iterations=%d netlist=%016llx\n",
                s.name.c_str(), s.num_inputs, s.num_outputs, s.num_gates,
                s.num_dffs, s.depth, static_cast<unsigned long long>(s.seed),
                w.circuits[i].blocks, w.provision, w.iterations,
                static_cast<unsigned long long>(
                    fnv1a(netlist::write_bench(nl))));
    for (const auto& e : make_edits(nl, w.circuits[i].blocks, a.seed,
                                    static_cast<int>(i), w.edits_per_session))
      std::printf("  edit %s\n", edit_text(e).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload w = make_workload(args);
  if (args.dump) return dump(args, w);

  Run run(args, w);
  run.run();

  // Per op id: median over its samples; summed over the pass.
  double wall_s = 0.0;
  std::vector<double> per_op;
  long long samples = 0;
  for (const auto& [id, s] : run.op_seconds) {
    per_op.push_back(median(s));
    wall_s += per_op.back();
    samples += static_cast<long long>(s.size());
  }
  Quality q;
  for (const auto& [id, oq] : run.quality) {
    q.ma_n_foa += oq.ma_n_foa;
    q.lac_n_foa += oq.lac_n_foa;
    q.final_n_foa += oq.final_n_foa;
    q.lac_n_f += oq.lac_n_f;
  }
  const double removed_pct =
      q.ma_n_foa > 0 ? 100.0 * static_cast<double>(q.ma_n_foa - q.lac_n_foa) /
                           static_cast<double>(q.ma_n_foa)
                     : 0.0;
  const double fail_frac = run.attempted > 0
                               ? static_cast<double>(run.failed) /
                                     static_cast<double>(run.attempted)
                               : 1.0;
  const double setup_s = median(run.setup_seconds);
  const bool correct = run.failed == 0 && run.attempted > 0;

  char note[96];
  std::snprintf(note, sizeof note, "(n=%zu ops, %lld samples)", per_op.size(),
                samples);
  const std::vector<Metric> e2e = {
      {"wall_s", wall_s, "s", "(one pass, per-op medians summed)"},
      {"op_p50_s", median(per_op), "s", note},
      {"setup_s", setup_s, "s", ""},
      {"peak_rss_mb", run.peak_rss_mb, "MB", "(largest per-operation peak)"},
      {"fail_frac", fail_frac, "frac", ""},
      {"lac_n_foa", static_cast<double>(q.lac_n_foa), "count", ""},
      {"final_n_foa", static_cast<double>(q.final_n_foa), "count", ""},
      {"foa_removed_pct", removed_pct, "%",
       "(min-area N_FOA " + std::to_string(q.ma_n_foa) + ")"},
      {"lac_n_f", static_cast<double>(q.lac_n_f), "count", ""},
  };
  std::printf("workload %s seed %llu threads %d seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), bench_threads(),
              args.seconds, args.trace ? 1 : 0);
  print_table("end-to-end", e2e);

  // Metrics that are zero by construction on some workload (fail_frac,
  // and final_n_foa / lac_n_foa at many seeds) are printed above but kept
  // out of the result line; see README.md.
  const auto result_metric = [](const Metric& m) {
    return m.name != "fail_frac" && m.name != "lac_n_foa" &&
           m.name != "final_n_foa";
  };
  if (!args.trace) {
    std::vector<Metric> out;
    for (const auto& m : e2e)
      if (result_metric(m)) out.push_back(m);
    print_json(correct, run.attempted, run.failed, out);
    return correct ? 0 : 1;
  }

  // Per-layer metrics: per op id, the median of each metric over its
  // samples, summed over the pass; ratios from the summed parts.
  Sample sum;
  for (const auto& [id, ss] : run.layers) {
    std::map<std::string, std::vector<double>> by_metric;
    for (const auto& s : ss)
      for (const auto& [k, v] : s) by_metric[k].push_back(v);
    for (const auto& [k, v] : by_metric) sum[k] += median(v);
  }
  const auto ratio = [&](const char* num, const char* den) {
    return sum[den] > 0 ? sum[num] / sum[den] : 0.0;
  };
  const std::vector<Metric> per_layer = {
      {"retime.min_period_s", sum["retime.min_period_s"], "s", ""},
      {"retime.wd_s", sum["retime.wd_s"], "s", ""},
      {"retime.wd_bytes", sum["retime.wd_bytes"], "bytes", ""},
      {"retime.vertices", sum["retime.vertices"], "count", ""},
      {"retime.edges", sum["retime.edges"], "count", ""},
      {"retime.constraints_s", sum["retime.constraints_s"], "s", ""},
      {"retime.clock_constraints", sum["retime.clock_constraints"], "count",
       ""},
      {"retime.clock_constraints_unpruned",
       sum["retime.clock_constraints_unpruned"], "count", ""},
      {"retime.min_area_s", sum["retime.min_area_s"], "s", ""},
      {"retime.lac_s", sum["retime.lac_s"], "s", ""},
      {"retime.lac_rounds", sum["retime.lac_rounds"], "count", ""},
      {"graph.mcf_solve_s", sum["graph.mcf_solve_s"], "s", ""},
      {"graph.mcf_augmentations", sum["graph.mcf_augmentations"], "count",
       ""},
      {"graph.mcf_phases", sum["graph.mcf_phases"], "count", ""},
      {"graph.mcf_warm_frac", ratio("graph.mcf_warm_rounds",
                                    "graph.mcf_rounds"), "frac", ""},
      {"planner.eco_invalidated_nets", sum["planner.eco_invalidated_nets"],
       "count", ""},
      {"planner.eco_reused_routes", sum["planner.eco_reused_routes"], "count",
       ""},
      {"planner.eco_wd_reuse_frac",
       sum["planner.eco_wd_rows_total"] > 0
           ? 1.0 - ratio("planner.eco_wd_rows_rebuilt",
                         "planner.eco_wd_rows_total")
           : 0.0,
       "frac", ""},
      {"planner.eco_repeater_replay_frac",
       ratio("planner.eco_repeater_replays", "planner.eco_repeater_nets"),
       "frac", ""},
      {"planner.eco_lac_warm_frac",
       ratio("planner.eco_lac_warm", "planner.eco_ops"), "frac", ""},
      {"route.s", sum["route.s"], "s", ""},
      {"route.nets", sum["route.nets"], "count", ""},
      {"route.reroutes", sum["route.reroutes"], "count", ""},
      {"route.ripup_rounds", sum["route.ripup_rounds"], "count", ""},
      {"repeater.s", sum["repeater.s"], "s", ""},
      {"repeater.count", sum["repeater.count"], "count", ""},
      {"floorplan.s", sum["floorplan.s"], "s", ""},
      {"partition.s", sum["partition.s"], "s", ""},
      {"partition.cut", sum["partition.cut"], "count", ""},
      {"tile.s", sum["tile.s"], "s", ""},
      {"netlist.gen_s", median(run.gen_seconds), "s", ""},
      {"trace.op_s", sum["trace.op_s"], "s", "(untraced operations)"},
      {"trace.layers_s", sum["trace.layers_s"], "s", "(sum of layer calls)"},
      {"trace.uncovered_s", sum["trace.uncovered_s"], "s",
       "(op_s - layers_s: glue minus reuse savings)"},
      {"trace.overhead_s", sum["trace.overhead_s"], "s",
       "(traced replay wall - untraced op wall)"},
  };
  print_table("per-layer", per_layer);
  print_json(correct, run.attempted, run.failed, per_layer);
  return correct ? 0 : 1;
}
