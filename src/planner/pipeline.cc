#include "planner/pipeline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "partition/fm.h"
#include "retime/collapse.h"

namespace lac::planner {

namespace {

double cell_area_of(const netlist::Netlist& nl, netlist::CellId c,
                    const timing::Technology& tech) {
  switch (nl.type(c)) {
    case netlist::CellType::kDff: return tech.dff_area;
    case netlist::CellType::kInput:
    case netlist::CellType::kOutput: return tech.dff_area * 0.25;
    default: return tech.gate_area;
  }
}

// Area a cell contributes when *sizing* blocks.  The per-edge retiming model
// counts a register once per fanout edge (no sharing — paper Eqn. (3)), so
// blocks must be provisioned for that demand or the area constraints are
// unsatisfiable by construction rather than by flip-flop placement.
double sizing_area_of(const netlist::Netlist& nl, netlist::CellId c,
                      const timing::Technology& tech, double provision) {
  if (nl.type(c) == netlist::CellType::kDff) {
    const auto fanouts = nl.fanouts(c).size();
    return tech.dff_area * provision *
           static_cast<double>(std::max<std::size_t>(1, fanouts));
  }
  return cell_area_of(nl, c, tech);
}

double area_scale_of(const EcoOverrides& overrides, std::size_t cell_index) {
  if (cell_index >= overrides.cell_area_scale.size()) return 1.0;
  return overrides.cell_area_scale[cell_index];
}

}  // namespace

namespace detail {

PartitionedFloorplan partition_and_floorplan(const netlist::Netlist& nl,
                                             const PlannerConfig& config) {
  // 1. Partition cells into circuit blocks.
  std::vector<double> cell_area(static_cast<std::size_t>(nl.num_cells()));
  for (const auto c : nl.cells())
    cell_area[c.index()] = cell_area_of(nl, c, config.tech);
  partition::FmOptions fm_opt;
  fm_opt.seed = config.run.seed;
  const auto part = [&] {
    obs::Span stage("stage.partition");
    auto p = partition::partition_netlist(nl, cell_area, config.num_blocks,
                                          fm_opt);
    stage.annotate("cut", p.cut);
    return p;
  }();

  // 2. Size blocks (cells + slack) and floorplan.  Every
  // ceil(1/hard_fraction)-th block becomes a hard macro.
  std::vector<floorplan::BlockSpec> specs(
      static_cast<std::size_t>(config.num_blocks));
  for (int b = 0; b < config.num_blocks; ++b)
    specs[static_cast<std::size_t>(b)].name = "blk" + std::to_string(b);
  for (const auto c : nl.cells())
    specs[static_cast<std::size_t>(part.block_of[c.index()])].area +=
        sizing_area_of(nl, c, config.tech, config.dff_provision_factor);
  const int hard_every =
      config.hard_block_fraction > 0.0
          ? std::max(1, static_cast<int>(1.0 / config.hard_block_fraction))
          : 0;
  for (int b = 0; b < config.num_blocks; ++b) {
    auto& spec = specs[static_cast<std::size_t>(b)];
    spec.area = std::max(spec.area, config.tech.gate_area);
    spec.area *= 1.0 + config.block_area_slack;
    if (hard_every > 0 && b % hard_every == hard_every - 1) {
      spec.hard = true;
      const Coord side = std::max<Coord>(
          1, static_cast<Coord>(std::llround(std::sqrt(spec.area))));
      spec.fixed_w = side;
      spec.fixed_h = side;
    }
  }
  floorplan::FloorplanOptions fp_opt = config.fp_opt;
  fp_opt.seed = config.run.seed;
  auto fp = [&] {
    obs::Span stage("stage.floorplan");
    return floorplan::floorplan_blocks(std::move(specs), fp_opt);
  }();
  return {part.block_of, std::move(fp)};
}

ExpansionSpec expansion_spec(const PlanResult& prev) {
  LAC_CHECK(prev.grid.has_value());
  const auto& grid = *prev.grid;
  const auto& rep = prev.lac.report;

  // Grow every violating soft block by 1.5x its overflow; violations in
  // channels or hard blocks translate into a higher whitespace target.
  ExpansionSpec spec;
  spec.new_area.reserve(prev.fp.blocks.size());
  for (const auto& b : prev.fp.blocks) spec.new_area.push_back(b.area);
  double channel_overflow = 0.0;
  for (int t = 0; t < grid.num_tiles(); ++t) {
    const tile::TileId tid{t};
    const double over =
        rep.ac[static_cast<std::size_t>(t)] - grid.capacity(tid);
    if (over <= 0.0) continue;
    if (grid.kind(tid) == tile::TileKind::kSoftBlock) {
      spec.new_area[grid.block(tid).index()] += 1.5 * over;
    } else {
      channel_overflow += over;
    }
  }
  spec.extra_whitespace =
      std::min(0.2, 2.0 * channel_overflow / prev.fp.chip.area());
  return spec;
}

PlanResult run_pipeline(const netlist::Netlist& nl, std::vector<int> block_of,
                        floorplan::Floorplan fp, const PlannerConfig& config,
                        const EcoOverrides& overrides, PipelineCache& cache) {
  // A filled cache makes this a re-plan: routing may reuse the previous
  // run's routes, and the run accounts for what it reused in `eco`.
  const bool replan = cache.filled;
  EcoStats eco;
  obs::Span iter_span("planner.iteration");
  PlanResult res;
  res.circuit = nl.name();
  res.block_of = std::move(block_of);
  res.fp = std::move(fp);
  obs::gauge("mem.floorplan_bytes", static_cast<double>(res.fp.bytes_used()));

  // Cell positions: the RT abstraction places every cell at its block's
  // centre (intra-block distances are not yet known at this stage).
  std::vector<Point> pos(static_cast<std::size_t>(nl.num_cells()));
  for (const auto c : nl.cells())
    pos[c.index()] =
        res.fp.placement[static_cast<std::size_t>(res.block_of[c.index()])]
            .center();

  // Soft-block used area: functional units only — original flip-flops are
  // *not* pre-placed; they compete for the block's slack like relocated
  // ones (the paper's capacity is "after repeater insertion", FFs float).
  std::vector<double> used(static_cast<std::size_t>(res.fp.num_blocks()), 0.0);
  for (const auto c : nl.cells())
    if (nl.type(c) != netlist::CellType::kDff)
      used[static_cast<std::size_t>(res.block_of[c.index()])] +=
          cell_area_of(nl, c, config.tech) * area_scale_of(overrides, c.index());

  {
    obs::Span stage("stage.tile_grid");
    res.grid.emplace(res.fp, used, config.tile_opt);
    // ECO capacity overrides: derate/boost block or channel tiles.  Applied
    // identically on the cold reference, so reuse gating never sees a
    // capacity the reference would not see.
    if (!overrides.trivial()) {
      for (int t = 0; t < res.grid->num_tiles(); ++t) {
        const tile::TileId tid{t};
        if (res.grid->kind(tid) == tile::TileKind::kChannel) {
          if (overrides.channel_capacity_scale != 1.0)
            res.grid->scale_capacity(tid, overrides.channel_capacity_scale);
        } else {
          const std::size_t b = res.grid->block(tid).index();
          if (b < overrides.block_capacity_scale.size() &&
              overrides.block_capacity_scale[b] != 1.0)
            res.grid->scale_capacity(tid, overrides.block_capacity_scale[b]);
        }
      }
    }
    stage.annotate("tiles", res.grid->num_tiles());
    stage.annotate("nx", res.grid->nx());
    stage.annotate("ny", res.grid->ny());
    stage.annotate("mem_bytes", res.grid->bytes_used());
    obs::gauge("mem.tile_graph_bytes",
               static_cast<double>(res.grid->bytes_used()));
  }
  tile::TileGrid& grid = *res.grid;

  // 3. Collapse registers and set up one routing request per driver.
  std::optional<obs::Span> collapse_span;
  collapse_span.emplace("stage.collapse_nets");
  const auto connections = retime::collapse_registers(nl);
  struct NetInfo {
    route::Cell source;
    std::vector<route::Cell> sinks;              // distinct sink cells
    std::unordered_map<int, int> sink_index_of;  // cell idx -> sinks index
  };
  std::map<int, NetInfo> nets;  // driver cell id -> net
  auto grid_cell = [&](netlist::CellId c) {
    const auto [gx, gy] = grid.cell_of_point(pos[c.index()]);
    return route::Cell{gx, gy};
  };
  for (const auto& conn : connections) {
    const route::Cell sc = grid_cell(conn.driver);
    const route::Cell tc = grid_cell(conn.sink);
    auto& net = nets[conn.driver.value()];
    net.source = sc;
    const int cell_idx = tc.gy * grid.nx() + tc.gx;
    if (net.sink_index_of.find(cell_idx) == net.sink_index_of.end()) {
      net.sink_index_of.emplace(cell_idx,
                                static_cast<int>(net.sinks.size()));
      net.sinks.push_back(tc);
    }
  }

  std::vector<route::RouteRequest> requests;
  std::vector<int> request_driver;
  for (const auto& [driver, net] : nets) {
    requests.push_back({net.source, net.sinks});
    request_driver.push_back(driver);
  }
  collapse_span->annotate("connections", connections.size());
  collapse_span->annotate("nets", requests.size());
  collapse_span.reset();

  // 4. Global routing + repeater planning.  The driver cell id is the
  // stable net key tying this run's nets to the previous run's log.
  std::vector<long long> keys;
  keys.reserve(request_driver.size());
  for (const int d : request_driver) keys.push_back(d);

  // An empty cache holds an empty log, on which route_all_incremental
  // routes every net speculatively, exactly as route_all does.
  route::GlobalRouter router(grid, config.route_opt);
  route::IncRouteStats inc;
  route::RouteLog route_log;
  auto trees = [&] {
    obs::Span stage("stage.global_route");
    return router.route_all_incremental(requests, keys, cache.route_log,
                                        &route_log, &inc);
  }();
  res.routing = router.stats();
  if (replan) {
    eco.invalidated_nets = inc.invalidated;
    eco.reused_routes = inc.reused_initial;
    eco.reused_reroutes = inc.reused_ripup;
    eco.cold_routes = inc.cold_initial;
    eco.cold_reroutes = inc.cold_ripup;
    eco.route_full_fallback = inc.full_fallback;
  }

  repeater::RepeaterPlanner rep(grid, config.tech, config.repeater_opt);
  std::vector<repeater::BufferedNet> buffered;
  {
    obs::Span stage("stage.repeaters");
    buffered.reserve(trees.size());
    for (const auto& tree : trees)
      buffered.push_back(rep.plan(tree, config.tech.gate_out_res,
                                  config.tech.gate_in_cap));
    stage.annotate("repeaters", rep.repeaters_inserted());
    stage.annotate("area_consumed", rep.area_consumed());
  }
  if (replan) eco.repeater_replans = static_cast<long long>(trees.size());
  res.repeaters = rep.repeaters_inserted();

  // 5. Build the retiming graph.
  std::optional<obs::Span> graph_span;
  graph_span.emplace("stage.build_graph");
  auto& g = res.graph;
  std::vector<int> vtx(static_cast<std::size_t>(nl.num_cells()), -1);
  for (const auto c : nl.cells()) {
    const auto type = nl.type(c);
    if (type == netlist::CellType::kDff) continue;
    const bool io = type == netlist::CellType::kInput ||
                    type == netlist::CellType::kOutput;
    const double delay = io ? 0.0 : config.tech.gate_delay;
    vtx[c.index()] = g.add_vertex(retime::VertexKind::kFunctional, delay,
                                  grid.tile_at(pos[c.index()]));
    if (io) g.mark_io(vtx[c.index()]);
  }

  // Interconnect-unit chains, deduplicated along shared tree trunks by
  // (unit ordinal, cell): identical prefixes of two sink paths produce the
  // same vertices, so trunk flip-flops are shared, not duplicated.
  // last_unit_of[request][sink_idx] = chain tail vertex (or driver vertex).
  std::vector<std::vector<int>> last_unit_of(requests.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const int driver_vtx = vtx[static_cast<std::size_t>(request_driver[q])];
    LAC_CHECK(driver_vtx > 0);
    const auto& bnet = buffered[q];
    last_unit_of[q].assign(requests[q].sinks.size(), driver_vtx);
    if (bnet.sinks.empty()) continue;  // unrouted (all sinks colocated)
    std::map<std::pair<int, int>, int> unit_vtx;  // (ordinal, cell) -> vertex
    for (std::size_t s = 0; s < bnet.sinks.size(); ++s) {
      int prev = driver_vtx;
      const auto& units = bnet.sinks[s].units;
      for (std::size_t k = 0; k < units.size(); ++k) {
        const auto& u = units[k];
        const int cell_idx = u.at.gy * grid.nx() + u.at.gx;
        const auto key = std::make_pair(static_cast<int>(k), cell_idx);
        auto it = unit_vtx.find(key);
        if (it == unit_vtx.end()) {
          const int v = g.add_vertex(retime::VertexKind::kInterconnect,
                                     u.delay_ps, u.tile);
          g.add_edge(prev, v, 0);
          it = unit_vtx.emplace(key, v).first;
        }
        prev = it->second;
      }
      last_unit_of[q][s] = prev;
    }
  }
  res.interconnect_units = g.num_interconnect_units();

  // Connection edges carry the register counts on the private last hop.
  std::unordered_map<int, int> request_of_driver;
  for (std::size_t q = 0; q < requests.size(); ++q)
    request_of_driver.emplace(request_driver[q], static_cast<int>(q));
  for (const auto& conn : connections) {
    const int uv = vtx[conn.driver.index()];
    const int vv = vtx[conn.sink.index()];
    LAC_CHECK(uv > 0 && vv > 0);
    const int q = request_of_driver.at(conn.driver.value());
    const route::Cell tc = grid_cell(conn.sink);
    const int cell_idx = tc.gy * grid.nx() + tc.gx;
    const int sink_idx = nets.at(conn.driver.value()).sink_index_of.at(cell_idx);
    const int tail = last_unit_of[static_cast<std::size_t>(q)]
                                 [static_cast<std::size_t>(sink_idx)];
    g.add_edge(tail, vv, conn.w);
  }

  graph_span->annotate("vertices", g.num_vertices());
  graph_span->annotate("interconnect_units", res.interconnect_units);
  graph_span->annotate("mem_bytes", g.bytes_used());
  obs::gauge("mem.retiming_graph_bytes", static_cast<double>(g.bytes_used()));
  graph_span.reset();

  // 6. Timing landmarks.  The W/D index is O(V+E) and built afresh on
  // every run; each period probe sweeps the W/D rows inside its own scan.
  // The first probe's sweep also keeps the T_clk pairs, so when that probe
  // settles T_min the T_clk set needs no sweep of its own.
  std::optional<obs::Span> timing_span;
  timing_span.emplace("stage.timing");
  std::optional<obs::Span> sub_span;
  sub_span.emplace("timing.wd");
  const auto wd = retime::WdMatrices::compute(g, config.run.exec);
  if (replan) {
    eco.wd_rows_rebuilt = g.num_vertices();
    eco.wd_rows_total = g.num_vertices();
  }
  timing_span->annotate("mem_bytes", wd.bytes_used());
  obs::gauge("mem.wd_bytes", static_cast<double>(wd.bytes_used()));
  sub_span.emplace("timing.min_period");
  res.t_init_ps = wd.t_init_ps();
  retime::ClockPlan clock_plan = retime::plan_clock(
      g, wd, config.clock_slack_fraction, config.run.exec);
  sub_span->annotate("io_bound_ps",
                     retime::from_decips(clock_plan.proof.io_bound_decips));
  sub_span->annotate("t_min_proof", clock_plan.proof.t_min_proof);
  res.t_min_ps = clock_plan.t_min_ps;
  res.t_clk_ps = clock_plan.t_clk_ps;

  sub_span.emplace("timing.constraints");
  const auto cs =
      retime::take_clock_constraints(g, wd, clock_plan, config.run.exec);
  sub_span.reset();
  res.clock_constraints = cs.clock.size();
  res.clock_constraints_unpruned = cs.clock_before_pruning;
  res.constraint_gen_seconds = timing_span->elapsed_seconds();
  timing_span->annotate("t_init_ps", res.t_init_ps);
  timing_span->annotate("t_min_ps", res.t_min_ps);
  timing_span->annotate("t_clk_ps", res.t_clk_ps);
  timing_span->annotate("clock_constraints", res.clock_constraints);
  timing_span->annotate("clock_constraints_unpruned",
                        res.clock_constraints_unpruned);
  timing_span.reset();

  // 7. LAC-retiming at T_clk, the contribution.  Its round 1 is plain
  // min-area retiming, the baseline it is judged against.
  {
    obs::Span stage("stage.lac_retiming");
    auto lac = retime::lac_retiming(g, grid, cs, config.lac_opt);
    // n_wr = 1 and no round history: the baseline is one plain solve.
    res.min_area.r = std::move(lac.min_area_r);
    res.min_area.report = std::move(lac.min_area_report);
    res.min_area.exec_seconds = lac.rounds.front().solve_seconds;
    res.lac.r = std::move(lac.r);
    res.lac.report = std::move(lac.report);
    res.lac.n_wr = lac.n_wr;
    res.lac.rounds = std::move(lac.rounds);
    res.lac.exec_seconds = stage.elapsed_seconds();
    stage.annotate("n_wr", res.lac.n_wr);
    stage.annotate("n_foa", res.lac.report.n_foa);
    stage.annotate("n_f", res.lac.report.n_f);
    stage.annotate("met_all_constraints", res.lac.report.fits());
  }

  cache.route_log = std::move(route_log);
  cache.stats = eco;
  cache.filled = true;

  if (replan) {
    obs::count("eco.replans");
    obs::count("eco.invalidated_nets", eco.invalidated_nets);
    obs::count("eco.reused_routes", eco.reused_routes);
    obs::count("eco.reused_reroutes", eco.reused_reroutes);
    obs::count("eco.cold_routes", eco.cold_routes);
    obs::count("eco.cold_reroutes", eco.cold_reroutes);
    if (eco.route_full_fallback) obs::count("eco.route_full_fallbacks");
    iter_span.annotate("eco_invalidated_nets", eco.invalidated_nets);
    iter_span.annotate("eco_reused_routes", eco.reused_routes);
  }

  // OS-level high-water mark; noisy across runs, so the perf gate treats
  // every *rss* gauge as informational only.
  if (const std::int64_t rss = obs::memory::peak_rss_bytes(); rss > 0)
    obs::gauge("mem.peak_rss_bytes", static_cast<double>(rss));
  return res;
}

}  // namespace detail
}  // namespace lac::planner
