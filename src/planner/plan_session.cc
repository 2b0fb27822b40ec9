#include "planner/plan_session.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/stream.h"

namespace lac::planner {

namespace {

// Consumes one whitespace token; false at end of line.
bool next_token(std::istringstream& in, std::string* tok) {
  return static_cast<bool>(in >> *tok);
}

bool parse_int(const std::string& tok, int* out) {
  std::size_t used = 0;
  try {
    *out = std::stoi(tok, &used);
  } catch (...) {
    return false;
  }
  return used == tok.size();
}

bool parse_double(const std::string& tok, double* out) {
  std::size_t used = 0;
  try {
    *out = std::stod(tok, &used);
  } catch (...) {
    return false;
  }
  return used == tok.size();
}

// Observability set-up of one session entry point, held for the call: the
// run's tracing override and root-span cap, and the event stream, opened
// here unless one is already open (bench drivers open it in parse_cli;
// embedders reach it through RunControls::stream_path).  A stream that
// cannot be opened fails the call before any planning.
class RunScope {
 public:
  RunScope(const base::RunControls& run, const char* stream_label) {
    if (run.observability != obs::Override::kEnv)
      enable_.emplace(run.observability == obs::Override::kOn);
    obs::set_max_root_spans(run.max_root_spans);
    if (!run.stream_path.empty() && !obs::stream::active()) {
      std::string error;
      LAC_CHECK_MSG(obs::stream::open(run.stream_path, stream_label, &error),
                    "cannot open event stream " << run.stream_path << ": "
                                                << error);
    }
  }

 private:
  std::optional<obs::ScopedEnable> enable_;
};

}  // namespace

std::optional<std::vector<EcoEdit>> parse_eco_journal(const std::string& text,
                                                      std::string* error) {
  auto fail = [&](int line_no, const std::string& why) {
    if (error != nullptr)
      *error = "line " + std::to_string(line_no) + ": " + why;
    return std::nullopt;
  };

  std::vector<EcoEdit> edits;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream in(line);
    std::string op;
    if (!next_token(in, &op)) continue;  // blank / comment-only line

    EcoEdit e;
    std::string a, b, c;
    if (op == "resize_block") {
      e.kind = EcoEdit::Kind::kResizeBlock;
      if (!next_token(in, &a) || !next_token(in, &b) ||
          !parse_int(a, &e.block) || !parse_double(b, &e.value))
        return fail(line_no, "expected: resize_block <block> <new_area>");
    } else if (op == "scale_capacity") {
      if (!next_token(in, &a) || !next_token(in, &b))
        return fail(line_no,
                    "expected: scale_capacity <block|channel> <factor>");
      if (a == "channel") {
        e.kind = EcoEdit::Kind::kScaleChannelCapacity;
      } else {
        e.kind = EcoEdit::Kind::kScaleBlockCapacity;
        if (!parse_int(a, &e.block))
          return fail(line_no, "bad block '" + a + "' (int or 'channel')");
      }
      if (!parse_double(b, &e.value))
        return fail(line_no, "bad factor '" + b + "'");
    } else if (op == "resize_cell") {
      e.kind = EcoEdit::Kind::kResizeCell;
      if (!next_token(in, &e.name) || !next_token(in, &a) ||
          !parse_double(a, &e.value))
        return fail(line_no, "expected: resize_cell <name> <scale>");
    } else if (op == "add_cell") {
      e.kind = EcoEdit::Kind::kAddCell;
      if (!next_token(in, &e.name) || !next_token(in, &a) ||
          !next_token(in, &b))
        return fail(line_no,
                    "expected: add_cell <name> <type> <block> [fanin...]");
      const auto type = netlist::parse_cell_type(a);
      if (!type.has_value())
        return fail(line_no, "unknown cell type '" + a + "'");
      e.cell_type = *type;
      if (!parse_int(b, &e.block))
        return fail(line_no, "bad block '" + b + "'");
      while (next_token(in, &c)) e.fanins.push_back(c);
    } else if (op == "remove_cell") {
      e.kind = EcoEdit::Kind::kRemoveCell;
      if (!next_token(in, &e.name))
        return fail(line_no, "expected: remove_cell <name>");
    } else if (op == "buffer") {
      e.kind = EcoEdit::Kind::kBuffer;
      if (!next_token(in, &e.name) || !next_token(in, &e.driver) ||
          !next_token(in, &e.sink))
        return fail(line_no, "expected: buffer <name> <driver> <sink>");
    } else if (op == "expand_blocks") {
      e.kind = EcoEdit::Kind::kExpandBlocks;
    } else {
      return fail(line_no, "unknown operation '" + op + "'");
    }
    if (e.kind != EcoEdit::Kind::kAddCell) {
      std::string extra;
      if (next_token(in, &extra))
        return fail(line_no, "trailing token '" + extra + "'");
    }
    edits.push_back(std::move(e));
  }
  return edits;
}

PlanSession::PlanSession(const netlist::Netlist& nl, PlannerConfig config)
    : config_(InterconnectPlanner(std::move(config)).config()), nl_(nl) {
  const RunScope scope(config_.run, "planner.plan");
  obs::Span span("planner.plan");
  span.annotate("circuit", nl_.name());
  span.annotate("cells", nl_.num_cells());
  span.annotate("blocks", config_.num_blocks);
  obs::count("planner.plans");

  auto pf = detail::partition_and_floorplan(nl_, config_);
  block_of_ = std::move(pf.block_of);
  fp_ = std::move(pf.fp);
  result_ = detail::run_pipeline(nl_, block_of_, fp_, config_, overrides_,
                                 cache_);
  span.annotate("t_clk_ps", result_.t_clk_ps);
  span.annotate("lac_n_foa", result_.lac.report.n_foa);
  span.annotate("lac_n_wr", result_.lac.n_wr);
}

void PlanSession::begin_eco() {
  LAC_CHECK_MSG(!in_eco_, "begin_eco() with a journal already open");
  in_eco_ = true;
  journal_edits_ = 0;
}

void PlanSession::resize_block(int block, double new_area) {
  LAC_CHECK_MSG(in_eco_, "resize_block outside begin_eco()/end_eco()");
  LAC_CHECK(block >= 0 && block < fp_.num_blocks());
  LAC_CHECK(new_area > 0.0);
  auto resized = floorplan::resize_block_in_place(fp_, block, new_area);
  if (resized.has_value()) {
    fp_ = std::move(*resized);
  } else {
    // No room for a local edit: incremental re-floorplan with the same
    // seed (chip outline may change — downstream reuse degrades but the
    // re-plan stays exact).
    std::vector<double> new_areas;
    new_areas.reserve(fp_.blocks.size());
    for (const auto& b : fp_.blocks) new_areas.push_back(b.area);
    new_areas[static_cast<std::size_t>(block)] = new_area;
    floorplan::FloorplanOptions fp_opt = config_.fp_opt;
    fp_opt.seed = config_.run.seed;
    fp_ = floorplan::refloorplan_expanded(fp_, new_areas, 0.0, fp_opt);
  }
  ++journal_edits_;
}

void PlanSession::scale_block_capacity(int block, double factor) {
  LAC_CHECK_MSG(in_eco_, "scale_block_capacity outside an open journal");
  LAC_CHECK(block >= 0 && block < fp_.num_blocks());
  LAC_CHECK(factor >= 0.0);
  auto& scales = overrides_.block_capacity_scale;
  if (scales.size() < static_cast<std::size_t>(fp_.num_blocks()))
    scales.resize(static_cast<std::size_t>(fp_.num_blocks()), 1.0);
  scales[static_cast<std::size_t>(block)] *= factor;
  ++journal_edits_;
}

void PlanSession::scale_channel_capacity(double factor) {
  LAC_CHECK_MSG(in_eco_, "scale_channel_capacity outside an open journal");
  LAC_CHECK(factor >= 0.0);
  overrides_.channel_capacity_scale *= factor;
  ++journal_edits_;
}

void PlanSession::resize_cell(const std::string& name, double scale) {
  LAC_CHECK_MSG(in_eco_, "resize_cell outside an open journal");
  LAC_CHECK(scale >= 0.0);
  const auto c = nl_.find(name);
  LAC_CHECK_MSG(c.has_value(), "resize_cell: no cell named '" << name << "'");
  auto& scales = overrides_.cell_area_scale;
  if (scales.size() < static_cast<std::size_t>(nl_.num_cells()))
    scales.resize(static_cast<std::size_t>(nl_.num_cells()), 1.0);
  scales[c->index()] *= scale;
  ++journal_edits_;
}

netlist::CellId PlanSession::add_cell(const std::string& name,
                                      netlist::CellType type, int block,
                                      const std::vector<std::string>& fanins) {
  LAC_CHECK_MSG(in_eco_, "add_cell outside an open journal");
  LAC_CHECK(block >= 0 && block < fp_.num_blocks());
  // Resolve every name before anything changes, so a bad edit throws with
  // the session untouched.
  std::vector<netlist::CellId> drivers;
  drivers.reserve(fanins.size());
  for (const auto& fn : fanins) {
    const auto d = nl_.find(fn);
    LAC_CHECK_MSG(d.has_value(), "add_cell: no fanin named '" << fn << "'");
    drivers.push_back(*d);
  }
  const netlist::CellId c = nl_.add_cell(name, type);
  LAC_CHECK(c.index() == block_of_.size());
  block_of_.push_back(block);
  for (const auto d : drivers) nl_.connect(c, d);
  ++journal_edits_;
  return c;
}

void PlanSession::remove_cell(const std::string& name) {
  LAC_CHECK_MSG(in_eco_, "remove_cell outside an open journal");
  const auto c = nl_.find(name);
  LAC_CHECK_MSG(c.has_value(), "remove_cell: no cell named '" << name << "'");
  nl_.remove_cell(*c);
  ++journal_edits_;
}

netlist::CellId PlanSession::add_buffer(const std::string& name,
                                        const std::string& driver,
                                        const std::string& sink) {
  LAC_CHECK_MSG(in_eco_, "add_buffer outside an open journal");
  const auto d = nl_.find(driver);
  LAC_CHECK_MSG(d.has_value(), "add_buffer: no driver named '" << driver
                                                              << "'");
  const auto s = nl_.find(sink);
  LAC_CHECK_MSG(s.has_value(), "add_buffer: no sink named '" << sink << "'");
  const auto fi = nl_.fanins(*s);
  LAC_CHECK_MSG(std::find(fi.begin(), fi.end(), *d) != fi.end(),
                "add_buffer: " << driver << " does not drive " << sink);
  const netlist::CellId b = nl_.add_cell(name, netlist::CellType::kBuf);
  LAC_CHECK(b.index() == block_of_.size());
  block_of_.push_back(block_of_[d->index()]);
  nl_.rewire_fanin(*s, *d, b);
  nl_.connect(b, *d);
  ++journal_edits_;
  return b;
}

void PlanSession::expand_blocks() {
  LAC_CHECK_MSG(in_eco_, "expand_blocks outside an open journal");
  if (result_.lac.report.fits()) return;  // nothing to expand
  const auto spec = detail::expansion_spec(result_);
  floorplan::FloorplanOptions fp_opt = config_.fp_opt;
  fp_opt.seed = config_.run.seed;
  fp_ = floorplan::refloorplan_expanded(fp_, spec.new_area,
                                        spec.extra_whitespace, fp_opt);
  ++journal_edits_;
}

void PlanSession::apply(const EcoEdit& edit) {
  switch (edit.kind) {
    case EcoEdit::Kind::kResizeBlock:
      resize_block(edit.block, edit.value);
      break;
    case EcoEdit::Kind::kScaleBlockCapacity:
      scale_block_capacity(edit.block, edit.value);
      break;
    case EcoEdit::Kind::kScaleChannelCapacity:
      scale_channel_capacity(edit.value);
      break;
    case EcoEdit::Kind::kResizeCell:
      resize_cell(edit.name, edit.value);
      break;
    case EcoEdit::Kind::kAddCell:
      (void)add_cell(edit.name, edit.cell_type, edit.block, edit.fanins);
      break;
    case EcoEdit::Kind::kRemoveCell:
      remove_cell(edit.name);
      break;
    case EcoEdit::Kind::kBuffer:
      (void)add_buffer(edit.name, edit.driver, edit.sink);
      break;
    case EcoEdit::Kind::kExpandBlocks:
      expand_blocks();
      break;
  }
}

const PlanResult& PlanSession::end_eco() {
  LAC_CHECK_MSG(in_eco_, "end_eco() without begin_eco()");
  in_eco_ = false;

  const RunScope scope(config_.run, "planner.eco_replan");
  obs::Span span("planner.eco_replan");
  span.annotate("circuit", nl_.name());
  span.annotate("edits", journal_edits_);
  obs::count("planner.eco_replans");

  result_ = detail::run_pipeline(nl_, block_of_, fp_, config_, overrides_,
                                 cache_);
  const EcoStats& eco = cache_.stats;
  span.annotate("invalidated_nets", eco.invalidated_nets);
  span.annotate("reused_routes", eco.reused_routes);
  span.annotate("reused_reroutes", eco.reused_reroutes);
  span.annotate("repeater_replays", eco.repeater_replays);
  span.annotate("lac_warm", eco.lac_warm);
  span.annotate("route_full_fallback", eco.route_full_fallback);
  span.annotate("t_clk_ps", result_.t_clk_ps);
  span.annotate("lac_n_foa", result_.lac.report.n_foa);
  return result_;
}

PlanResult PlanSession::replan_cold() const {
  LAC_CHECK_MSG(!in_eco_, "replan_cold() with a journal open");
  const RunScope scope(config_.run, "planner.replan_cold");
  obs::Span span("planner.replan_cold");
  span.annotate("circuit", nl_.name());
  PipelineCache empty;
  PlanResult res =
      detail::run_pipeline(nl_, block_of_, fp_, config_, overrides_, empty);
  span.annotate("t_clk_ps", res.t_clk_ps);
  span.annotate("lac_n_foa", res.lac.report.n_foa);
  return res;
}

}  // namespace lac::planner
