// PlanSession: a long-lived planning session supporting journaled ECO
// (engineering change order) deltas with incremental re-planning.
//
// A session wraps a completed plan and the PipelineCache it left behind.
// Every plan it makes is detail::run_pipeline() on that cache: the
// constructor's cold plan runs on the empty cache, replan_cold() on a fresh
// empty one.  Between begin_eco() and end_eco() the caller records deltas —
// cell insert/remove/resize, buffer insertion, block resize, tile-capacity
// scaling, floorplan expansion — and end_eco() re-plans on the session's
// cache, invalidating only what the journal touched:
//   * only nets whose tiles or endpoints changed are re-routed
//     (route::GlobalRouter::route_all_incremental, the router's one
//     driver: nets the log cannot supply are routed speculatively in
//     parallel, as in a cold plan);
//   * repeater segments replay on nets whose tree and tile context is
//     unchanged (repeater::RepeaterPlanner::try_replay);
//   * the LAC loop resolves on the retained warm min-cost-flow session
//     when the constraint system is content-identical.
//
// The hard guarantee (docs/ECO.md, CI-gated): an ECO re-plan is
// bit-identical to a cold re-plan of the same edited inputs — replan_cold()
// produces the reference.  The eco.* counters and EcoStats quantify the
// work actually skipped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "planner/interconnect_planner.h"
#include "planner/pipeline.h"

namespace lac::planner {

// One parsed journal operation (see parse_eco_journal for the text form).
struct EcoEdit {
  enum class Kind {
    kResizeBlock,           // resize_block <block> <new_area>
    kScaleBlockCapacity,    // scale_capacity <block> <factor>
    kScaleChannelCapacity,  // scale_capacity channel <factor>
    kResizeCell,            // resize_cell <name> <scale>
    kAddCell,               // add_cell <name> <type> <block> [fanin...]
    kRemoveCell,            // remove_cell <name>
    kBuffer,                // buffer <name> <driver> <sink>
    kExpandBlocks,          // expand_blocks
  };
  Kind kind = Kind::kExpandBlocks;
  int block = -1;                 // kResizeBlock/kScaleBlockCapacity/kAddCell
  double value = 0.0;             // area / factor / scale
  std::string name;               // cell name for cell edits
  netlist::CellType cell_type = netlist::CellType::kBuf;  // kAddCell
  std::vector<std::string> fanins;                        // kAddCell
  std::string driver;             // kBuffer
  std::string sink;               // kBuffer
};

// Parses an ECO journal: one operation per line in the forms listed above,
// '#' starts a comment, blank lines ignored.  Returns nullopt and sets
// `error` ("line N: why") on the first malformed line.  Name/block
// resolution is NOT checked here — apply() validates against the session.
[[nodiscard]] std::optional<std::vector<EcoEdit>> parse_eco_journal(
    const std::string& text, std::string* error);

class PlanSession {
 public:
  // Runs the full cold plan (partition, floorplan, then the pipeline on an
  // empty cache) under a "planner.plan" span and keeps the filled cache.
  explicit PlanSession(const netlist::Netlist& nl, PlannerConfig config = {});

  [[nodiscard]] const PlanResult& result() const { return result_; }
  [[nodiscard]] const netlist::Netlist& netlist() const { return nl_; }
  [[nodiscard]] const PlannerConfig& config() const { return config_; }
  // Work accounting of the last end_eco() (zeros before the first one).
  [[nodiscard]] const EcoStats& last_eco() const { return cache_.stats; }
  [[nodiscard]] bool in_eco() const { return in_eco_; }

  // Opens a journal.  Deltas below are only legal while one is open; they
  // mutate the session's planning inputs immediately but nothing re-plans
  // until end_eco().
  void begin_eco();

  // Resizes a soft block, in place when adjacent free space allows (the
  // cheap path: chip outline and every route stay reusable); falls back to
  // an incremental re-floorplan otherwise.
  void resize_block(int block, double new_area);
  // Scales the insertion capacity of every tile of `block` / every channel
  // tile.  Factors compose across edits.
  void scale_block_capacity(int block, double factor);
  void scale_channel_capacity(double factor);
  // Scales the area a cell contributes to its block's used area (and hence
  // the block tiles' remaining capacity).
  void resize_cell(const std::string& name, double scale);
  // Adds a cell to `block`, connected to the named fanins.  Every name is
  // resolved before anything changes: an unknown fanin throws and leaves
  // the session as it was.
  netlist::CellId add_cell(const std::string& name, netlist::CellType type,
                           int block, const std::vector<std::string>& fanins);
  // Removes a cell (fanouts are bypassed to its single fanin — see
  // Netlist::remove_cell for legality).
  void remove_cell(const std::string& name);
  // Inserts a buffer named `name` on the driver->sink connection, placed in
  // the driver's block.  Throws, with the session unchanged, when either
  // name is unknown or `driver` does not drive `sink`.
  netlist::CellId add_buffer(const std::string& name,
                             const std::string& driver,
                             const std::string& sink);
  // The paper's iteration-2 floorplan expansion as a delta: violating soft
  // blocks grow by their overflow, channel overflow raises the whitespace
  // target, and the floorplan re-anneals incrementally.  No-op when the
  // last result already fits.
  void expand_blocks();
  // Applies one parsed journal operation.
  void apply(const EcoEdit& edit);

  // Closes the journal and re-plans incrementally.  The returned result is
  // bit-identical (quality outputs) to replan_cold() on the same state.
  const PlanResult& end_eco();

  // Cold re-plan of the session's current (possibly edited) inputs: the
  // pipeline on a fresh empty cache — the equivalence reference for
  // end_eco().
  [[nodiscard]] PlanResult replan_cold() const;

 private:
  PlannerConfig config_;
  netlist::Netlist nl_;
  std::vector<int> block_of_;  // cell index -> block (pinned partition)
  floorplan::Floorplan fp_;    // current (possibly edited) floorplan
  EcoOverrides overrides_;
  PlanResult result_;
  PipelineCache cache_;
  bool in_eco_ = false;
  int journal_edits_ = 0;
};

}  // namespace lac::planner
