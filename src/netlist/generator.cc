#include "netlist/generator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"

namespace lac::netlist {

namespace {

CellType random_gate_type(Rng& rng, int fanin_hint) {
  if (fanin_hint == 1) {
    return rng.bernoulli(0.7) ? CellType::kNot : CellType::kBuf;
  }
  // Rough ISCAS89 mix: NAND/NOR-heavy with some AND/OR/XOR.
  const double x = rng.uniform_real();
  if (x < 0.35) return CellType::kNand;
  if (x < 0.60) return CellType::kNor;
  if (x < 0.75) return CellType::kAnd;
  if (x < 0.90) return CellType::kOr;
  if (x < 0.96) return CellType::kXor;
  return CellType::kXnor;
}

}  // namespace

Netlist generate_netlist(const GenSpec& spec) {
  LAC_CHECK(spec.num_inputs >= 1);
  LAC_CHECK(spec.num_outputs >= 1);
  LAC_CHECK(spec.num_gates >= 1);
  LAC_CHECK(spec.num_dffs >= 0);
  LAC_CHECK(spec.depth >= 1);

  Rng rng(spec.seed ^ 0xA5A5A5A5ULL);
  Netlist nl(spec.name);

  std::vector<CellId> pis;
  pis.reserve(static_cast<std::size_t>(spec.num_inputs));
  for (int i = 0; i < spec.num_inputs; ++i)
    pis.push_back(nl.add_cell("pi" + std::to_string(i), CellType::kInput));

  // DFF cells exist up front so their outputs can drive layer-0 logic; their
  // single fanin is connected after the combinational core is built.
  std::vector<CellId> dffs;
  dffs.reserve(static_cast<std::size_t>(spec.num_dffs));
  for (int i = 0; i < spec.num_dffs; ++i)
    dffs.push_back(nl.add_cell("ff" + std::to_string(i), CellType::kDff));

  // Layered combinational core.  layer_of[g] in [0, depth); fanins come from
  // strictly earlier layers, PIs, or DFF outputs, so the core is acyclic.
  const int depth = std::min(spec.depth, spec.num_gates);
  std::vector<std::vector<CellId>> layers(static_cast<std::size_t>(depth));
  std::vector<CellId> gates;
  gates.reserve(static_cast<std::size_t>(spec.num_gates));
  for (int i = 0; i < spec.num_gates; ++i) {
    // Spread gates over layers, guaranteeing each layer is non-empty.
    const int layer =
        i < depth ? i : static_cast<int>(rng.uniform(static_cast<std::uint64_t>(depth)));
    // Fanin count: unate buffers ~15%, else 2 + geometric tail capped at 4.
    int nf;
    if (rng.bernoulli(0.15)) {
      nf = 1;
    } else {
      nf = 2;
      while (nf < 4 && rng.bernoulli(0.25)) ++nf;
    }
    const CellType t = random_gate_type(rng, nf);
    std::string name = "g";
    name += std::to_string(i);
    const CellId g = nl.add_cell(name, t);
    // Candidate drivers: earlier-layer gates with locality bias, else
    // sequential sources (PIs / DFF outputs).
    std::vector<CellId> chosen;
    int dedupe_retries = 0;
    for (int k = 0; k < nf; ++k) {
      CellId drv = CellId::invalid();
      if (layer > 0 && rng.bernoulli(0.75)) {
        int src_layer = layer - 1;
        while (src_layer > 0 && rng.bernoulli(0.3)) --src_layer;
        const auto& pool = layers[static_cast<std::size_t>(src_layer)];
        if (!pool.empty()) {
          // Prefer gates that do not drive anything yet: keeps the fanout
          // distribution realistic and avoids a tail of dangling gates that
          // would have to be promoted to primary outputs.
          drv = pool[rng.uniform(pool.size())];
          for (int attempt = 0; attempt < 3 && !nl.fanouts(drv).empty();
               ++attempt)
            drv = pool[rng.uniform(pool.size())];
        }
      }
      if (!drv.valid()) {
        // Sequential source.
        const std::uint64_t total = pis.size() + dffs.size();
        const std::uint64_t pick = rng.uniform(total);
        drv = pick < pis.size() ? pis[pick]
                                : dffs[pick - pis.size()];
      }
      // Avoid duplicate fanins on the same gate (legal but pointless);
      // give up after a few retries when the candidate pool is tiny.
      if (std::find(chosen.begin(), chosen.end(), drv) != chosen.end()) {
        if (++dedupe_retries < 8) {
          --k;
          continue;
        }
      }
      dedupe_retries = 0;
      chosen.push_back(drv);
    }
    for (const CellId d : chosen) nl.connect(g, d);
    layers[static_cast<std::size_t>(layer)].push_back(g);
    gates.push_back(g);
  }

  // Connect each DFF's data input: usually a late-layer gate, occasionally
  // another DFF (shift-register chains), occasionally a PI.
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    CellId drv = CellId::invalid();
    if (!dffs.empty() && rng.bernoulli(spec.dff_chain_prob) && dffs.size() > 1) {
      // Chain from a *different* DFF.
      std::uint64_t j = rng.uniform(dffs.size() - 1);
      if (j >= i) ++j;
      drv = dffs[j];
    } else if (!gates.empty()) {
      // Bias toward deeper layers so retiming has room to move registers.
      int layer = depth - 1;
      while (layer > 0 && rng.bernoulli(0.35)) --layer;
      const auto& pool = layers[static_cast<std::size_t>(layer)];
      drv = pool.empty() ? gates[rng.uniform(gates.size())]
                         : pool[rng.uniform(pool.size())];
    } else {
      drv = pis[rng.uniform(pis.size())];
    }
    nl.connect(dffs[i], drv);
  }

  // Primary outputs: distinct drivers chosen from late layers / DFFs.
  std::vector<CellId> po_drivers;
  {
    std::vector<CellId> pool;
    for (int l = depth - 1; l >= 0 && pool.size() < 4 * static_cast<std::size_t>(spec.num_outputs); --l)
      pool.insert(pool.end(), layers[static_cast<std::size_t>(l)].begin(),
                  layers[static_cast<std::size_t>(l)].end());
    pool.insert(pool.end(), dffs.begin(), dffs.end());
    for (int i = 0; i < spec.num_outputs && !pool.empty(); ++i) {
      const std::uint64_t j = rng.uniform(pool.size());
      po_drivers.push_back(pool[j]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  // Absorb dangling gates (no fanout) so the netlist has no dead logic:
  // feed them into a variadic gate of a later layer where possible, and
  // only promote last-layer leftovers to extra primary outputs.
  std::vector<int> gate_layer(static_cast<std::size_t>(nl.num_cells()), -1);
  for (int l = 0; l < depth; ++l)
    for (const CellId g : layers[static_cast<std::size_t>(l)])
      gate_layer[g.index()] = l;
  for (const CellId g : gates) {
    if (!nl.fanouts(g).empty() ||
        std::find(po_drivers.begin(), po_drivers.end(), g) != po_drivers.end())
      continue;
    const int l = gate_layer[g.index()];
    CellId host = CellId::invalid();
    for (int attempt = 0; attempt < 12 && !host.valid(); ++attempt) {
      const CellId cand = gates[rng.uniform(gates.size())];
      if (gate_layer[cand.index()] > l &&
          cell_arity(nl.type(cand)).max < 0 && nl.fanins(cand).size() < 5)
        host = cand;
    }
    if (host.valid())
      nl.connect(host, g);
    else
      po_drivers.push_back(g);
  }
  for (std::size_t i = 0; i < po_drivers.size(); ++i) {
    const CellId po = nl.add_cell("po" + std::to_string(i), CellType::kOutput);
    nl.connect(po, po_drivers[i]);
  }

  const auto err = nl.validate();
  LAC_CHECK_MSG(!err, "generator produced invalid netlist: " << *err);
  return nl;
}

}  // namespace lac::netlist
