#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/bench_io.h"
#include "netlist/generator.h"

namespace lac::netlist {
namespace {

TEST(Generator, Deterministic) {
  GenSpec spec;
  spec.seed = 42;
  const auto a = generate_netlist(spec);
  const auto b = generate_netlist(spec);
  EXPECT_EQ(write_bench(a), write_bench(b));
}

TEST(Generator, DifferentSeedsDiffer) {
  GenSpec spec;
  spec.seed = 1;
  const auto a = generate_netlist(spec);
  spec.seed = 2;
  const auto b = generate_netlist(spec);
  EXPECT_NE(write_bench(a), write_bench(b));
}

TEST(Generator, ExactGateAndDffCounts) {
  GenSpec spec;
  spec.num_gates = 137;
  spec.num_dffs = 17;
  spec.num_inputs = 9;
  const auto nl = generate_netlist(spec);
  EXPECT_EQ(nl.num_gates(), 137);
  EXPECT_EQ(nl.count(CellType::kDff), 17);
  EXPECT_EQ(nl.count(CellType::kInput), 9);
}

TEST(Generator, NoDeadGates) {
  GenSpec spec;
  spec.num_gates = 200;
  spec.seed = 5;
  const auto nl = generate_netlist(spec);
  for (const auto c : nl.cells())
    if (is_combinational(nl.type(c))) {
      EXPECT_FALSE(nl.fanouts(c).empty()) << nl.cell_name(c);
    }
}

TEST(Generator, OutputCountNearSpec) {
  GenSpec spec;
  spec.num_gates = 300;
  spec.num_outputs = 20;
  spec.seed = 11;
  const auto nl = generate_netlist(spec);
  // Dangling-gate promotion may add a few extra POs but not explode.
  EXPECT_GE(nl.count(CellType::kOutput), 20);
  EXPECT_LE(nl.count(CellType::kOutput), 20 + spec.num_gates / 10);
}

TEST(Generator, RoundTripsThroughBench) {
  GenSpec spec;
  spec.num_gates = 80;
  spec.num_dffs = 12;
  const auto nl = generate_netlist(spec);
  const auto nl2 = parse_bench(write_bench(nl), nl.name());
  EXPECT_EQ(nl.num_cells(), nl2.num_cells());
  EXPECT_EQ(nl.num_gates(), nl2.num_gates());
}

TEST(Generator, ZeroDffsLegal) {
  GenSpec spec;
  spec.num_dffs = 0;
  spec.num_gates = 30;
  const auto nl = generate_netlist(spec);
  EXPECT_EQ(nl.count(CellType::kDff), 0);
  EXPECT_FALSE(nl.validate().has_value());
}

// Property sweep: every generated circuit across a size/seed grid is a
// legal sequential netlist with the requested core counts.
// gtest names each instance of this sweep after the raw bytes of its
// parameter, so the struct must have no padding: uninitialised padding gave
// the instances different names on every test discovery. `name_bytes`
// fills the old padding slot with fixed values, the bytes the names were
// first recorded with, so every instance keeps its registered name.
struct GenParam {
  int gates;
  int dffs;
  int depth;
  std::uint32_t name_bytes;
  std::uint64_t seed;
};
static_assert(sizeof(GenParam) == 24, "GenParam must stay padding-free");

class GeneratorSweep : public ::testing::TestWithParam<GenParam> {};

TEST_P(GeneratorSweep, ProducesLegalNetlist) {
  const auto p = GetParam();
  GenSpec spec;
  spec.num_gates = p.gates;
  spec.num_dffs = p.dffs;
  spec.depth = p.depth;
  spec.seed = p.seed;
  spec.num_inputs = 4;
  spec.num_outputs = 4;
  const auto nl = generate_netlist(spec);
  EXPECT_FALSE(nl.validate().has_value());
  EXPECT_EQ(nl.num_gates(), p.gates);
  EXPECT_EQ(nl.count(CellType::kDff), p.dffs);
  // Every DFF has exactly one fanin.
  for (const auto c : nl.cells_of_type(CellType::kDff))
    EXPECT_EQ(nl.fanins(c).size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorSweep,
    ::testing::Values(GenParam{10, 2, 3, 0, 1}, GenParam{10, 2, 3, 0x6574, 2},
                      GenParam{50, 0, 5, 0, 3}, GenParam{50, 10, 5, 0x7265, 4},
                      GenParam{120, 15, 9, 0, 5},
                      GenParam{120, 15, 20, 0x3B03, 6},
                      GenParam{400, 40, 12, 0, 7}, GenParam{400, 5, 30, 0, 8},
                      GenParam{1, 1, 1, 0, 9}, GenParam{700, 70, 25, 0, 10}));

}  // namespace
}  // namespace lac::netlist
