#include <gtest/gtest.h>

#include "bench89/suite.h"
#include "netlist/generator.h"
#include "planner/verify.h"

namespace lac::planner {
namespace {

PlannerConfig fast_config() {
  PlannerConfig cfg;
  cfg.num_blocks = 5;
  cfg.run.seed = 21;
  cfg.fp_opt.sa_moves_per_block = 150;
  return cfg;
}

netlist::Netlist circuit(std::uint64_t seed = 5) {
  netlist::GenSpec spec;
  spec.num_gates = 110;
  spec.num_dffs = 14;
  spec.seed = seed;
  return netlist::generate_netlist(spec);
}

TEST(VerifyPlan, FreshPlanVerifies) {
  const auto nl = circuit();
  const auto cfg = fast_config();
  InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, PlanOptions{}).front();
  const auto rep = verify_plan(res, cfg);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(VerifyPlan, SuiteCircuitVerifies) {
  const auto& entry = bench89::entry_by_name("y400");
  const auto nl = bench89::load(entry);
  PlannerConfig cfg = fast_config();
  cfg.num_blocks = entry.recommended_blocks;
  InterconnectPlanner planner(cfg);
  const auto res = planner.plan(nl, PlanOptions{}).front();
  EXPECT_TRUE(verify_plan(res, cfg).ok());
}

TEST(VerifyPlan, DetectsTamperedRetiming) {
  const auto nl = circuit();
  const auto cfg = fast_config();
  InterconnectPlanner planner(cfg);
  auto res = planner.plan(nl, PlanOptions{}).front();
  // Corrupt a label: either the retiming becomes illegal or the cached
  // area report no longer matches the recomputation.
  res.lac.r[res.lac.r.size() / 2] += 1;
  const auto rep = verify_plan(res, cfg);
  EXPECT_FALSE(rep.ok());
}

TEST(VerifyPlan, DetectsTamperedReport) {
  const auto nl = circuit();
  const auto cfg = fast_config();
  InterconnectPlanner planner(cfg);
  auto res = planner.plan(nl, PlanOptions{}).front();
  res.min_area.report.n_f += 1;
  const auto rep = verify_plan(res, cfg);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("N_F mismatch"), std::string::npos);
}

TEST(VerifyPlan, DetectsTamperedLandmarks) {
  const auto nl = circuit();
  const auto cfg = fast_config();
  InterconnectPlanner planner(cfg);
  auto res = planner.plan(nl, PlanOptions{}).front();
  res.t_clk_ps = res.t_min_ps - 50.0;
  EXPECT_FALSE(verify_plan(res, cfg).ok());
}

TEST(VerifyPlan, ReportFormats) {
  VerifyReport ok;
  EXPECT_NE(ok.to_string().find("verified"), std::string::npos);
  VerifyReport bad;
  bad.issues.push_back("something");
  EXPECT_NE(bad.to_string().find("something"), std::string::npos);
}

}  // namespace
}  // namespace lac::planner
