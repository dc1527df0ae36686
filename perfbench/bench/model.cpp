#include "bench/model.hpp"

#include "bench/trace.hpp"

namespace perfbench {

iguard::harness::TestbedLabConfig lab_config() {
  iguard::harness::TestbedLabConfig cfg;
  cfg.benign_train_flows = 1200;
  cfg.benign_val_flows = 300;
  cfg.benign_test_flows = 50;  // the lab's own replay trace is not served
  cfg.attack_flows = 80;
  cfg.scale_grid = {1.1};
  cfg.teacher.base.epochs = 25;
  cfg.iforest_grid = {{.num_trees = 5, .subsample = 256, .contamination = 0.05}};
  cfg.seed = 2024;
  return cfg;
}

std::unique_ptr<ServedModel> deploy_model() {
  auto m = std::make_unique<ServedModel>();
  const std::int64_t t0 = now_ns();
  m->lab = std::make_unique<iguard::harness::TestbedLab>(lab_config());
  m->deployment = m->lab->deploy_attack(iguard::traffic::AttackType::kMirai);
  const std::int64_t t1 = now_ns();
  m->model = m->deployment.iguard_model();
  m->fl_compiled = iguard::core::CompiledVoteWhitelist(*m->model.fl_tables);
  m->model.fl_compiled = &m->fl_compiled;
  if (m->model.pl_tables != nullptr) {
    m->pl_compiled = iguard::core::CompiledVoteWhitelist(*m->model.pl_tables);
    m->model.pl_compiled = &m->pl_compiled;
  }
  const std::int64_t t2 = now_ns();
  m->train_s = static_cast<double>(t1 - t0) * 1e-9;
  m->compile_s = static_cast<double>(t2 - t1) * 1e-9;
  return m;
}

}  // namespace perfbench
