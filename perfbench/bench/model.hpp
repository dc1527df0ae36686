// Model deployment for the benchmark: train with harness::TestbedLab, select
// and compile the iGuard rules, and hand the result to the daemon as a
// switchsim::DeployedModel with shared pre-compiled match engines.
#pragma once

#include <memory>

#include "core/whitelist.hpp"
#include "harness/testbed_lab.hpp"
#include "switchsim/pipeline.hpp"

namespace perfbench {

/// Owns everything a DeployedModel borrows; not movable once built, since
/// the DeployedModel points into it.
struct ServedModel {
  std::unique_ptr<iguard::harness::TestbedLab> lab;
  iguard::harness::Deployment deployment;
  iguard::core::CompiledVoteWhitelist fl_compiled, pl_compiled;
  iguard::switchsim::DeployedModel model;

  double train_s = 0.0;    // TestbedLab training + reward-selected deployment
  double compile_s = 0.0;  // interval-bitmap engines for both whitelists

  ServedModel() = default;
  ServedModel(const ServedModel&) = delete;
  ServedModel& operator=(const ServedModel&) = delete;
};

/// The lab configuration every workload serves (fixed, seed included, so
/// set-up cost is a property of the code, not of the workload seed).
iguard::harness::TestbedLabConfig lab_config();

/// Train, deploy and compile. Deterministic.
std::unique_ptr<ServedModel> deploy_model();

}  // namespace perfbench
