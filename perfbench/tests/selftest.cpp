// Attribution self-check as a stand-alone test: deploy the served model,
// then run bench/selfcheck.hpp's busy-wait and reconciliation checks.
//
//   .bench_build/perfbench_selftest [data_dir]   # exit 0 = pass
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/model.hpp"
#include "bench/selfcheck.hpp"

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".bench_build/perfbench-data";
  std::filesystem::create_directories(dir);
  const auto model = perfbench::deploy_model();
  const std::string err = perfbench::attribution_selfcheck(*model, 7, dir);
  if (!err.empty()) {
    std::printf("FAIL attribution self-check: %s\n", err.c_str());
    return 1;
  }
  std::printf("PASS attribution self-check\n");
  return 0;
}
