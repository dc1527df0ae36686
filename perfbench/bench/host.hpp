// Host and build fingerprint attached to every result, so each number says
// which machine and which build produced it.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: cpu_model, nproc, compiler, build_type, commit.
std::string host_fingerprint_json(const std::string& commit);

}  // namespace perfbench
