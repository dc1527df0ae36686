#include "bench/host.hpp"

#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string host_fingerprint_json(const std::string& commit) {
  return "{\"cpu_model\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(PERFBENCH_CXX) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_string(commit) + "}";
}

}  // namespace perfbench
