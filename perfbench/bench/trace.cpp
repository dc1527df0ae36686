#include "bench/trace.hpp"

#include <fstream>

namespace perfbench {

std::string_view layer_name(Layer l) {
  switch (l) {
    case Layer::kSource: return "source";
    case Layer::kFramer: return "framer";
    case Layer::kReader: return "reader";
    case Layer::kClamp: return "clamp";
    case Layer::kGate: return "gate";
    case Layer::kRingPush: return "ring.push";
    case Layer::kRingStall: return "ring.push_stall";
    case Layer::kRingPop: return "ring.pop";
    case Layer::kRingIdle: return "ring.pop_idle";
    case Layer::kSteer: return "steer";
    case Layer::kRed: return "pipeline.red";
    case Layer::kBrown: return "pipeline.brown";
    case Layer::kBlue: return "pipeline.blue";
    case Layer::kOrange: return "pipeline.orange";
    case Layer::kPurple: return "pipeline.purple";
    case Layer::kEpilogue: return "pipeline.epilogue";
    case Layer::kBench: return "bench";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t ThreadTrace::self_total_ns() const {
  std::int64_t s = 0;
  for (const std::int64_t v : self_ns_) s += v;
  return s;
}

double ThreadTrace::unaccounted_share() const {
  const std::int64_t wall = wall_ns();
  if (wall <= 0) return 0.0;
  return 1.0 - static_cast<double>(self_total_ns()) / static_cast<double>(wall);
}

bool write_spans(const std::string& path, const std::vector<const ThreadTrace*>& threads) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const ThreadTrace* t : threads) {
    for (const Span& s : t->spans()) {
      out << "{\"thread\":\"" << t->name() << "\",\"kind\":\""
          << (s.is_batch ? "batch" : "packet") << "\",\"layer\":\"" << layer_name(s.layer)
          << "\",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
