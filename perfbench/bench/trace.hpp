// Span and lap tracing for the benchmark's traced run. Everything here lives
// in the benchmark, around calls into the libraries' public functions; the
// libraries themselves are not instrumented.
//
// Each serving thread owns one ThreadTrace. It runs a lap clock: the thread
// calls lap(layer) right after a call into that layer returns, and the time
// since the previous lap is charged to the layer as self time. Laps are
// contiguous, so a thread's self times sum to the span from begin() to the
// last lap; anything the loop does outside a lap (thread start, a missing
// lap before end()) shows up as unaccounted time against the thread's wall
// time, which end() measures independently.
//
// Spans (one per producer batch, one per 1-in-K sampled packet, keyed by
// the packet's sequence number and linked to the batch that carried it) are
// kept in memory and written out once the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spin until at least `ns` nanoseconds have passed and return the time
/// actually spent, which preemption can stretch (the self-check's delay;
/// never used on a measured path).
inline std::int64_t busy_wait_ns(std::int64_t ns) {
  const std::int64_t start = now_ns();
  std::int64_t t = start;
  while (t - start < ns) t = now_ns();
  return t - start;
}

enum class Layer : std::uint8_t {
  // producer thread
  kSource = 0,  // FileTail::read_some
  kFramer,      // RecordFramer::feed / take_batch / take_tail
  kReader,      // TraceReader::read_buffer + per-batch accounting
  kClamp,       // cross-batch timestamp clamp
  kGate,        // OverloadGate::offer / flush
  kRingPush,    // SpscRing::try_push (successful)
  kRingStall,   // spinning on a full ring
  // consumer thread
  kRingPop,     // SpscRing::try_pop (successful)
  kRingIdle,    // spinning on an empty ring
  kSteer,       // switchsim::shard_of
  kRed,         // Pipeline::process, attributed by the SimStats path delta
  kBrown,
  kBlue,
  kOrange,
  kPurple,
  kEpilogue,    // Pipeline::finish_stream
  kBench,       // the benchmark's own bookkeeping inside the traced loop
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

std::string_view layer_name(Layer l);

struct Span {
  std::uint64_t id = 0;      // batch number, or packet sequence number
  std::uint64_t parent = 0;  // packet spans: the batch that carried it
  Layer layer = Layer::kSource;
  bool is_batch = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class ThreadTrace {
 public:
  explicit ThreadTrace(std::string name) : name_(std::move(name)) {}

  void begin() {
    wall_start_ = now_ns();
    last_ = wall_start_;
  }
  /// Charge the time since the previous lap to `l`; returns the lap's end.
  std::int64_t lap(Layer l) {
    const std::int64_t t = now_ns();
    const auto i = static_cast<std::size_t>(l);
    self_ns_[i] += t - last_;
    last_ = t;
    return t;
  }
  /// Start of the lap currently running (end of the previous one).
  std::int64_t last() const { return last_; }
  void end() { wall_end_ = now_ns(); }

  void span(const Span& s) { spans_.push_back(s); }

  const std::string& name() const { return name_; }
  std::int64_t self_ns(Layer l) const { return self_ns_[static_cast<std::size_t>(l)]; }
  std::int64_t wall_ns() const { return wall_end_ - wall_start_; }
  std::int64_t self_total_ns() const;
  /// 1 - (sum of self times) / wall time.
  double unaccounted_share() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  std::int64_t wall_start_ = 0, wall_end_ = 0, last_ = 0;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::vector<Span> spans_;
};

/// Write every span of the given threads as JSON lines (one span a line).
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const ThreadTrace*>& threads);

}  // namespace perfbench
