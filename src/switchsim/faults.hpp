// Fault-aware asynchronous control plane. The data plane no longer installs
// blacklist rules in lockstep with digest generation: digests enter a
// capacity-bounded channel stamped with the triggering packet's timestamp,
// and the controller applies them on an event clock — an install becomes
// visible at digest_ts + control_latency, so the pipeline keeps admitting
// packets of an already-classified malicious flow during the install window
// (tracked as FaultStats::leaked_packets). On top of the latency model sits
// a deterministic, splitmix64-seeded fault injector that can drop digests,
// delay them, fail individual installs (retried with capped exponential
// backoff, then dead-lettered), and crash the controller for configured
// windows; on restart the controller reconciles the blacklist from the
// flow-label registers still resident in the FlowStore (App. B.2 is the
// budget this channel lives under; §3.3.2 is why install churn matters).
//
// With every fault disabled and control_latency == 0 the observable pipeline
// behaviour is bit-identical to the old synchronous "digest -> install"
// model: a rule installed by packet i's digest has always only affected
// packets after i, and the event clock preserves exactly that order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/tables.hpp"

namespace iguard::switchsim {

/// Egress mirror of one benign flow's FL features (Fig. 1 step 12 — "FL
/// features from benign traffic may be used to update the whitelist rules
/// table"): the quantised whitelist key the data plane matched plus the raw
/// integer-finalised features, so the control plane can both stretch rules
/// (core/online_update.hpp) and retain rows for re-distillation
/// (core/model_swap.hpp). Mirrors ride the same control channel as digests
/// and are subject to the same latency, capacity, and fault programme.
struct BenignMirror {
  std::array<std::uint32_t, kSwitchFlFeatures> key{};
  std::array<double, kSwitchFlFeatures> features{};

  /// Wire size: 13 quantised 16-bit feature levels.
  static constexpr std::size_t kBytes = 2 * kSwitchFlFeatures;
};

/// Control-plane consumer of delivered benign mirrors (the whitelist-update
/// half of the model-swap loop). Callbacks arrive on the controller's event
/// clock, in delivery order.
class WhitelistUpdateSink {
 public:
  virtual ~WhitelistUpdateSink() = default;
  virtual void on_benign_mirror(const BenignMirror& m, double deliver_ts_s) = 0;
};

/// splitmix64 (Steele et al.) — tiny, seedable, bit-identical everywhere;
/// each fault decision type owns an independent stream so enabling one fault
/// never perturbs another's draw sequence.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Bernoulli(p) without floating-point accumulation error: compare one
  /// draw against p scaled to the full 64-bit range.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return static_cast<double>(next()) <
           p * static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  }

 private:
  std::uint64_t state_;
};

/// One controller outage: the control plane is unreachable in
/// [start_s, start_s + duration_s). Digests sent or delivered inside the
/// window are lost; at the window's end the controller restarts and runs a
/// recovery sweep over the FlowStore.
struct CrashWindow {
  double start_s = 0.0;
  double duration_s = 0.0;

  double end_s() const { return start_s + duration_s; }
  bool operator==(const CrashWindow&) const = default;
};

/// One offered-load burst at the ingest boundary: while ts is inside
/// [start_s, start_s + duration_s) every offered record is replicated up to
/// `multiplier`x (io/chaos.hpp applies it before the overload gate, so
/// bursts are what trip the shed policies in bench_ingest).
struct BurstWindow {
  double start_s = 0.0;
  double duration_s = 0.0;
  double multiplier = 2.0;  // offered-load scale inside the window, >= 1

  double end_s() const { return start_s + duration_s; }
  bool operator==(const BurstWindow&) const = default;
};

/// Largest per-window burst multiplier validate_config accepts. The mangler
/// turns the (product of overlapping windows') multiplier into a uint64
/// record copy count, so the bound keeps that cast defined and the record
/// amplification bounded; chaos.cpp additionally clamps the product.
inline constexpr double kMaxBurstMultiplier = 1e9;

/// Deterministic fault programme. Everything is off by default; a
/// default-constructed config is the perfect-channel model.
struct FaultConfig {
  std::uint64_t seed = 0x14A7u;
  double digest_loss_rate = 0.0;     // P(digest silently dropped in flight)
  double digest_delay_rate = 0.0;    // P(digest held back by digest_delay_s)
  double digest_delay_s = 0.0;       // extra in-flight delay when held back
  double install_failure_rate = 0.0; // P(one install attempt fails)
  std::vector<CrashWindow> crashes;  // must be sorted by start_s

  // Ingest-domain faults (DESIGN.md §4g): applied by io/chaos.hpp to
  // serialized records and record batches *before* the TraceReader, each
  // from its own independent stream. The control-plane programme above is
  // untouched by enabling any of these.
  double record_truncate_rate = 0.0;  // P(record cut short mid-field)
  double record_corrupt_rate = 0.0;   // P(one byte of the record flipped)
  double batch_duplicate_rate = 0.0;  // P(a record batch replayed twice)
  double batch_reorder_rate = 0.0;    // P(a batch swapped with its successor)
  std::vector<BurstWindow> bursts;    // offered-load multiplier windows

  /// Control-plane faults only (the lockstep-equivalence switch).
  bool any_enabled() const {
    return digest_loss_rate > 0.0 || digest_delay_rate > 0.0 ||
           install_failure_rate > 0.0 || !crashes.empty();
  }

  /// Ingest-domain faults only (the hardened-boundary chaos switch).
  bool ingest_any_enabled() const {
    return record_truncate_rate > 0.0 || record_corrupt_rate > 0.0 ||
           batch_duplicate_rate > 0.0 || batch_reorder_rate > 0.0 || !bursts.empty();
  }

  bool operator==(const FaultConfig&) const = default;
};

/// Structured configuration error: the offending struct + field, preserved
/// so callers (and tests) can assert on *which* invariant was violated
/// instead of pattern-matching a message.
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string structure, std::string field, const std::string& message)
      : std::invalid_argument(structure + "." + field + ": " + message),
        structure_(std::move(structure)),
        field_(std::move(field)) {}

  const std::string& structure() const { return structure_; }
  const std::string& field() const { return field_; }

 private:
  std::string structure_;
  std::string field_;
};

/// Empty string when `cfg` is well-formed, otherwise "field: problem" for
/// the first violated invariant (NaN/negative rates, negative latencies or
/// capacities, inverted backoff, malformed windows). Controller's
/// constructor throws ConfigError on a non-empty result, so a bad config
/// fails loudly at construction instead of silently misbehaving mid-replay.
std::string validate_config(const FaultConfig& cfg);

/// Seeded source of fault decisions, bit-identical across runs for a given
/// (seed, call sequence). Streams are independent per decision type.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg)
      : cfg_(cfg),
        drop_(cfg.seed ^ 0xD1E57D20Full),
        delay_(cfg.seed ^ 0x0DE1A7EDull),
        install_(cfg.seed ^ 0x1357A11Full),
        mirror_drop_(cfg.seed ^ 0x3AB1E0F5ull),
        mirror_delay_(cfg.seed ^ 0x7E1A9D02ull),
        truncate_(cfg.seed ^ 0x7C4A7E01ull),
        corrupt_(cfg.seed ^ 0xC0228477ull),
        batch_dup_(cfg.seed ^ 0xD4B11CA7ull),
        batch_reorder_(cfg.seed ^ 0x2E02DE25ull),
        chaos_value_(cfg.seed ^ 0x1A9E57EDull) {}

  bool drop_digest() { return drop_.chance(cfg_.digest_loss_rate); }
  bool delay_digest() { return delay_.chance(cfg_.digest_delay_rate); }
  bool fail_install() { return install_.chance(cfg_.install_failure_rate); }
  /// Benign mirrors share the digest loss/delay *rates* (same channel) but
  /// draw from their own streams, so enabling the mirror path never perturbs
  /// the digest fault sequence of an existing workload.
  bool drop_mirror() { return mirror_drop_.chance(cfg_.digest_loss_rate); }
  bool delay_mirror() { return mirror_delay_.chance(cfg_.digest_delay_rate); }

  // Ingest-domain decisions (io/chaos.hpp), one independent stream each so
  // enabling any ingest fault never perturbs the control-plane sequences.
  bool truncate_record() { return truncate_.chance(cfg_.record_truncate_rate); }
  bool corrupt_record() { return corrupt_.chance(cfg_.record_corrupt_rate); }
  bool duplicate_batch() { return batch_dup_.chance(cfg_.batch_duplicate_rate); }
  bool reorder_batch() { return batch_reorder_.chance(cfg_.batch_reorder_rate); }
  /// Raw value draws for the ingest mangler (cut positions, flipped bytes);
  /// a dedicated stream so position choices never consume decision draws.
  std::uint64_t chaos_value() { return chaos_value_.next(); }

  /// Offered-load multiplier at ts: the product of every burst window
  /// containing ts (1.0 outside every window). Multipliers below 1 are
  /// treated as 1 — bursts only ever amplify.
  double burst_multiplier_at(double ts_s) const {
    double m = 1.0;
    for (const auto& w : cfg_.bursts) {
      if (ts_s >= w.start_s && ts_s < w.end_s()) m *= std::max(w.multiplier, 1.0);
    }
    return m;
  }

  /// True while ts falls inside any configured crash window.
  bool down_at(double ts_s) const {
    for (const auto& w : cfg_.crashes) {
      if (ts_s >= w.start_s && ts_s < w.end_s()) return true;
      if (w.start_s > ts_s) break;  // windows sorted by start
    }
    return false;
  }

  /// Earliest time >= ts_s at which the controller is up, chaining through
  /// back-to-back crash windows (sorted by start, so one pass suffices).
  double up_after(double ts_s) const {
    double t = ts_s;
    for (const auto& w : cfg_.crashes) {
      if (t >= w.start_s && t < w.end_s()) t = w.end_s();
    }
    return t;
  }

  const FaultConfig& config() const { return cfg_; }

 private:
  FaultConfig cfg_;
  SplitMix64 drop_, delay_, install_;
  SplitMix64 mirror_drop_, mirror_delay_;
  SplitMix64 truncate_, corrupt_, batch_dup_, batch_reorder_, chaos_value_;
};

/// One digest as it entered the control channel, stamped with the
/// triggering packet's timestamp. The fleet simulator (fleet.hpp) taps
/// these at the channel mouth so a central controller can consume the same
/// event stream the local controller saw.
struct TimedDigest {
  Digest digest{};
  double ts = 0.0;
};

/// Control-channel + controller behaviour knobs. Defaults reproduce the old
/// lockstep model exactly (zero latency, unbounded channel, no faults).
struct ControlPlaneConfig {
  double control_latency_s = 0.0;   // digest_ts -> install visibility
  std::size_t channel_capacity = 0; // pending digests; 0 = unbounded
  std::size_t max_install_retries = 5;
  double retry_backoff_s = 0.001;      // first retry delay
  double retry_backoff_cap_s = 0.100;  // exponential backoff ceiling
  /// Observability cadence: when a metrics registry is attached, the channel
  /// backlog is sampled into a bounded time series every N digests (the
  /// event count, not wall time, so the series is deterministic).
  std::size_t backlog_sample_every = 8;
  std::size_t backlog_sample_capacity = 4096;
  /// Optional caller-owned tap: every digest is appended here at the channel
  /// mouth, before any loss/overflow/crash decision, so the captured stream
  /// is exactly what the data plane emitted. Must outlive the controller.
  std::vector<TimedDigest>* digest_tap = nullptr;
  FaultConfig faults;
};

/// Empty string when well-formed, otherwise the first violated invariant.
/// Checked (throwing ConfigError) by Controller's constructor.
std::string validate_config(const ControlPlaneConfig& cfg);

/// Degradation accounting for one run. Channel-side counters live in the
/// controller; leaked_packets is counted by the pipeline (it is the data
/// plane that admits the packet).
struct FaultStats {
  /// Digests at the channel mouth (mirror of Controller::digests_received(),
  /// kept here so SimStats-level conservation audits are self-contained).
  std::size_t digests_received = 0;
  /// First-attempt digest events that reached delivery while the controller
  /// was up (benign digests included). Conservation (tests/fault_audit.hpp):
  ///   digests_received == digests_delivered + injected_digest_drops
  ///                       + (channel_overflow_drops - mirror_overflow_drops)
  ///                       + digests_lost_to_crash
  std::size_t digests_delivered = 0;
  std::size_t channel_overflow_drops = 0;  // bounded channel was full
  std::size_t mirror_overflow_drops = 0;   // the mirror share of the above
  std::size_t injected_digest_drops = 0;   // FaultInjector losses
  std::size_t delayed_digests = 0;
  std::size_t backlog_hwm = 0;             // channel high-water mark
  std::size_t install_attempts = 0;
  std::size_t installs_applied = 0;        // successful non-recovery installs
  std::size_t install_failures = 0;        // failed attempts (pre-retry)
  std::size_t install_retries = 0;         // attempts re-scheduled
  std::size_t dead_letters = 0;            // installs abandoned after retries
  std::size_t crashes = 0;                 // restarts performed
  std::size_t digests_lost_to_crash = 0;   // first deliveries, mouth or due-time
  /// Scheduled retries whose due time fell inside a crash window — the
  /// install chain ends without an applied rule or a dead letter, counted
  /// separately so digests_lost_to_crash keeps its first-delivery meaning.
  std::size_t retry_installs_lost_to_crash = 0;
  std::size_t recovery_installs = 0;       // rules rebuilt from FlowStore labels
  /// Packets the data plane admitted (verdict 0) after their flow had
  /// already been classified malicious — detection happened, enforcement
  /// had not landed yet.
  std::size_t leaked_packets = 0;
  // Benign-mirror channel (whitelist-update path, core/model_swap.hpp).
  std::size_t mirrors_enqueued = 0;   // accepted into the channel
  std::size_t mirrors_delivered = 0;  // handed to the whitelist-update sink
  std::size_t mirrors_lost = 0;       // crash loss + injected loss + overflow
  std::size_t delayed_mirrors = 0;

  bool operator==(const FaultStats&) const = default;
};

/// Event-clocked, fault-aware controller. The data plane enqueues digests
/// with `on_digest(d, ts)`; `advance_to(now)` delivers everything due by
/// `now` in timestamp order, interleaved with crash-window restarts. The
/// legacy counters (digests/bytes/installs) keep their lockstep meaning:
/// digests and bytes count at the channel mouth, installs count applied
/// blacklist writes.
class Controller {
 public:
  /// `metrics` (optional, caller-owned) attaches digest/install counters, a
  /// simulated install-latency histogram, and the backlog time series under
  /// `<prefix>.*` — all event-clocked, hence deterministic (non-"timing.").
  explicit Controller(BlacklistTable& blacklist, ControlPlaneConfig cfg = {},
                      const FlowStore* store = nullptr,
                      obs::Registry* metrics = nullptr,
                      std::string_view metrics_prefix = "control");

  /// Data-plane side: submit one digest stamped with the triggering
  /// packet's timestamp. May drop (channel overflow, injected loss,
  /// controller down) — all counted.
  void on_digest(const Digest& d, double ts_s);

  /// Data-plane side: submit one benign egress mirror (Fig. 1 step 12).
  /// Shares the digest channel's latency, capacity, and crash windows but
  /// draws faults from independent streams; delivered mirrors are handed to
  /// the registered WhitelistUpdateSink on the event clock. Without a sink
  /// the mirror is still transported and counted (delivered-to-nobody).
  void on_benign_mirror(const BenignMirror& m, double ts_s);

  /// Register the control-plane consumer of delivered mirrors (caller-owned,
  /// may be null to detach).
  void set_update_sink(WhitelistUpdateSink* sink) { sink_ = sink; }

  /// True while ts falls inside a configured crash window.
  bool down_at(double ts_s) const { return injector_.down_at(ts_s); }
  /// Earliest time >= ts_s the controller is up (end of any crash chain).
  double up_after(double ts_s) const { return injector_.up_after(ts_s); }

  /// Deliver every queued event due at or before now_s, processing crash
  /// restarts (and their recovery sweeps) in time order along the way.
  void advance_to(double now_s);

  /// End-of-trace drain: deliver everything still in flight, including
  /// retries, and run any remaining restart recoveries.
  void flush();

  std::size_t digests_received() const { return digests_; }
  std::size_t bytes_received() const { return bytes_; }
  std::size_t rules_installed() const { return installs_; }
  std::size_t backlog() const { return channel_backlog_; }
  const FaultStats& fault_stats() const { return stats_; }
  const ControlPlaneConfig& config() const { return cfg_; }

 private:
  struct Event {
    Digest digest;
    BenignMirror mirror;
    bool is_mirror = false;
    double enqueue_ts = 0.0;
    double due_ts = 0.0;
    std::uint32_t attempt = 0;   // 0 = first delivery, >0 = install retry
    std::uint64_t seq = 0;       // FIFO tiebreak for equal due times
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.due_ts != b.due_ts ? a.due_ts > b.due_ts : a.seq > b.seq;
    }
  };

  /// End of the next crash window whose recovery has not run yet.
  double next_recovery_ts() const;
  void run_recovery(double ts_s);
  void deliver(const Event& e);
  double backoff_delay(std::uint32_t attempt) const;

  /// Inactive no-op handles unless a registry was attached.
  struct Obs {
    obs::Counter digests;
    obs::Counter installs;
    obs::Counter install_retries;
    obs::Counter dead_letters;
    obs::Counter digest_drops;       // overflow + injected + crash losses
    obs::Histogram install_latency;  // simulated seconds, digest -> applied
    obs::Series backlog;             // sampled every backlog_sample_every digests
  };

  BlacklistTable* blacklist_;
  ControlPlaneConfig cfg_;
  const FlowStore* store_;
  WhitelistUpdateSink* sink_ = nullptr;
  FaultInjector injector_;
  Obs obs_;
  std::priority_queue<Event, std::vector<Event>, Later> channel_;
  std::size_t channel_backlog_ = 0;  // attempt-0 events in flight
  std::size_t next_recovery_ = 0;    // index into cfg_.faults.crashes
  std::uint64_t seq_ = 0;
  double clock_ = 0.0;
  std::size_t digests_ = 0;
  std::size_t bytes_ = 0;
  std::size_t installs_ = 0;
  FaultStats stats_;
};

}  // namespace iguard::switchsim
