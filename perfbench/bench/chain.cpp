#include "bench/chain.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench/alloc_probe.hpp"
#include "io/ingest.hpp"
#include "io/overload.hpp"
#include "io/spsc_ring.hpp"
#include "switchsim/replay.hpp"

namespace perfbench {

namespace daemon = iguard::daemon;
namespace io = iguard::io;
namespace sim = iguard::switchsim;
using iguard::traffic::Packet;

daemon::DaemonConfig daemon_config(const Scenario& sc, const Workload& w,
                                   const std::string& source_path, const ServedModel& model) {
  daemon::DaemonConfig cfg;
  cfg.source.kind = daemon::SourceConfig::Kind::kFile;
  cfg.source.path = source_path;
  cfg.source.loops = 1;
  cfg.shards = sc.shards;
  const auto& lab = model.lab->config();
  cfg.pipeline = lab.pipe;
  cfg.pipeline.packet_threshold_n = lab.packet_threshold_n;
  cfg.pipeline.idle_timeout_delta = lab.idle_timeout_delta;
  if (sc.swap) {
    // Drift is the only publish trigger, so every publish is a rebuild the
    // workload's benign drift forced.
    cfg.pipeline.swap.enabled = true;
    cfg.pipeline.swap.publish_after_extensions = 0;
    cfg.pipeline.swap.drift.enabled = true;
    cfg.pipeline.swap.drift.window = 64;
    cfg.pipeline.swap.drift.baseline_windows = 2;
  }
  if (sc.gate) {
    cfg.overload.enabled = true;
    cfg.overload.policy = io::ShedPolicy::kFlowHash;
    cfg.overload.drain_rate_pps = sc.drain_fraction * w.offered_pps;
  }
  return cfg;
}

// --- scrape endpoint -----------------------------------------------------------

namespace {

/// One HTTP/1.0 GET over a fresh loopback connection. True when the status
/// is 200 and the body is non-empty.
bool http_get(std::uint16_t port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  if (ok) {
    char req[64];
    const int len = std::snprintf(req, sizeof(req), "GET %s HTTP/1.0\r\n\r\n", path);
    ok = ::send(fd, req, static_cast<std::size_t>(len), MSG_NOSIGNAL) == len;
  }
  std::string resp;
  if (ok) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      resp.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  if (!ok || resp.rfind("HTTP/1.0 200", 0) != 0) return false;
  const std::size_t body = resp.find("\r\n\r\n");
  return body != std::string::npos && body + 4 < resp.size();
}

}  // namespace


std::string ScrapeEndpoint::start() {
  std::string err = server_.start(0, [this](const std::string& path) { return handle(path); });
  // One request up front, so the handler thread has opted out of the
  // allocation count before any measured run.
  if (err.empty() && !http_get(server_.port(), "/healthz")) err = "GET /healthz failed";
  return err;
}

void ScrapeEndpoint::bind(Render metrics, Render alerts) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_ = std::move(metrics);
  alerts_ = std::move(alerts);
}

void ScrapeEndpoint::unbind() {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_ = nullptr;
  alerts_ = nullptr;
}

std::vector<double> ScrapeEndpoint::render_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return render_ms_;
}

std::vector<double> ScrapeEndpoint::exposition_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

daemon::HttpResponse ScrapeEndpoint::handle(const std::string& path) {
  // The handler thread serves only the scraper; keep its allocations out of
  // the serving threads' count.
  exclude_this_thread_from_alloc_count();
  daemon::HttpResponse r;
  // Rendering runs under the lock so unbind() cannot retire the target
  // mid-render; the serving threads never take this lock.
  const std::lock_guard<std::mutex> lock(mu_);
  if (path == "/metrics" && metrics_) {
    const std::int64_t t0 = now_ns();
    r.body = metrics_();
    render_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    bytes_.push_back(static_cast<double>(r.body.size()));
  } else if (path == "/alerts" && alerts_) {
    r.body = alerts_();
  } else if (path == "/healthz") {
    r.body = "ok\n";
  } else {
    r.status = 404;
    r.body = "not found\n";
  }
  return r;
}

// --- scraper -------------------------------------------------------------------


Scraper::Scraper(std::uint16_t port, std::int64_t period_ns, std::size_t alerts_every,
                 ScrapeSamples& out)
    : port_(port), period_ns_(period_ns), alerts_every_(alerts_every), out_(&out) {
  thread_ = std::thread([this] { loop(); });
}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void Scraper::loop() {
  exclude_this_thread_from_alloc_count();
  const std::int64_t start = now_ns();
  for (std::uint64_t tick = 0;; ++tick) {
    const std::int64_t due = start + static_cast<std::int64_t>(tick) * period_ns_;
    while (now_ns() < due) {
      if (stop_.load(std::memory_order_relaxed)) return;
      const std::int64_t left = due - now_ns();
      if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::int64_t>(left, 1000000)));
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::int64_t sent = now_ns();
    const bool ok = http_get(port_, "/metrics");
    const std::int64_t done = now_ns();
    out_->latency_ms.push_back(static_cast<double>(done - due) * 1e-6);
    out_->lateness_ms.push_back(static_cast<double>(sent - due) * 1e-6);
    ++out_->requests;
    if (!ok) ++out_->failures;
    if (alerts_every_ > 0 && tick % alerts_every_ == alerts_every_ - 1) {
      const std::int64_t a_sent = now_ns();
      const bool a_ok = http_get(port_, "/alerts");
      out_->lateness_ms.push_back(static_cast<double>(a_sent - due) * 1e-6);
      ++out_->requests;
      if (!a_ok) ++out_->failures;
    }
  }
}

// --- untraced daemon -------------------------------------------------------------

namespace {

/// Resident set size of this process, MB.
double rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace

DaemonRep run_daemon(const daemon::DaemonConfig& base, const ServedModel& model,
                     ScrapeEndpoint* endpoint, std::int64_t scrape_period_ns,
                     std::size_t alerts_every, ScrapeSamples* scrapes) {
  // Return freed heap to the OS first, so the growth below is what this
  // daemon allocates and touches: its preallocated state plus whatever
  // serving adds.
  malloc_trim(0);
  DaemonRep rep;
  const double rss0 = rss_mb();
  iguard::obs::Registry registry;
  daemon::DaemonConfig cfg = base;
  cfg.metrics = &registry;
  daemon::Daemon d(cfg, model.model);
  if (endpoint != nullptr) {
    endpoint->bind([&d] { return d.metrics_text(); }, [&d] { return d.alerts().render(); });
  }
  std::unique_ptr<Scraper> scraper;
  if (endpoint != nullptr && scrapes != nullptr) {
    scraper = std::make_unique<Scraper>(endpoint->port(), scrape_period_ns, alerts_every,
                                        *scrapes);
  }
  const std::uint64_t a0 = counted_allocs();
  const std::int64_t t0 = now_ns();
  // Serve from a fresh thread, as iguardd does, so each run gets its own
  // thread placement instead of inheriting the long-lived main thread's.
  std::thread server([&d] { d.run(); });
  server.join();
  const std::int64_t t1 = now_ns();
  rep.allocs = counted_allocs() - a0;
  rep.rss_growth_mb = rss_mb() - rss0;
  rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (scraper) scraper->stop();
  if (endpoint != nullptr) endpoint->unbind();
  rep.stats = d.stats();
  rep.audit = daemon::audit_daemon_conservation(rep.stats);
  return rep;
}

// --- traced chain ----------------------------------------------------------------

namespace {

/// 1 in kSampleEvery packets gets a span and a ring sojourn sample.
constexpr std::uint64_t kSampleEvery = 64;

struct PushSample {
  std::int64_t push_ns = 0;
  std::uint64_t batch = 0;
};

Layer path_layer(std::size_t path) {
  switch (static_cast<sim::Path>(path)) {
    case sim::Path::kRed: return Layer::kRed;
    case sim::Path::kBrown: return Layer::kBrown;
    case sim::Path::kBlue: return Layer::kBlue;
    case sim::Path::kOrange: return Layer::kOrange;
    default: return Layer::kPurple;
  }
}

/// Producer half: what Daemon::pump_once/ingest_batch/finish_producer do for
/// a single-pass file source, with a lap after every library call.
class Producer {
 public:
  Producer(const daemon::DaemonConfig& cfg, iguard::obs::Registry* reg,
           io::SpscRing<Packet>& ring, io::SpscRing<PushSample>& samples,
           const ChainOptions& opt, daemon::DaemonStats& stats, ThreadTrace& tr)
      : cfg_(cfg),
        ring_(ring),
        samples_(samples),
        opt_(opt),
        stats_(stats),
        tr_(tr),
        framer_(cfg.reader.limits.max_record_bytes),
        reader_([&] {
          io::TraceReaderConfig rc = cfg.reader;
          rc.metrics = reg;
          rc.metrics_prefix = cfg.metrics_prefix + ".ingest";
          return rc;
        }()),
        gate_(cfg.overload),
        quarantine_(cfg.reader.limits.quarantine_capacity,
                    cfg.reader.limits.quarantine_snippet_bytes) {
    if (!file_.open(cfg.source.path)) throw std::runtime_error("chain source: " + file_.error());
    admit_.reserve(cfg.overload.queue_capacity + 1024);
    io_buf_.reserve(cfg.source.chunk_bytes);
  }

  void run() {
    tr_.begin();
    for (;;) {
      const std::size_t n = file_.read_some(io_buf_, cfg_.source.chunk_bytes);
      tr_.lap(Layer::kSource);
      if (n == 0) break;
      framer_.feed(io_buf_);
      io_buf_.clear();
      tr_.lap(Layer::kFramer);
      while (framer_.take_batch(batch_buf_, cfg_.max_batch_records) > 0) {
        tr_.lap(Layer::kFramer);
        ingest_batch();
      }
      tr_.lap(Layer::kFramer);
      if (framer_.fatal()) {
        if (framer_.take_tail(batch_buf_) > 0) {
          tr_.lap(Layer::kFramer);
          ingest_batch();
        }
        if (stats_.container_ok) {
          stats_.container_ok = false;
          stats_.container_error = "unframeable stream: record length over limit";
        }
        break;
      }
    }
    if (!framer_.fatal() && framer_.take_tail(batch_buf_) > 0) {
      tr_.lap(Layer::kFramer);
      ingest_batch();
    }
    ++stats_.loops_completed;
    tr_.lap(Layer::kFramer);
    gate_.flush(admit_);
    tr_.lap(Layer::kGate);
    push_admitted();
    ring_.close();
    stats_.gate = gate_.stats();
    tr_.lap(Layer::kRingPush);
    tr_.end();
  }

  /// Self-check busy-wait time actually spent (ChainOptions::gate_delay_ns).
  std::int64_t injected_ns() const { return injected_ns_; }

 private:
  void ingest_batch() {
    const std::uint64_t batch = ++stats_.batches;
    const std::int64_t batch_start = tr_.last();
    io::IngestResult r = reader_.read_buffer(batch_buf_);
    tr_.lap(Layer::kReader);
    batch_buf_.clear();
    stats_.ingest.offered += r.stats.offered;
    stats_.ingest.accepted += r.stats.accepted;
    stats_.ingest.quarantined += r.stats.quarantined;
    for (std::size_t i = 0; i < io::kIngestCategories; ++i) {
      stats_.ingest.by_category[i] += r.stats.by_category[i];
    }
    stats_.ingest.timestamps_clamped += r.stats.timestamps_clamped;
    for (std::size_t i = 0; i < r.quarantine.size(); ++i) {
      const io::IngestError& e = r.quarantine[i];
      quarantine_.push(e.category, e.record_index, e.detail, e.snippet);
    }
    if (!r.container_ok && stats_.container_ok) {
      stats_.container_ok = false;
      stats_.container_error = r.container_error;
    }
    tr_.lap(Layer::kReader);

    // Stream-level monotone clamp (the daemon folds it into offer_packet;
    // it depends only on the preceding stamps, so a separate pass is exact).
    for (Packet& p : r.trace.packets) {
      if (p.ts < producer_ts_) {
        p.ts = producer_ts_;
        ++stats_.cross_batch_clamped;
      } else {
        producer_ts_ = p.ts;
      }
    }
    tr_.lap(Layer::kClamp);

    if (opt_.gate_delay_ns > 0) {
      for (const Packet& p : r.trace.packets) {
        gate_.offer(p, admit_);
        injected_ns_ += busy_wait_ns(opt_.gate_delay_ns);
      }
    } else {
      for (const Packet& p : r.trace.packets) gate_.offer(p, admit_);
    }
    tr_.lap(Layer::kGate);

    push_admitted(batch);
    tr_.span({batch, 0, Layer::kReader, true, batch_start, tr_.last()});
  }

  void push_admitted(std::uint64_t batch = 0) {
    for (const Packet& p : admit_) {
      if (!ring_.try_push(p)) {
        tr_.lap(Layer::kRingPush);
        do {
          std::this_thread::yield();
        } while (!ring_.try_push(p));
        tr_.lap(Layer::kRingStall);
      }
      if (stats_.pushed % kSampleEvery == 0) {
        tr_.lap(Layer::kRingPush);
        while (!samples_.try_push({now_ns(), batch})) std::this_thread::yield();
        tr_.lap(Layer::kBench);
      }
      ++stats_.pushed;
    }
    admit_.clear();
    tr_.lap(Layer::kRingPush);
  }

  const daemon::DaemonConfig& cfg_;
  io::SpscRing<Packet>& ring_;
  io::SpscRing<PushSample>& samples_;
  const ChainOptions& opt_;
  daemon::DaemonStats& stats_;
  ThreadTrace& tr_;
  daemon::FileTail file_;
  daemon::RecordFramer framer_;
  io::TraceReader reader_;
  io::OverloadGate gate_;
  io::QuarantineRing quarantine_;
  std::string io_buf_, batch_buf_;
  std::vector<Packet> admit_;
  double producer_ts_ = 0.0;
  std::int64_t injected_ns_ = 0;  // busy-wait time spent in the gate wrapper
};

}  // namespace

ChainRep run_chain(const daemon::DaemonConfig& base, const ServedModel& model,
                   const ChainOptions& opt) {
  iguard::obs::Registry registry;
  daemon::DaemonConfig cfg = base;
  cfg.metrics = &registry;
  cfg.pipeline.record_labels = false;

  ChainRep rep;
  rep.producer = std::make_unique<ThreadTrace>("producer");
  rep.consumer = std::make_unique<ThreadTrace>("consumer");
  ThreadTrace& tr = *rep.consumer;

  std::vector<std::unique_ptr<sim::Pipeline>> pipelines;
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    sim::PipelineConfig pc = cfg.pipeline;
    pc.metrics = &registry;
    pc.metrics_prefix = cfg.metrics_prefix + ".shard" + std::to_string(k);
    pipelines.push_back(std::make_unique<sim::Pipeline>(pc, model.model));
  }
  std::vector<sim::SimStats> shard_stats(cfg.shards);
  std::vector<std::uint64_t> swap_events(cfg.shards, 0);

  io::SpscRing<Packet> ring(cfg.ring_capacity);
  // In-flight samples are bounded by the ring's capacity over K.
  io::SpscRing<PushSample> samples(ring.capacity() / kSampleEvery + 4);
  daemon::DaemonStats& stats = rep.stats;
  Producer producer(cfg, &registry, ring, samples, opt, stats, *rep.producer);

  if (opt.endpoint != nullptr) {
    opt.endpoint->bind([&registry] { return iguard::obs::to_prometheus(registry.snapshot()); },
                       nullptr);
  }
  std::unique_ptr<Scraper> scraper;
  if (opt.endpoint != nullptr && opt.scrapes != nullptr) {
    scraper = std::make_unique<Scraper>(opt.endpoint->port(), opt.scrape_period_ns, 0,
                                        *opt.scrapes);
  }
  const std::size_t expect = ring.capacity() * 4;
  rep.sojourn_us.reserve(expect);
  rep.depth.reserve(expect);

  // Both halves run on fresh threads, like run_daemon()'s serving threads.
  const auto consume = [&] {
    tr.begin();
    Packet p;
    for (;;) {
      if (!ring.try_pop(p)) {
        if (!ring.closed()) {
          std::this_thread::yield();
          tr.lap(Layer::kRingIdle);
          continue;
        }
        // close() is stored after the final push: one more pop decides.
        if (!ring.try_pop(p)) break;
      }
      const std::uint64_t seq = stats.popped++;
      tr.lap(Layer::kRingPop);
      if (opt.relabel != nullptr) p.malicious = opt.relabel->label_of(p.ft, p.malicious);
      const std::size_t k =
          cfg.shards == 1 ? 0 : sim::shard_of(p.ft, cfg.shards, cfg.shard_seed);
      const std::int64_t steer_end = tr.lap(Layer::kSteer);
      const auto before = shard_stats[k].path_count;
      pipelines[k]->process(p, shard_stats[k]);
      std::size_t path = 0;
      while (path < 5 && shard_stats[k].path_count[path] == before[path]) ++path;
      const Layer layer = path_layer(path);
      const std::int64_t end = tr.lap(layer);
      if (const sim::SwapLoop* loop = pipelines[k]->swap_loop(); loop != nullptr) {
        const sim::SwapStats ss = loop->stats();
        const std::uint64_t events = ss.rebuilds + ss.publishes;
        if (events != swap_events[k]) {
          swap_events[k] = events;
          rep.swap_stall_ms_max =
              std::max(rep.swap_stall_ms_max, static_cast<double>(end - steer_end) * 1e-6);
        }
        tr.lap(Layer::kBench);
      }
      if (seq % kSampleEvery == 0) {
        PushSample s;
        while (!samples.try_pop(s)) std::this_thread::yield();
        rep.sojourn_us.push_back(static_cast<double>(steer_end - s.push_ns) * 1e-3);
        rep.depth.push_back(static_cast<double>(ring.size_approx()));
        tr.span({seq, s.batch, layer, false, steer_end, end});
        tr.lap(Layer::kBench);
      }
    }
    for (std::size_t k = 0; k < cfg.shards; ++k) pipelines[k]->finish_stream(shard_stats[k]);
    tr.lap(Layer::kEpilogue);
    tr.end();
  };
  const std::int64_t t0 = now_ns();
  std::thread producer_thread([&producer] { producer.run(); });
  std::thread consumer_thread(consume);
  consumer_thread.join();
  producer_thread.join();
  rep.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  rep.gate_delay_ns = producer.injected_ns();

  if (scraper) scraper->stop();
  if (opt.endpoint != nullptr) opt.endpoint->unbind();

  for (const auto& pl : pipelines) rep.blacklist_evictions += pl->blacklist().evictions();
  rep.per_shard = shard_stats;
  stats.sim = sim::merge_stats(shard_stats);
  return rep;
}

std::string compare_stats(const daemon::DaemonStats& d, const daemon::DaemonStats& c,
                          bool labels_differ) {
  if (d.ingest != c.ingest) return "ingest stats differ";
  if (d.cross_batch_clamped != c.cross_batch_clamped) return "cross-batch clamp count differs";
  if (d.gate != c.gate) return "gate stats differ";
  if (d.pushed != c.pushed) return "ring pushed differs";
  if (d.popped != c.popped) return "ring popped differs";
  if (d.batches != c.batches) return "reader batch count differs";
  if (d.container_ok != c.container_ok) return "container verdict differs";
  sim::SimStats ds = d.sim, cs = c.sim;
  if (labels_differ) {
    // The daemon saw every packet as benign: its fp + tp is the drop count.
    if (ds.tp + ds.fp != cs.tp + cs.fp) return "verdicts differ (drops)";
    ds.tp = ds.fp = ds.tn = ds.fn = 0;
    cs.tp = cs.fp = cs.tn = cs.fn = 0;
  }
  if (ds.path_count != cs.path_count) return "pipeline path counts differ";
  if (ds.swap != cs.swap) return "swap stats differ";
  if (ds.faults != cs.faults) return "control-plane stats differ";
  if (ds != cs) return "pipeline stats differ";
  return {};
}

}  // namespace perfbench
