// serve_closed: an in-process sickle-serve daemon under a closed loop.
//
// nproc client connections each submit a tiny series/streaming case and
// wait for its result before sending the next, so the daemon never holds
// more cases than it has runner slots. Each case computes for about 0.1 s,
// which leaves transport, admission, queueing and the shared block cache
// a visible share of every submit -> result latency.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sickle/dataset_zoo.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using sickle::serve::Json;

constexpr std::size_t kCaseSeeds = 3;

/// Blocking NDJSON client on one persistent connection.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to the daemon");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and parse the one response line.
  Json call(const Json& request) {
    const std::string line = request.dump() + "\n";
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("daemon connection lost");
      off += static_cast<std::size_t>(n);
    }
    std::size_t nl = buf_.find('\n');
    while (nl == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("daemon connection lost");
      buf_.append(chunk, static_cast<std::size_t>(n));
      nl = buf_.find('\n');
    }
    Json resp = Json::parse(buf_.substr(0, nl));
    buf_.erase(0, nl + 1);
    return resp;
  }

 private:
  int fd_;
  std::string buf_;
};

bool ok(const Json& resp) {
  const Json* v = resp.get("ok");
  return v != nullptr && v->type() == Json::Type::kBool && v->as_bool();
}

double number(const Json& obj, const std::string& key) {
  const Json* v = obj.get(key);
  return v != nullptr && v->type() == Json::Type::kNumber ? v->as_number()
                                                          : 0.0;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// One finished (or refused) case as a client saw it.
struct ServedCase {
  std::uint64_t id = 0;
  std::size_t seed_index = 0;
  double submit_s = 0.0;   ///< submit round trip
  double latency_s = 0.0;  ///< submit sent -> result received
  double done_at = 0.0;    ///< absolute completion time
  double run_s = 0.0;      ///< the case's own stage seconds
  double io_mb = 0.0;
  double store_ratio = 0.0;
  double select_s = 0.0;
  double sample_s = 0.0;
  double points_per_s = 0.0;
  double train_s = 0.0;
  bool refused = false;
  bool correct = false;
};

/// Everything one closed-loop phase measured.
struct Phase {
  std::vector<ServedCase> cases;
  double start = 0.0;
  double wall = 0.0;
  double client_wall = 0.0;  ///< summed over connections
};

/// Run `conns` closed-loop connections until `budget` seconds pass.
Phase closed_loop(std::uint16_t port, unsigned conns, double budget,
                  const std::vector<std::string>& yaml,
                  const std::vector<std::string>& expected_hash,
                  const std::vector<double>& expected_loss, double raw_mb,
                  SpanLog* log) {
  Phase phase;
  std::mutex mu;
  phase.start = now_s();
  const double deadline = phase.start + budget;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < conns; ++c) {
    clients.emplace_back([&, c] {
      std::vector<ServedCase> mine;
      const double c0 = now_s();
      try {
        Client client(port);
        for (std::size_t k = c; now_s() < deadline; k += conns) {
          ServedCase sc;
          sc.seed_index = k % yaml.size();
          Json submit = Json::object();
          submit.set("verb", "submit");
          submit.set("config", yaml[sc.seed_index]);
          const double t0 = now_s();
          const Json sub = client.call(submit);
          const double t1 = now_s();
          sc.submit_s = t1 - t0;
          if (!ok(sub)) {
            sc.refused = true;
            sc.done_at = t1;
            mine.push_back(sc);
            continue;
          }
          sc.id = static_cast<std::uint64_t>(number(sub, "id"));
          Json req = Json::object();
          req.set("verb", "result");
          req.set("id", static_cast<double>(sc.id));
          const Json res = client.call(req);
          const double t2 = now_s();
          if (log != nullptr) {
            log->add({"serve.submit", sc.id, t0, t1});
            log->add({"serve.result", sc.id, t1, t2});
          }
          sc.latency_s = t2 - t0;
          sc.done_at = t2;
          const Json* hash = res.get("sample_hash");
          sc.correct = ok(res) && hash != nullptr &&
                       hash->type() == Json::Type::kString &&
                       hash->as_string() == expected_hash[sc.seed_index] &&
                       number(res, "test_loss") == expected_loss[sc.seed_index];
          if (const Json* m = res.get("metrics"); m != nullptr) {
            sc.select_s = number(*m, "case.selection_seconds");
            sc.sample_s = number(*m, "case.sampling_seconds");
            sc.train_s = number(*m, "case.training_seconds");
            sc.run_s = number(*m, "case.ingest_seconds") + sc.select_s +
                       sc.sample_s + sc.train_s;
            sc.io_mb = number(*m, "store.io_bytes_read") / kMB;
            if (sc.sample_s > 0) {
              sc.points_per_s =
                  number(*m, "case.sampled_points") / sc.sample_s;
            }
          }
          const double stored = number(res, "store_bytes");
          sc.store_ratio = stored > 0 ? raw_mb * kMB / stored : 0.0;
          mine.push_back(sc);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %u: %s\n", c, e.what());
        ServedCase lost;
        lost.done_at = now_s();
        mine.push_back(lost);
      }
      std::lock_guard lock(mu);
      phase.client_wall += now_s() - c0;
      phase.cases.insert(phase.cases.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : clients) t.join();
  phase.wall = now_s() - phase.start;
  return phase;
}

/// Latencies of the cases that completed.
std::vector<double> latencies(const Phase& p) {
  std::vector<double> v;
  for (const auto& c : p.cases) {
    if (!c.refused && c.latency_s > 0) v.push_back(c.latency_s);
  }
  return v;
}

template <typename F>
double median_of(const Phase& p, F field) {
  std::vector<double> v;
  for (const auto& c : p.cases) {
    if (!c.refused && c.latency_s > 0) v.push_back(field(c));
  }
  return median(v);
}

/// The daemon and the reference results it is checked against.
struct Daemon {
  std::unique_ptr<sickle::serve::Server> server;
  std::vector<std::string> hashes;
  std::vector<double> losses;
};

Daemon start_daemon(unsigned conns, const std::vector<CaseSpec>& specs) {
  Daemon d;
  sickle::serve::ServeOptions so;
  so.port = 0;
  so.session.max_concurrent_cases = conns;
  so.session.queue_capacity = conns;
  d.server = std::make_unique<sickle::serve::Server>(so);
  d.server->start();
  // Serial run_case is the reference path: no daemon, no session, no
  // shared cache.
  for (const auto& spec : specs) {
    sickle::ProducerBundle pb =
        sickle::make_dataset_producer(kDataset, spec.seed, spec.scale);
    const sickle::CaseReport r = sickle::run_case(pb, spec.config());
    d.hashes.push_back(hex(r.sample_hash));
    d.losses.push_back(r.train.test_loss);
  }
  return d;
}

}  // namespace

Outcome run_serve_closed(const Options& opts) {
  Outcome out;
  const unsigned conns = opts.nproc;
  // The bench_serve_load case: a 16x16x8 grid, 8 snapshots, streamed
  // through the series backend.
  std::vector<CaseSpec> specs;
  std::vector<std::string> yaml;
  for (std::size_t k = 0; k < kCaseSeeds; ++k) {
    CaseSpec s;
    s.scale = 0.25;
    s.seed = derive_seed(opts.seed, 10 + k);
    s.hypercubes = "random";
    s.method = "maxent";
    s.cubes = 2;
    s.samples = 17;
    s.clusters = 3;
    s.backend = "series";
    s.ingest = "streaming";
    s.codec = "delta";
    s.chunk = 16;
    s.write_budget_mb = 1;
    s.epochs = 1;
    s.batch = 4;
    s.dim = 8;
    s.heads = 2;
    s.spill_dir = opts.work_dir;
    specs.push_back(s);
    yaml.push_back(s.yaml());
  }
  const double raw_mb =
      static_cast<double>(
          sickle::make_dataset(kDataset, specs[0].seed, 0.25).data.bytes()) /
      kMB;

  std::vector<double> setup;
  Daemon daemon;
  for (int i = 0; i < 3; ++i) {
    daemon = {};  // stops the previous daemon before timing the next
    const double t0 = now_s();
    daemon = start_daemon(conns, specs);
    setup.push_back(now_s() - t0);
  }
  out.metrics["setup_s"] = median(setup);
  out.context["setup_repeats"] = static_cast<double>(setup.size());
  if (opts.wrong_reference) {
    for (auto& h : daemon.hashes) h[h.size() - 1] ^= 1;
  }

  const std::uint16_t port = daemon.server->port();
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Phase plain = closed_loop(port, conns, budget, yaml, daemon.hashes,
                                  daemon.losses, raw_mb, nullptr);
  Phase traced;
  SpanLog log;
  sickle::store::CacheStats cache_before;
  sickle::store::CacheStats cache_after;
  std::map<std::string, double> reg_before;
  std::map<std::string, double> reg_after;
  if (opts.trace) {
    auto& registry = sickle::obs::MetricsRegistry::global();
    sickle::obs::set_enabled(true);
    cache_before = sickle::CaseSession::shared_cache_stats();
    reg_before = registry.snapshot();
    traced = closed_loop(port, conns, budget, yaml, daemon.hashes,
                         daemon.losses, raw_mb, &log);
    reg_after = registry.snapshot();
    cache_after = sickle::CaseSession::shared_cache_stats();
    sickle::obs::set_enabled(false);
    sickle::obs::Tracer::instance().clear();
  }
  daemon.server->stop();

  std::size_t refused = 0;
  for (const Phase* p : {&plain, static_cast<const Phase*>(&traced)}) {
    for (const auto& c : p->cases) {
      ++out.attempted;
      if (c.refused) ++refused;
      if (!c.correct) ++out.failed;
    }
  }

  // A round is the time the daemon takes to finish one case per
  // connection: consecutive windows of `conns` completions.
  std::vector<double> done;
  for (const auto& c : plain.cases) done.push_back(c.done_at);
  std::sort(done.begin(), done.end());
  std::vector<double> rounds;
  double prev = plain.start;
  for (std::size_t i = conns; i <= done.size(); i += conns) {
    rounds.push_back(done[i - 1] - prev);
    prev = done[i - 1];
  }

  const std::vector<double> lat = latencies(plain);
  const double n = static_cast<double>(lat.size());
  out.metrics["round_s_p50"] = median(rounds);
  out.metrics["latency_ms_p50"] = 1e3 * median(lat);
  out.metrics["latency_ms_p90"] = 1e3 * percentile(lat, 0.9);
  out.metrics["cases_per_s"] = n / plain.wall;
  out.metrics["curated_mb_s"] = n * raw_mb / plain.wall;
  out.context["case_input_mb"] = raw_mb;
  out.context["cases_timed"] = n;
  out.context["connections"] = conns;

  if (opts.trace) {
    const std::vector<double> tlat = latencies(traced);
    out.metrics["trace.overhead"] = median(tlat) / median(lat);
    double verbs = 0.0;
    for (const auto& r : log.records()) verbs += r.end - r.start;
    out.metrics["trace.coverage"] = verbs / traced.client_wall;
    out.metrics["serve.submit_ms_p50"] =
        1e3 * median_of(traced, [](const auto& c) { return c.submit_s; });
    out.metrics["serve.run_ms_p50"] =
        1e3 * median_of(traced, [](const auto& c) { return c.run_s; });
    out.metrics["serve.queue_wait_ms_p50"] =
        1e3 * median_of(traced,
                        [](const auto& c) { return c.latency_s - c.run_s; });
    out.metrics["serve.refused"] = static_cast<double>(refused);
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    const double ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out.metrics["serve.shared_cache_hit_ratio"] = ratio;
    out.metrics["store.cache_hit_ratio"] = ratio;
    const double tcases = static_cast<double>(tlat.size());
    out.metrics["store.blocks_decoded"] = tcases > 0 ? misses / tcases : 0.0;
    out.metrics["store.io_mb_read"] =
        median_of(traced, [](const auto& c) { return c.io_mb; });
    out.metrics["store.compression_ratio"] =
        median_of(traced, [](const auto& c) { return c.store_ratio; });
    out.metrics["select.s"] =
        median_of(traced, [](const auto& c) { return c.select_s; });
    out.metrics["sample.s"] =
        median_of(traced, [](const auto& c) { return c.sample_s; });
    out.metrics["sample.points_per_s"] =
        median_of(traced, [](const auto& c) { return c.points_per_s; });
    out.metrics["train.s"] =
        median_of(traced, [](const auto& c) { return c.train_s; });
    const double busy = delta(reg_before, reg_after, "pool.busy_seconds");
    out.metrics["pool.busy_s"] = busy;
    out.metrics["pool.queue_wait_s"] =
        delta(reg_before, reg_after, "pool.queue_wait_seconds");
    out.metrics["pool.utilization"] =
        busy / (static_cast<double>(opts.nproc) * traced.wall);
  }
  return out;
}

}  // namespace perfbench
