// The three batch workloads: stream_ingest, curate_subsample, train_full.
//
// One round is a fixed list of cases, each run through the public
// run_case call and timed by the benchmark's own clock. Rounds repeat
// until the run's time is spent. The traced run composes the same cases
// from the orchestrator's stage calls, with a benchmark span around each
// call, and checks that the composed case reproduces run_case.
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "sickle/dataset_zoo.hpp"
#include "sickle/stage.hpp"
#include "store/series_store.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sickle::CaseReport;

struct BatchCase {
  CaseSpec spec;
  sickle::CaseConfig cfg;
};

/// What a case produced, for the correctness check.
struct CaseRun {
  std::size_t case_index = 0;
  std::uint64_t hash = 0;
  double test_loss = 0.0;
  bool threw = false;
};

/// Additive per-round layer tallies of the traced run, by metric name.
using Layers = std::map<std::string, double>;

struct BatchPlan {
  std::vector<BatchCase> cases;  ///< one round
  double case_mb = 0.0;          ///< raw field MB one case consumes
  /// The public call: runs one case and returns its wall-clock seconds.
  std::function<double(const BatchCase&, CaseReport&)> run;
  /// The same case composed from stage calls, each under a span tagged
  /// with `id`; adds its layer tallies to `layers`.
  std::function<CaseReport(const BatchCase&, SpanLog&, std::uint64_t id,
                           Layers& layers)>
      compose;
  /// Reference result from a different code path, computed untimed.
  std::function<Expected(const BatchCase&)> reference;
};

/// A materialized dataset and the producer time it took.
struct Setup {
  sickle::DatasetBundle bundle;
  double seconds = 0.0;
  double next_s = 0.0;
  std::size_t snapshots = 0;
};

/// Materialize the dataset through the timing decorator — the same
/// producer-then-materialize path make_dataset takes.
Setup materialize(std::uint64_t seed, double scale) {
  Setup s;
  const double t0 = now_s();
  sickle::ProducerBundle pb =
      sickle::make_dataset_producer(kDataset, seed, scale);
  auto timed = std::make_unique<TimedProducer>(std::move(pb.producer));
  const TimedProducer* probe = timed.get();
  pb.producer = std::move(timed);
  s.bundle = sickle::materialize_bundle(pb);
  s.seconds = now_s() - t0;
  s.next_s = probe->next_seconds();
  s.snapshots = probe->snapshots();
  return s;
}

/// Set up three times and keep the last dataset; setup_s is the median.
Setup repeated_setup(std::uint64_t seed, double scale, Outcome& out) {
  std::vector<double> secs;
  std::vector<double> next;
  Setup s;
  for (int i = 0; i < 3; ++i) {
    s = materialize(seed, scale);
    secs.push_back(s.seconds);
    next.push_back(s.next_s);
  }
  out.metrics["setup_s"] = median(secs);
  out.context["setup_repeats"] = static_cast<double>(secs.size());
  s.next_s = median(next);
  return s;
}

/// Fill empty variable roles from the dataset, as run_case does.
void fill_roles(sickle::CaseConfig& cfg, const std::vector<std::string>& in,
                const std::vector<std::string>& out,
                const std::string& cluster) {
  auto& pl = cfg.pipeline;
  if (pl.input_vars.empty()) pl.input_vars = in;
  if (pl.output_vars.empty()) pl.output_vars = out;
  if (pl.cluster_var.empty()) pl.cluster_var = cluster;
}

/// Selection, sampling and training over `series`, each under a span.
/// `release` runs between sampling and training (run_case drops its spill
/// there) and is traced as store.release.
CaseReport staged(const sickle::field::SeriesSource& series,
                  const sickle::CaseConfig& cfg, SpanLog& log,
                  std::uint64_t id, Layers& layers,
                  const std::function<void()>& release) {
  CaseReport report;
  sickle::energy::EnergyCounter sampling_energy;
  sickle::ml::TensorDataset data;
  std::vector<std::size_t> selected;
  {
    Span span(&log, "stage.selection", id);
    selected = sickle::stage::selection(series, cfg, report);
  }
  {
    Span span(&log, "stage.sampling", id);
    data = sickle::stage::sampling(series, selected, cfg, report,
                                   sampling_energy);
  }
  report.sampling_kilojoules = sampling_energy.projected_kilojoules();
  if (release) {
    Span span(&log, "store.release", id);
    release();
  }
  {
    Span span(&log, "stage.training", id);
    sickle::stage::training(data, cfg, report);
  }
  layers["sample.points"] += static_cast<double>(report.sampled_points);
  layers["train.examples"] +=
      static_cast<double>(data.size() * cfg.train.epochs);
  layers["energy.model_kj"] += report.total_kilojoules();
  return report;
}

/// The run's results, before they are turned into metrics.
struct Measured {
  std::vector<double> rounds;
  std::vector<double> latencies;
  std::vector<CaseRun> runs;
  double wall = 0.0;
};

/// Untraced rounds through the public call until `budget` seconds pass.
Measured measure(const BatchPlan& plan, double budget) {
  Measured m;
  const double t0 = now_s();
  do {
    const double r0 = now_s();
    for (std::size_t i = 0; i < plan.cases.size(); ++i) {
      CaseRun run{i};
      try {
        CaseReport report;
        m.latencies.push_back(plan.run(plan.cases[i], report));
        run.hash = report.sample_hash;
        run.test_loss = report.train.test_loss;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "case %zu failed: %s\n", i, e.what());
        run.threw = true;
      }
      m.runs.push_back(run);
    }
    m.rounds.push_back(now_s() - r0);
  } while (now_s() - t0 < budget);
  m.wall = now_s() - t0;
  return m;
}

/// Traced rounds of composed cases until `budget` seconds pass. Returns
/// the per-round layer values (ratios already formed).
std::vector<Layers> trace_rounds(const BatchPlan& plan, double budget,
                                 unsigned threads, Measured& m) {
  std::vector<Layers> rounds;
  auto& registry = sickle::obs::MetricsRegistry::global();
  sickle::obs::set_enabled(true);
  std::uint64_t next_id = 1;
  const double t0 = now_s();
  do {
    SpanLog log;
    Layers layers;
    double covered = 0.0;
    const auto before = registry.snapshot();
    const double r0 = now_s();
    for (std::size_t i = 0; i < plan.cases.size(); ++i) {
      const std::uint64_t id = next_id++;
      CaseRun run{i};
      try {
        const double c0 = now_s();
        const CaseReport report = plan.compose(plan.cases[i], log, id, layers);
        const double c1 = now_s();
        log.add({"case", id, c0, c1});
        covered += log.covered(id, c0, c1, "case");
        run.hash = report.sample_hash;
        run.test_loss = report.train.test_loss;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "composed case %zu failed: %s\n", i, e.what());
        run.threw = true;
      }
      m.runs.push_back(run);
    }
    const double wall = now_s() - r0;
    m.rounds.push_back(wall);
    const auto after = registry.snapshot();
    for (std::uint64_t id = next_id - plan.cases.size(); id < next_id; ++id) {
      layers["select.s"] += log.total("stage.selection", id);
      layers["sample.s"] += log.total("stage.sampling", id);
      layers["train.s"] += log.total("stage.training", id);
      layers["store.append_s"] += log.total("store.append", id);
      layers["store.close_s"] += log.total("store.close", id);
    }
    layers["pool.busy_s"] = delta(before, after, "pool.busy_seconds");
    layers["pool.queue_wait_s"] =
        delta(before, after, "pool.queue_wait_seconds");
    layers["pool.utilization"] =
        layers["pool.busy_s"] / (static_cast<double>(threads) * wall);
    layers["sample.points_per_s"] =
        layers["sample.s"] > 0 ? layers["sample.points"] / layers["sample.s"]
                               : 0.0;
    layers["train.examples_per_s"] =
        layers["train.s"] > 0 ? layers["train.examples"] / layers["train.s"]
                              : 0.0;
    layers["trace.coverage"] = covered / wall;
    rounds.push_back(std::move(layers));
    sickle::obs::Tracer::instance().clear();
  } while (now_s() - t0 < budget);
  sickle::obs::set_enabled(false);
  return rounds;
}

/// Check every recorded case against its reference; fill the metrics.
Outcome finish(const Options& opts, const BatchPlan& plan, Outcome out) {
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  Measured m = measure(plan, budget);
  std::vector<Layers> traced;
  Measured tm;
  if (opts.trace) traced = trace_rounds(plan, budget, opts.nproc, tm);

  // References come last, outside every timed region. They run
  // concurrently, since only the timed cases need an idle machine.
  std::vector<std::future<Expected>> pending;
  for (const auto& c : plan.cases) {
    pending.push_back(std::async(std::launch::async,
                                 [&plan, &c] { return plan.reference(c); }));
  }
  std::vector<Expected> refs;
  for (auto& f : pending) {
    Expected e = f.get();
    if (opts.wrong_reference) e.sample_hash ^= 1;
    refs.push_back(e);
  }
  // A composed case must also reproduce run_case itself, not only the
  // reference.
  std::vector<const CaseRun*> public_run(plan.cases.size(), nullptr);
  for (const auto& r : m.runs) {
    if (!r.threw && public_run[r.case_index] == nullptr) {
      public_run[r.case_index] = &r;
    }
  }
  const auto bad = [&](const CaseRun& r) {
    return r.threw || !matches(r.hash, r.test_loss, refs[r.case_index]);
  };
  for (const auto& r : m.runs) out.failed += bad(r) ? 1 : 0;
  for (const auto& r : tm.runs) {
    const CaseRun* p = public_run[r.case_index];
    const bool diverged =
        p != nullptr && !matches(r.hash, r.test_loss, {p->hash, p->test_loss});
    out.failed += bad(r) || diverged ? 1 : 0;
  }
  out.attempted = m.runs.size() + tm.runs.size();

  const double cases = static_cast<double>(m.runs.size());
  out.metrics["round_s_p50"] = median(m.rounds);
  out.metrics["latency_ms_p50"] = 1e3 * median(m.latencies);
  out.metrics["latency_ms_p90"] = 1e3 * percentile(m.latencies, 0.9);
  out.metrics["cases_per_s"] = cases / m.wall;
  out.metrics["curated_mb_s"] = cases * plan.case_mb / m.wall;
  out.context["rounds"] = static_cast<double>(m.rounds.size());
  out.context["cases_timed"] = cases;
  out.context["case_input_mb"] = plan.case_mb;

  if (opts.trace) {
    std::map<std::string, std::vector<double>> per_round;
    for (const auto& layers : traced) {
      for (const auto& [k, v] : layers) per_round[k].push_back(v);
    }
    for (const auto& [k, v] : per_round) out.metrics[k] = median(v);
    out.metrics["trace.overhead"] = median(tm.rounds) / median(m.rounds);
    out.context["traced_rounds"] = static_cast<double>(tm.rounds.size());
  }
  return out;
}

/// Reader options the series backend uses for a case's store settings.
sickle::store::ReaderOptions reader_options(
    const sickle::store::StoreOptions& s) {
  sickle::store::ReaderOptions r{s.cache_bytes, 0, s.prefetch_depth, s.pool};
  r.shared_cache = s.shared_cache;
  return r;
}

/// Spec fields shared by the three batch workloads.
CaseSpec base_spec(const Options& opts) {
  CaseSpec s;
  s.seed = derive_seed(opts.seed, 2);
  s.threads = opts.nproc;
  s.spill_dir = opts.work_dir;
  if (opts.tiny) {
    s.scale = 0.25;
    s.cubes = 2;
    s.samples = 17;
    s.clusters = 3;
    s.dim = 8;
    s.heads = 2;
  }
  return s;
}

BatchCase make_case(const CaseSpec& spec) { return {spec, spec.config()}; }

}  // namespace

Outcome run_stream_ingest(const Options& opts) {
  Outcome out;
  CaseSpec spec = base_spec(opts);
  spec.backend = "series";
  spec.ingest = "streaming";
  spec.codec = "gorilla";
  spec.temporal_keep = 4;
  spec.epochs = opts.tiny ? 1 : 2;
  const std::uint64_t data_seed = derive_seed(opts.seed, 1);

  // The set-up materializes the dataset the memory-backend reference
  // runs on; the timed rounds synthesize it again, streaming.
  const Setup setup = repeated_setup(data_seed, spec.scale, out);
  const sickle::DatasetBundle& data = setup.bundle;

  BatchPlan plan;
  plan.cases.push_back(make_case(spec));
  plan.case_mb = static_cast<double>(data.data.bytes()) / kMB;
  plan.run = [&](const BatchCase& c, CaseReport& report) {
    sickle::ProducerBundle pb =
        sickle::make_dataset_producer(kDataset, data_seed, c.spec.scale);
    const double t0 = now_s();
    report = sickle::run_case(pb, c.cfg);
    return now_s() - t0;
  };
  plan.compose = [&](const BatchCase& c, SpanLog& log, std::uint64_t id,
                     Layers& layers) {
    sickle::ProducerBundle pb =
        sickle::make_dataset_producer(kDataset, data_seed, c.spec.scale);
    sickle::CaseConfig cfg = c.cfg;
    fill_roles(cfg, pb.input_vars, pb.output_vars, pb.cluster_var);
    TimedProducer producer(std::move(pb.producer), &log, id);
    const fs::path dir =
        fs::path(opts.work_dir) / ("composed_" + std::to_string(id));
    const std::string path = (dir / "series.skl3").string();
    fs::create_directories(dir);
    sickle::store::SeriesWriteReport wr;
    {
      sickle::store::SeriesWriter writer(path, cfg.store);
      while (auto snap = producer.next()) {
        Span span(&log, "store.append", id);
        writer.append(*snap);
      }
      Span span(&log, "store.close", id);
      wr = writer.close();
    }
    std::unique_ptr<sickle::store::SeriesReader> reader;
    {
      Span span(&log, "store.open", id);
      reader = std::make_unique<sickle::store::SeriesReader>(
          path, reader_options(cfg.store));
    }
    const auto release = [&] {
      const sickle::store::CacheStats cs = reader->cache_stats();
      const double lookups = static_cast<double>(cs.hits + cs.misses);
      layers["store.cache_hit_ratio"] =
          lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
      layers["store.blocks_decoded"] +=
          static_cast<double>(cs.misses + cs.prefetch_issued);
      layers["store.prefetch_wasted"] +=
          static_cast<double>(cs.prefetch_wasted);
      layers["store.io_mb_read"] +=
          static_cast<double>(reader->io_bytes_read()) / kMB;
      reader.reset();
      fs::remove_all(dir);
    };
    CaseReport report = staged(*reader, cfg, log, id, layers, release);
    layers["flow.next_s"] += producer.next_seconds();
    layers["flow.snapshots"] += static_cast<double>(producer.snapshots());
    layers["store.compression_ratio"] = wr.compression_ratio();
    layers["store.writer_peak_mb"] =
        static_cast<double>(wr.peak_buffered_bytes) / kMB;
    return report;
  };
  plan.reference = [&](const BatchCase& c) {
    sickle::CaseConfig cfg = c.cfg;
    cfg.backend = "memory";
    cfg.ingest = "materialize";
    const CaseReport r = sickle::run_case(data, cfg);
    return Expected{r.sample_hash, r.train.test_loss};
  };
  out.context["dataset_mb"] = plan.case_mb;
  return finish(opts, plan, std::move(out));
}

namespace {

/// Shared body of the two workloads that run on one dataset materialized
/// during set-up, on the memory backend.
Outcome run_in_memory(const Options& opts, std::vector<CaseSpec> specs) {
  Outcome out;
  const Setup setup =
      repeated_setup(derive_seed(opts.seed, 1), specs.front().scale, out);
  const sickle::DatasetBundle& data = setup.bundle;

  BatchPlan plan;
  for (const auto& s : specs) plan.cases.push_back(make_case(s));
  plan.case_mb = static_cast<double>(data.data.bytes()) / kMB;
  plan.run = [&](const BatchCase& c, CaseReport& report) {
    const double t0 = now_s();
    report = sickle::run_case(data, c.cfg);
    return now_s() - t0;
  };
  plan.compose = [&](const BatchCase& c, SpanLog& log, std::uint64_t id,
                     Layers& layers) {
    sickle::CaseConfig cfg = c.cfg;
    fill_roles(cfg, data.input_vars, data.output_vars, data.cluster_var);
    std::unique_ptr<sickle::field::DatasetSeriesSource> series;
    {
      Span span(&log, "stage.ingest", id);
      series = std::make_unique<sickle::field::DatasetSeriesSource>(data.data);
    }
    return staged(*series, cfg, log, id, layers, {});
  };
  // Serial sampling is the reference path: no pool, no work stealing.
  plan.reference = [&](const BatchCase& c) {
    sickle::CaseConfig cfg = c.cfg;
    cfg.pipeline.threads = 1;
    const CaseReport r = sickle::run_case(data, cfg);
    return Expected{r.sample_hash, r.train.test_loss};
  };
  out.context["dataset_mb"] = plan.case_mb;
  if (opts.trace) {
    // The producer runs only in set-up here.
    out.metrics["flow.next_s"] = setup.next_s;
    out.metrics["flow.snapshots"] = static_cast<double>(setup.snapshots);
  }
  return finish(opts, plan, std::move(out));
}

}  // namespace

Outcome run_curate_subsample(const Options& opts) {
  std::vector<CaseSpec> specs;
  for (const char* h : {"maxent", "random"}) {
    for (const char* x : {"maxent", "uips"}) {
      CaseSpec s = base_spec(opts);
      s.hypercubes = h;
      s.method = x;
      if (!opts.tiny) {
        s.cubes = 128;
        s.samples = 64;
        s.clusters = 20;
      }
      specs.push_back(s);
    }
  }
  return run_in_memory(opts, std::move(specs));
}

Outcome run_train_full(const Options& opts) {
  CaseSpec s = base_spec(opts);
  s.hypercubes = "random";
  s.method = "full";
  s.arch = "CNN_Transformer";
  s.epochs = opts.tiny ? 1 : 2;
  return run_in_memory(opts, {s});
}

}  // namespace perfbench
