// The four benchmark workloads and what they share: run options, the
// per-run outcome, case construction from YAML, and the correctness check
// against a reference computed on a different code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "sickle/case.hpp"

namespace perfbench {

/// Every workload curates the SST-P1F4 stratified-turbulence dataset.
constexpr const char* kDataset = "SST-P1F4";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: tiny grids and models, so every workload runs in
  /// about a second.
  bool tiny = false;
  /// Self-test: perturb every reference hash, so every case must fail.
  bool wrong_reference = false;
  unsigned nproc = 1;
  /// Spill and scratch directory inside the benchmark's build tree.
  std::string work_dir;
};

/// What one benchmark run measured.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Every metric this run produced, by its BENCHMARK.json name.
  std::map<std::string, double> metrics;
  /// Run context: input sizes and sample counts, printed before the result.
  std::map<std::string, double> context;
};

/// The expected result of one case.
struct Expected {
  std::uint64_t sample_hash = 0;
  double test_loss = 0.0;
};

/// True when the case reproduced the reference bit for bit.
[[nodiscard]] inline bool matches(std::uint64_t hash, double test_loss,
                                  const Expected& ref) {
  return hash == ref.sample_hash && test_loss == ref.test_loss;
}

/// A case in the YAML form every CLI and the daemon accept.
struct CaseSpec {
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string hypercubes = "maxent";
  std::string method = "maxent";
  std::size_t cubes = 32;
  std::size_t samples = 51;
  std::size_t clusters = 8;
  std::size_t edge = 8;
  std::size_t threads = 1;
  std::string backend = "memory";
  std::string ingest = "materialize";
  std::string codec = "delta";
  std::size_t chunk = 32;
  std::size_t write_budget_mb = 8;
  std::size_t temporal_keep = 0;
  std::string arch = "MLP_Transformer";
  std::size_t epochs = 1;
  std::size_t batch = 8;
  std::size_t dim = 32;
  std::size_t heads = 4;
  std::string spill_dir;

  [[nodiscard]] std::string yaml() const;
  [[nodiscard]] sickle::CaseConfig config() const;
};

/// A seed for one input of the run, derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t workload_seed,
                                        std::uint64_t stream);

Outcome run_stream_ingest(const Options& opts);
Outcome run_curate_subsample(const Options& opts);
Outcome run_train_full(const Options& opts);
Outcome run_serve_closed(const Options& opts);

}  // namespace perfbench
