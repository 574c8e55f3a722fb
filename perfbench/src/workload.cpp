#include "workload.hpp"

#include "common/config.hpp"
#include "common/rng.hpp"
#include "sickle/config_driver.hpp"

namespace perfbench {

std::string CaseSpec::yaml() const {
  const auto n = [](std::size_t v) { return std::to_string(v); };
  std::string y;
  y += "shared:\n";
  y += "  dataset: " + std::string(kDataset) + "\n";
  y += "  scale: " + std::to_string(scale) + "\n";
  y += "  seed: " + std::to_string(seed) + "\n";
  y += "subsample:\n";
  y += "  hypercubes: " + hypercubes + "\n";
  y += "  method: " + method + "\n";
  y += "  num_hypercubes: " + n(cubes) + "\n";
  y += "  num_samples: " + n(samples) + "\n";
  y += "  num_clusters: " + n(clusters) + "\n";
  y += "  nxsl: " + n(edge) + "\n  nysl: " + n(edge) + "\n  nzsl: " +
       n(edge) + "\n";
  y += "  threads: " + n(threads) + "\n";
  y += "store:\n";
  y += "  backend: " + backend + "\n";
  y += "  ingest: " + ingest + "\n";
  y += "  codec: " + codec + "\n";
  y += "  chunk: " + n(chunk) + "\n";
  y += "  write_budget_mb: " + n(write_budget_mb) + "\n";
  if (!spill_dir.empty()) y += "  spill_dir: " + spill_dir + "\n";
  if (temporal_keep > 0) {
    y += "temporal:\n";
    y += "  num_snapshots: " + n(temporal_keep) + "\n";
  }
  y += "train:\n";
  y += "  arch: " + arch + "\n";
  y += "  epochs: " + n(epochs) + "\n  batch: " + n(batch) + "\n";
  y += "  dim: " + n(dim) + "\n  heads: " + n(heads) + "\n";
  return y;
}

sickle::CaseConfig CaseSpec::config() const {
  return sickle::case_from_config(sickle::Config::parse(yaml()));
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  // Kept below 2^31: the YAML reader stores seeds as signed integers.
  return sickle::mix64(sickle::mix64(workload_seed) ^ stream) &
         0x7FFFFFFFULL;
}

}  // namespace perfbench
