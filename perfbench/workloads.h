// The benchmark's three workloads. Each runs in its own process against a
// fresh bclean::Service, reads its dirty CSV from the run directory (written
// there beforehand by `bclean_perf gen`, outside every timed phase), and
// fills a Record. See perfbench/README.md for why each workload exists and
// which layer every metric belongs to.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/record.h"
#include "src/core/options.h"

namespace perfbench {

enum class WorkloadKind { kBatch, kSession, kOutOfCore };

struct WorkloadSpec {
  const char* name;
  const char* dataset;  ///< bclean::MakeBenchmark name
  size_t rows;
  WorkloadKind kind;
  bool pruning;  ///< PartitionedInferencePruning() instead of PI
  size_t warm_cleans;  ///< warm cleans after each cold one
  size_t min_reps;     ///< fresh-session repetitions per run, at least
  /// Independently injected dirty tables; repetitions cycle through them
  /// (see `bclean_perf gen`).
  size_t tables;
  bclean::BCleanOptions Options() const {
    return pruning ? bclean::BCleanOptions::PartitionedInferencePruning()
                   : bclean::BCleanOptions::PartitionedInference();
  }
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;     ///< run directory: inputs, outputs, spill files
  size_t threads = 1;  ///< service pool width
  /// DigestUcRegistry of the generated dataset's constraints; the run
  /// checks that it rebuilds the same registry.
  uint64_t generated_ucs_digest = 0;
};

/// Runs the workload, recording into `record`. Failures are recorded as
/// failed operations; the run continues where it can.
void RunWorkload(const RunConfig& config, Record& record);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
