// bclean_perf: the measured program behind perfbench/run.py. Three modes,
// each its own process so that data generation and scoring stay out of the
// measured process's time and memory:
//
//   bclean_perf gen   --workload W --seed S --dir D
//       generate the workload's dataset and inject errors with the
//       dataset's default profile, once per table the workload uses (the
//       injection seed of table t is S * tables + t); write
//       D/clean-<t>.csv, D/dirty-<t>.csv and D/ucs.digest
//   bclean_perf run   --workload W --seed S --seconds N --trace 0|1 --dir D
//       run the workload on the dirty tables; write D/record.json
//   bclean_perf score --dir D --table T
//       repair precision / recall / F1 of D/cleaned-<T>.csv, as one JSON
//       line
//
// `run` refuses, with exit status 3, a build that is not Release or that
// compiles the fault-injection points in: either would distort every figure.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/record.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/core/cell_scorer.h"
#include "src/data/csv.h"
#include "src/datagen/benchmarks.h"
#include "src/errors/error_injection.h"
#include "src/eval/metrics.h"
#include "src/service/fingerprint.h"

namespace {

using perfbench::Record;

constexpr bool kFaultInjection =
#if defined(BCLEAN_FAULT_INJECTION)
    true;
#else
    false;
#endif
constexpr bool kSimdCompiled =
#if defined(BCLEAN_SIMD)
    true;
#else
    false;
#endif

// The clean table is the same in every run, as the paper's datasets are;
// the run seed drives error injection (which cells, which error types).
constexpr uint64_t kDatasetSeed = 42;

int Usage(const char* message) {
  std::fprintf(stderr,
               "bclean_perf: %s\n"
               "usage: bclean_perf gen --workload W --seed S --dir D\n"
               "       bclean_perf run --workload W --seed S --seconds N "
               "--trace 0|1 --dir D\n"
               "       bclean_perf score --dir D --table T\n",
               message);
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<size_t>(online) : 1;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Gen(const perfbench::WorkloadSpec& spec, uint64_t seed,
        const std::string& dir) {
  bclean::Result<bclean::Dataset> dataset =
      bclean::MakeBenchmark(spec.dataset, spec.rows, kDatasetSeed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const bclean::Table& clean = dataset.value().clean;
  std::string errors;
  for (size_t t = 0; t < spec.tables; ++t) {
    bclean::Rng rng(seed * spec.tables + t);
    bclean::Result<bclean::InjectionResult> injected = bclean::InjectErrors(
        clean, dataset.value().default_injection, &rng);
    if (!injected.ok()) {
      std::fprintf(stderr, "%s\n", injected.status().ToString().c_str());
      return 1;
    }
    const std::string suffix = "-" + std::to_string(t) + ".csv";
    if (!bclean::WriteCsvFile(clean, dir + "/clean" + suffix).ok() ||
        !bclean::WriteCsvFile(injected.value().dirty, dir + "/dirty" + suffix)
             .ok()) {
      std::fprintf(stderr, "cannot write inputs under %s\n", dir.c_str());
      return 1;
    }
    errors += (t == 0 ? "" : ",") +
              std::to_string(injected.value().ground_truth.size());
  }
  if (!WriteText(dir + "/ucs.digest",
                 std::to_string(
                     bclean::DigestUcRegistry(dataset.value().ucs)))) {
    std::fprintf(stderr, "cannot write inputs under %s\n", dir.c_str());
    return 1;
  }
  std::printf("{\"rows\":%zu,\"cols\":%zu,\"tables\":%zu,\"errors\":[%s]}\n",
              clean.num_rows(), clean.num_cols(), spec.tables, errors.c_str());
  return 0;
}

int Score(const std::string& dir, const std::string& table) {
  auto read = [&](const char* name) {
    return bclean::ReadCsvFile(dir + "/" + name + "-" + table + ".csv");
  };
  auto clean = read("clean");
  auto dirty = read("dirty");
  auto cleaned = read("cleaned");
  if (!clean.ok() || !dirty.ok() || !cleaned.ok()) {
    std::fprintf(stderr, "cannot read table %s under %s\n", table.c_str(),
                 dir.c_str());
    return 1;
  }
  auto metrics =
      bclean::Evaluate(clean.value(), dirty.value(), cleaned.value());
  if (!metrics.ok()) {
    std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
    return 1;
  }
  const bclean::CleaningMetrics& m = metrics.value();
  std::printf(
      "{\"precision\":%.17g,\"recall\":%.17g,\"f1\":%.17g,\"errors\":%zu,"
      "\"modified\":%zu,\"correct_repairs\":%zu,\"repaired_errors\":%zu}\n",
      m.precision, m.recall, m.f1, m.errors, m.modified, m.correct_repairs,
      m.repaired_errors);
  return 0;
}

int Run(perfbench::RunConfig config) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || kFaultInjection) {
    std::fprintf(stderr,
                 "bclean_perf: refusing to measure a %s build%s; timings "
                 "are not comparable with a Release build\n",
                 build_type.c_str(),
                 kFaultInjection ? " with fault-injection points" : "");
    return 3;
  }
  std::ifstream ucs_in(config.dir + "/ucs.digest");
  if (!(ucs_in >> config.generated_ucs_digest)) {
    return Usage("missing ucs.digest: run gen first");
  }
  config.threads = AvailableCpus();

  Record record;
  record.env = {
      {"workload", config.spec->name},
      {"dataset", config.spec->dataset},
      {"rows", std::to_string(config.spec->rows)},
      {"seed", std::to_string(config.seed)},
      {"nproc", std::to_string(AvailableCpus())},
      {"online_cpus", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"pool_width", std::to_string(config.threads)},
      {"dispatcher_threads", "1"},
      {"clients", "1 closed-loop"},
      {"build_type", build_type},
      {"compiler", PERFBENCH_COMPILER},
      {"BCLEAN_SIMD", kSimdCompiled ? "ON" : "OFF"},
      {"ScoringSimdAvailable", bclean::ScoringSimdAvailable() ? "yes" : "no"},
      {"BCLEAN_FAULT_INJECTION", kFaultInjection ? "ON" : "OFF"},
      {"trace", config.trace ? "1" : "0"},
  };
  perfbench::RunWorkload(config, record);
  if (!WriteText(config.dir + "/record.json", record.ToJson())) {
    std::fprintf(stderr, "cannot write %s/record.json\n", config.dir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 == argc) {
      return Usage(("unexpected argument " + key).c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  if (args.count("dir") == 0) return Usage("--dir is required");
  if (mode == "score") return Score(args["dir"], args["table"]);

  perfbench::RunConfig config;
  config.dir = args["dir"];
  config.spec = perfbench::FindWorkload(args["workload"]);
  if (config.spec == nullptr) return Usage("unknown --workload");
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (mode == "gen") return Gen(*config.spec, config.seed, config.dir);
  if (mode != "run") return Usage("unknown mode");
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  return Run(config);
}
