#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/digest.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/data/csv.h"
#include "src/datagen/benchmarks.h"
#include "src/fdx/structure_learning.h"
#include "src/service/fingerprint.h"
#include "src/service/service.h"
#include "src/service/sharded_session.h"
#include "src/shard/row_source.h"
#include "src/shard/sharded_builder.h"

namespace perfbench {

using bclean::BCleanEngine;
using bclean::BCleanOptions;
using bclean::CleanResult;
using bclean::Result;
using bclean::RowEdit;
using bclean::Service;
using bclean::Session;
using bclean::Status;
using bclean::Table;

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {.name = "batch-soccer-200k",
       .dataset = "soccer",
       .rows = 200000,
       .kind = WorkloadKind::kBatch,
       .pruning = true,
       .warm_cleans = 1,
       .min_reps = 2,
       .tables = 1},
      {.name = "session-hospital-10k",
       .dataset = "hospital",
       .rows = 10000,
       .kind = WorkloadKind::kSession,
       .pruning = false,
       .warm_cleans = 3,
       .min_reps = 10,
       .tables = 10},
      {.name = "outofcore-inpatient-50k",
       .dataset = "inpatient",
       .rows = 50000,
       .kind = WorkloadKind::kOutOfCore,
       .pruning = false,
       .warm_cleans = 3,
       .min_reps = 3,
       .tables = 1},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

// Session rounds: every fifth round is a network edit; the others cycle
// through these Update shapes.
constexpr size_t kEditEvery = 5;
constexpr size_t kBulkOverwriteRows = 100;
constexpr size_t kMinSessionRounds = 25;
constexpr size_t kShardChunkRows = 4096;
// The traced run builds the model this many times layer by layer, and sets
// up this many sessions, and reports medians.
constexpr size_t kLayerRepeats = 3;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DigestText(std::string_view text) {
  return bclean::HashBytes(text.data(), text.size());
}

uint64_t DigestTable(const Table& table) {
  return DigestText(bclean::WriteCsvString(table));
}

Result<uint64_t> DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return DigestText(bytes);
}

/// RowSource decorator accumulating the time spent inside the wrapped
/// source's Next() — the CSV parse share of a streaming build.
class TimedSource : public bclean::RowSource {
 public:
  explicit TimedSource(std::unique_ptr<bclean::RowSource> inner)
      : inner_(std::move(inner)) {}
  const bclean::Schema& schema() const override { return inner_->schema(); }
  Result<bool> Next(std::vector<std::string>* row) override {
    const double start = Now();
    Result<bool> next = inner_->Next(row);
    seconds_ += Now() - start;
    return next;
  }
  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<bclean::RowSource> inner_;
  double seconds_ = 0.0;
};

/// Plans Update batches that the incremental path can mirror exactly:
/// targets are rows in the second half of the table that hold no value's
/// first occurrence, and they are overwritten with copies of rows from the
/// first half (appends copy such rows too). Dictionaries then neither gain
/// values nor change their first-seen order, so no edit is refused for
/// dictionary reasons (see DomainStats::ApplyRowEdits).
class EditPlanner {
 public:
  EditPlanner(const Table& table, uint64_t seed) : rng_(seed) {
    const size_t n = table.num_rows();
    const size_t half = n / 2;
    std::vector<std::unordered_map<std::string_view, size_t>> first(
        table.num_cols());
    for (size_t c = 0; c < table.num_cols(); ++c) {
      const std::vector<std::string>& column = table.column(c);
      for (size_t r = 0; r < n; ++r) first[c].emplace(column[r], r);
    }
    for (size_t r = half; r < n; ++r) {
      bool holds_first = false;
      for (size_t c = 0; c < table.num_cols() && !holds_first; ++c) {
        holds_first = first[c].at(table.column(c)[r]) == r;
      }
      if (!holds_first) targets_.push_back(r);
    }
    constexpr size_t kDonors = 256;
    for (size_t i = 0; i < kDonors && half > 0; ++i) {
      donors_.push_back(table.Row(rng_.UniformIndex(half)));
    }
  }

  bool usable() const {
    return targets_.size() >= kBulkOverwriteRows && !donors_.empty();
  }

  std::vector<RowEdit> Overwrite(size_t count) {
    std::vector<RowEdit> edits;
    std::vector<size_t> picked;
    while (edits.size() < count) {
      size_t target = targets_[rng_.UniformIndex(targets_.size())];
      if (std::find(picked.begin(), picked.end(), target) != picked.end()) {
        continue;
      }
      picked.push_back(target);
      edits.push_back({target, Donor()});
    }
    return edits;
  }

  std::vector<RowEdit> Append() { return {RowEdit{RowEdit::kAppend, Donor()}}; }

 private:
  std::vector<std::string> Donor() {
    return donors_[rng_.UniformIndex(donors_.size())];
  }

  bclean::Rng rng_;
  std::vector<size_t> targets_;
  std::vector<std::vector<std::string>> donors_;
};

struct Context {
  const RunConfig& config;
  Record& record;
  Tracer tracer;
  bclean::UcRegistry ucs;
  BCleanOptions options;
  double start = 0.0;

  Context(const RunConfig& c, Record& r)
      : config(c), record(r), tracer(c.trace), options(c.spec->Options()) {}

  Tracer* traced() { return tracer.enabled() ? &tracer : nullptr; }
  std::string Path(const std::string& name) const {
    return config.dir + "/" + name;
  }
  std::string DirtyPath(size_t table) const {
    return Path("dirty-" + std::to_string(table) + ".csv");
  }
  /// The first cold clean of `table`, which `bclean_perf score` reads.
  std::string CleanedPath(size_t table) const {
    return Path("cleaned-" + std::to_string(table) + ".csv");
  }
  double Elapsed() const { return Now() - start; }

  bclean::ServiceOptions ServiceOpts() const {
    bclean::ServiceOptions opts;
    opts.num_threads = config.threads;
    opts.dispatcher_threads = 1;
    return opts;
  }
  bclean::ShardOptions ShardOpts() const {
    bclean::ShardOptions shard;
    shard.chunk_rows = kShardChunkRows;
    shard.resident_bytes_budget = 0;
    shard.spill_dir = config.dir;
    return shard;
  }
};

/// Whether another repetition of a `last`-second sequence still fits the
/// run's measured time budget.
bool AnotherRep(const Context& ctx, size_t reps, double last) {
  return reps < ctx.config.spec->min_reps ||
         ctx.Elapsed() + last <= ctx.config.seconds;
}

// ------------------------------------------------------------ in-memory

struct Opened {
  std::unique_ptr<Service> service;
  std::shared_ptr<Session> session;
  double setup_s = 0.0;
  double clean_s = 0.0;
  double clean_cpu_s = 0.0;  ///< process CPU seconds during the cold clean
  uint64_t cold_digest = 0;  ///< the cold clean's output CSV
  bclean::CleanStats cold;
  bclean::CleanStats warm;
};

/// Input CSV to a ready session: ReadCsvFile + Service::Open.
Opened OpenInMemory(Context& ctx, Tracer* tracer, size_t table_index) {
  const std::string path = ctx.DirtyPath(table_index);
  Opened opened;
  opened.service = std::make_unique<Service>(ctx.ServiceOpts());
  const double start = Now();
  ScopedSpan setup(tracer, "setup");
  Result<Table> table = [&] {
    ScopedSpan span(tracer, "data.csv_read");
    return bclean::ReadCsvFile(path);
  }();
  if (!ctx.record.Op(table.ok(),
                     "read " + path + ": " + table.status().ToString())) {
    return opened;
  }
  Result<std::shared_ptr<Session>> session = [&] {
    ScopedSpan span(tracer, "service.open");
    return opened.service->Open(ctx.config.spec->name,
                                std::move(table).value(), ctx.ucs,
                                ctx.options);
  }();
  opened.setup_s = Now() - start;
  if (ctx.record.Op(session.ok(), "Open: " + session.status().ToString())) {
    opened.session = std::move(session).value();
  }
  return opened;
}

/// Session::Clean + WriteCsvFile; returns the wall seconds and records the
/// output digest under `group` (and in `*digest_out` when non-null).
double CleanToFile(Context& ctx, Tracer* tracer, Session& session,
                   const std::string& path, const std::string& span_name,
                   const std::string& group, bclean::CleanStats* stats,
                   uint64_t* digest_out = nullptr) {
  const double start = Now();
  Status written = Status::OK();
  {
    ScopedSpan span(tracer, span_name);
    CleanResult result = [&] {
      ScopedSpan clean(tracer, "service.clean");
      return session.Clean();
    }();
    if (stats != nullptr) *stats = result.stats;
    ScopedSpan write(tracer, "data.csv_write");
    written = bclean::WriteCsvFile(result.table, path);
  }
  const double seconds = Now() - start;
  if (ctx.record.Op(written.ok(),
                    "write " + path + ": " + written.ToString())) {
    Result<uint64_t> digest = DigestFile(path);
    if (ctx.record.Op(digest.ok(), digest.status().ToString())) {
      ctx.record.Digest(group, digest.value());
      if (digest_out != nullptr) *digest_out = digest.value();
    }
  }
  return seconds;
}

double CacheHitRatio(const bclean::CleanStats& stats) {
  const size_t lookups = stats.cache_hits + stats.cache_misses;
  return lookups == 0 ? 0.0 : static_cast<double>(stats.cache_hits) / lookups;
}

/// Setup, cold clean and warm clean of one fresh session: the steps every
/// in-memory workload starts with. Repetitions cycle through the
/// workload's tables; each table's first cold clean is the scored output.
Opened SetupAndClean(Context& ctx, Tracer* tracer, size_t rep) {
  const size_t table = rep % ctx.config.spec->tables;
  Opened opened = OpenInMemory(ctx, tracer, table);
  if (opened.session == nullptr) return opened;
  Record& record = ctx.record;
  record.Sample("setup_s", opened.setup_s);
  const std::string group = "outputs.t" + std::to_string(table);
  const std::string out = rep < ctx.config.spec->tables
                              ? ctx.CleanedPath(table)
                              : ctx.Path("cleaned_rep.csv");
  const double cpu = CpuSeconds();
  opened.clean_s = CleanToFile(ctx, tracer, *opened.session, out,
                               "clean.cold", group, &opened.cold,
                               &opened.cold_digest);
  opened.clean_cpu_s = CpuSeconds() - cpu;
  record.Sample("clean_s", opened.clean_s);
  for (size_t i = 0; i < ctx.config.spec->warm_cleans; ++i) {
    record.Sample("warm_clean_s",
                  CleanToFile(ctx, tracer, *opened.session,
                              ctx.Path("cleaned_warm.csv"), "clean.warm",
                              group, &opened.warm));
  }
  return opened;
}

/// Engine-level figures of a session's cold and warm cleans.
void RecordCleanLayer(Context& ctx, const Opened& opened) {
  auto& v = ctx.record.values;
  v["engine.cache_hit_ratio"] = CacheHitRatio(opened.cold);
  v["engine.warm_cache_hit_ratio"] = CacheHitRatio(opened.warm);
  v["engine.clean_cpu_util"] =
      opened.clean_cpu_s /
      (opened.clean_s * static_cast<double>(ctx.config.threads));
}

/// Session::Update with its latency sample and the path that served it
/// (the service counts incremental updates; every other Update rebuilt).
void TimedUpdate(Context& ctx, Tracer* tracer, Opened& opened,
                 const std::vector<RowEdit>& edits) {
  const size_t incremental_before =
      opened.service->stats().incremental_updates;
  const double start = Now();
  Status status = [&] {
    ScopedSpan span(tracer, "service.update");
    return opened.session->Update(edits);
  }();
  const double seconds = Now() - start;
  if (!ctx.record.Op(status.ok(), "Update: " + status.ToString())) return;
  ctx.record.Sample("update_s", seconds);
  const bool incremental =
      opened.service->stats().incremental_updates > incremental_before;
  ctx.record.Sample(
      incremental ? "update_incremental_s" : "update_fallback_s", seconds);
}

/// CleanAsync submit-to-result; returns the result's digest (0 on failure).
uint64_t TimedReclean(Context& ctx, Tracer* tracer, Session& session,
                      const std::string& sample, double prior_seconds,
                      bclean::CleanStats* total) {
  const double start = Now();
  Result<CleanResult> result = [&]() -> Result<CleanResult> {
    ScopedSpan span(tracer, "service.reclean");
    auto submitted = session.CleanAsync();
    if (!submitted.ok()) return submitted.status();
    std::future<Result<CleanResult>> future = std::move(submitted).value();
    return future.get();
  }();
  const double seconds = Now() - start;
  if (!ctx.record.Op(result.ok(),
                     "CleanAsync: " + result.status().ToString())) {
    return 0;
  }
  const bclean::CleanStats& stats = result.value().stats;
  ctx.record.Sample(sample, prior_seconds + seconds);
  ctx.record.Sample("dispatcher.queue_wait_s", seconds - stats.seconds);
  ctx.record.Sample("dispatcher.run_s", stats.seconds);
  total->cache_hits += stats.cache_hits;
  total->cache_misses += stats.cache_misses;
  return DigestTable(result.value().table);
}

void RecordServiceStats(Context& ctx, const Service& service) {
  const bclean::ServiceStats s = service.stats();
  auto& v = ctx.record.values;
  v["service.stats.sessions_opened"] = s.sessions_opened;
  v["service.stats.sharded_sessions_opened"] = s.sharded_sessions_opened;
  v["service.stats.engine_cache_hits"] = s.engine_cache_hits;
  v["service.stats.engine_cache_misses"] = s.engine_cache_misses;
  v["service.stats.parts_layers_reused"] = s.parts_layers_reused;
  v["service.stats.repair_caches_created"] = s.repair_caches_created;
  v["service.stats.repair_caches_declined"] = s.repair_caches_declined;
  v["service.stats.jobs_queued"] = s.jobs_queued;
  v["service.stats.jobs_rejected"] = s.jobs_rejected;
  v["service.stats.jobs_completed"] = s.jobs_completed;
  v["service.stats.jobs_failed"] = s.jobs_failed;
  v["service.stats.incremental_updates"] = s.incremental_updates;
}

/// One model rebuild of the traced run: BCleanEngine's construction replayed
/// layer by layer through the public calls, each in its own span, then (if
/// `clean_passes`) the clean pass with and without a per-pass repair cache.
/// Its fingerprint and outputs join the "rebuild_vs_session" digest groups,
/// which the traced session's own (CompareWithRebuild) must match.
void LayeredRebuild(Context& ctx, Table dirty, bool clean_passes) {
  Tracer* tracer = ctx.traced();
  Record& record = ctx.record;
  const size_t threads = ctx.config.threads;
  bclean::ThreadPool pool(threads);
  const bclean::UcRegistry effective =
      ctx.options.use_user_constraints ? ctx.ucs : ctx.ucs.Empty();
  ScopedSpan rebuild(tracer, "rebuild");
  bclean::ModelParts parts;
  parts.dirty = std::make_shared<const Table>(std::move(dirty));
  {
    ScopedSpan span(tracer, "data.domain_stats");
    bclean::DomainStats stats = bclean::DomainStats::Build(*parts.dirty);
    Status capacity = bclean::CompensatoryModel::CheckCapacity(stats);
    if (!record.Op(capacity.ok(), "CheckCapacity: " + capacity.ToString())) {
      return;
    }
    parts.stats =
        std::make_shared<const bclean::DomainStats>(std::move(stats));
  }
  {
    ScopedSpan span(tracer, "core.uc_mask");
    parts.mask = std::make_shared<const bclean::UcMask>(
        bclean::UcMask::Build(effective, *parts.stats));
  }
  {
    ScopedSpan span(tracer, "core.compensatory_build");
    parts.compensatory = std::make_shared<const bclean::CompensatoryModel>(
        bclean::CompensatoryModel::Build(*parts.stats, *parts.mask,
                                         ctx.options.compensatory, threads,
                                         &pool));
  }
  bclean::StructureOptions structure = ctx.options.structure;
  if (structure.num_threads == 0) structure.num_threads = threads;
  bclean::Matrix observations;
  {
    ScopedSpan span(tracer, "fdx.similarity_obs");
    observations =
        bclean::BuildSimilarityObservations(*parts.dirty, structure, &pool);
  }
  record.values["fdx.similarity_calls"] =
      static_cast<double>(observations.rows() * observations.cols());
  Result<bclean::LearnedStructure> learned = [&] {
    ScopedSpan span(tracer, "matrix.glasso_ldl");
    return bclean::LearnStructureFromObservations(
        observations, bclean::DomainSizeOrdering(*parts.stats), structure);
  }();
  if (!record.Op(learned.ok(), "LearnStructure: " +
                                   learned.status().ToString())) {
    return;
  }
  bclean::BayesianNetwork network(parts.dirty->schema());
  {
    ScopedSpan span(tracer, "bn.cpt_fit");
    // Cycle-creating edges are skipped, exactly as BuildNetwork does.
    for (const auto& [parent, child] : learned.value().edges) {
      (void)network.AddEdge(parent, child);
    }
    network.Fit(*parts.stats);
  }
  record.values["bn.edges"] = static_cast<double>(network.dag().num_edges());
  Result<std::unique_ptr<BCleanEngine>> engine = [&] {
    ScopedSpan span(tracer, "engine.create");
    return BCleanEngine::CreateFromFittedParts(std::move(parts), effective,
                                               std::move(network),
                                               ctx.options);
  }();
  if (!record.Op(engine.ok(), "CreateFromFittedParts: " +
                                  engine.status().ToString())) {
    return;
  }
  record.Digest("fingerprint.rebuild_vs_session",
                engine.value()->ModelFingerprint());
  if (!clean_passes) return;
  CleanResult cached = [&] {
    ScopedSpan span(tracer, "engine.clean_pass");
    return engine.value()->RunClean(&pool, nullptr, true);
  }();
  CleanResult uncached = [&] {
    ScopedSpan span(tracer, "engine.clean_pass_nocache");
    return engine.value()->RunClean(&pool, nullptr, false);
  }();
  record.Digest("outputs.rebuild_vs_session", DigestTable(cached.table));
  record.Digest("outputs.rebuild_vs_session", DigestTable(uncached.table));
  const bclean::CleanStats& s = uncached.stats;
  auto& v = record.values;
  v["engine.cells_scanned"] = s.cells_scanned;
  v["engine.cells_skipped_by_filter"] = s.cells_skipped_by_filter;
  v["engine.cells_inferred"] = s.cells_inferred;
  v["engine.candidates_evaluated"] = s.candidates_evaluated;
  v["engine.cells_changed"] = s.cells_changed;
  v["engine.candidates_per_s"] =
      s.seconds > 0 ? static_cast<double>(s.candidates_evaluated) / s.seconds
                    : 0.0;
  v["engine.pass_cache_hit_ratio"] = CacheHitRatio(cached.stats);
}

/// The traced run's kLayerRepeats layer-by-layer rebuilds over the first
/// dirty table, with `between` called after each but the last; the last one
/// also runs the clean passes.
void LayeredRebuilds(Context& ctx, const std::function<void()>& between) {
  Result<Table> table = bclean::ReadCsvFile(ctx.DirtyPath(0));
  if (!ctx.record.Op(table.ok(), "rebuild input: " +
                                     table.status().ToString())) {
    return;
  }
  for (size_t i = 1; i < kLayerRepeats; ++i) {
    LayeredRebuild(ctx, table.value(), false);
    between();
  }
  LayeredRebuild(ctx, std::move(table).value(), true);
}

/// Adds a freshly opened session over the first table — its fingerprint
/// and its cold clean — to the groups the layered rebuild must match.
void CompareWithRebuild(Context& ctx, const Opened& opened) {
  ctx.record.Digest("fingerprint.rebuild_vs_session",
                    opened.session->model_fingerprint());
  ctx.record.Digest("outputs.rebuild_vs_session", opened.cold_digest);
}

/// The traced run's prologue for an in-memory workload: the layered
/// rebuilds, alternating with traced setups of the first table, so that
/// with the workload's own setup there are kLayerRepeats of each.
void TracedPrologue(Context& ctx) {
  LayeredRebuilds(ctx, [&] { OpenInMemory(ctx, ctx.traced(), 0); });
}

void RunBatch(Context& ctx) {
  Tracer* tracer = ctx.traced();
  Record& record = ctx.record;
  if (tracer != nullptr) TracedPrologue(ctx);
  double last = 0.0;
  for (size_t rep = 0; AnotherRep(ctx, rep, last); ++rep) {
    const double rep_start = Now();
    Opened opened = SetupAndClean(ctx, tracer, rep);
    if (opened.session == nullptr) return;
    if (tracer != nullptr) CompareWithRebuild(ctx, opened);
    last = Now() - rep_start;
    if (rep == 0) {
      // One 1-row overwrite; past the incremental row limit it rebuilds.
      EditPlanner planner(opened.session->dirty(), ctx.config.seed);
      if (record.Op(planner.usable(), "no editable rows")) {
        TimedUpdate(ctx, tracer, opened, planner.Overwrite(1));
      }
    }
    record.values["peak_rss_mb"] = PeakRssMb();
    if (tracer != nullptr) {
      RecordCleanLayer(ctx, opened);
      RecordServiceStats(ctx, *opened.service);
      return;
    }
  }
}

/// Chooses the next user edit on the paper's Hospital FD edges (Section
/// 7.3.2): remove the first candidate edge the network has, or add the
/// first one that keeps it acyclic.
bclean::NetworkEdit NextNetworkEdit(const bclean::BayesianNetwork& network) {
  static const std::pair<const char*, const char*> kCandidates[] = {
      {"zip_code", "city"},
      {"zip_code", "state"},
      {"zip_code", "county_name"},
      {"provider_number", "hospital_name"},
  };
  for (const auto& [parent, child] : kCandidates) {
    Result<size_t> p = network.VariableByName(parent);
    Result<size_t> c = network.VariableByName(child);
    if (!p.ok() || !c.ok()) continue;
    if (network.dag().HasEdge(p.value(), c.value())) {
      return bclean::NetworkEdit::RemoveEdge(parent, child);
    }
    if (!network.dag().HasPath(c.value(), p.value())) {
      return bclean::NetworkEdit::AddEdge(parent, child);
    }
  }
  return bclean::NetworkEdit::AddEdge(kCandidates[0].first,
                                      kCandidates[0].second);
}

void RunSession(Context& ctx) {
  Tracer* tracer = ctx.traced();
  Record& record = ctx.record;
  if (tracer != nullptr) TracedPrologue(ctx);
  // The first fresh session serves the interactive rounds; the other fresh
  // sessions (setup / cold / warm over the next tables) are interleaved
  // with the rounds, so the samples of both span the whole run and a
  // slow spell of the machine shifts fewer of them.
  Opened interactive = SetupAndClean(ctx, tracer, 0);
  if (interactive.session == nullptr) return;
  if (tracer != nullptr) {
    RecordCleanLayer(ctx, interactive);
    CompareWithRebuild(ctx, interactive);
  }
  EditPlanner planner(interactive.session->dirty(), ctx.config.seed);
  if (!record.Op(planner.usable(), "no editable rows")) return;
  Session& session = *interactive.session;
  bclean::CleanStats reclean_cache;
  uint64_t last_digest = 0;
  size_t updates = 0;
  // One round: a network edit every kEditEvery-th round, else an Update
  // (cycling through the three shapes); each followed by CleanAsync.
  auto round = [&](size_t index) {
    if (index % kEditEvery == kEditEvery - 1) {
      const bclean::NetworkEdit edit = NextNetworkEdit(session.network());
      const double start = Now();
      Status status = [&] {
        ScopedSpan span(tracer, "service.edit_network");
        return session.EditNetwork(edit);
      }();
      const double edit_s = Now() - start;
      if (!record.Op(status.ok(), "EditNetwork: " + status.ToString())) {
        return false;
      }
      last_digest =
          TimedReclean(ctx, tracer, session, "edit_s", edit_s, &reclean_cache);
      return true;
    }
    std::vector<RowEdit> edits;
    switch (updates++ % 3) {
      case 0: edits = planner.Overwrite(1); break;
      case 1: edits = planner.Overwrite(kBulkOverwriteRows); break;
      default: edits = planner.Append(); break;
    }
    TimedUpdate(ctx, tracer, interactive, edits);
    last_digest =
        TimedReclean(ctx, tracer, session, "reclean_s", 0.0, &reclean_cache);
    return true;
  };
  const size_t setups = tracer != nullptr ? 1 : ctx.config.spec->min_reps;
  const size_t rounds_between = kMinSessionRounds / setups;
  size_t rounds = 0;
  bool ok = true;
  for (size_t rep = 1; ok && rep <= setups; ++rep) {
    for (size_t i = 0; ok && i < rounds_between; ++i) ok = round(rounds++);
    if (rep < setups && SetupAndClean(ctx, tracer, rep).session == nullptr) {
      return;
    }
  }
  // The traced run stops at kMinSessionRounds, so that its counts depend
  // on the workload alone and not on how fast the rounds ran.
  while (ok && (rounds < kMinSessionRounds ||
                (tracer == nullptr && ctx.Elapsed() < ctx.config.seconds))) {
    ok = round(rounds++);
  }
  record.values["peak_rss_mb"] = PeakRssMb();
  record.values["service.reclean_cache_hit_ratio"] =
      CacheHitRatio(reclean_cache);
  RecordServiceStats(ctx, *interactive.service);
  // The session's final model, built cold over its final table with its
  // (user-edited) network, must clean to the bytes of the last round.
  Result<std::unique_ptr<BCleanEngine>> twin = BCleanEngine::CreateWithNetwork(
      session.dirty(), ctx.ucs, session.network(), ctx.options);
  if (record.Op(twin.ok(), "cold twin: " + twin.status().ToString())) {
    bclean::ThreadPool pool(ctx.config.threads);
    record.Digest("fingerprint.incremental_vs_cold",
                  session.model_fingerprint());
    record.Digest("fingerprint.incremental_vs_cold",
                  twin.value()->ModelFingerprint());
    record.Digest("outputs.incremental_vs_cold", last_digest);
    record.Digest("outputs.incremental_vs_cold",
                  DigestTable(twin.value()->RunClean(&pool).table));
  }
}

// ----------------------------------------------------------- out-of-core

struct ShardedOpened {
  std::unique_ptr<Service> service;
  std::shared_ptr<bclean::ShardedSession> session;
  double setup_s = 0.0;
};

/// Streams the dirty CSV through MakeCsvFileSource into OpenSharded.
ShardedOpened OpenOutOfCore(Context& ctx, Tracer* tracer) {
  ShardedOpened opened;
  opened.service = std::make_unique<Service>(ctx.ServiceOpts());
  const double start = Now();
  ScopedSpan setup(tracer, "setup");
  Result<std::unique_ptr<bclean::RowSource>> source =
      bclean::MakeCsvFileSource(ctx.DirtyPath(0));
  if (!ctx.record.Op(source.ok(), "source: " + source.status().ToString())) {
    return opened;
  }
  TimedSource timed(std::move(source).value());
  Result<std::shared_ptr<bclean::ShardedSession>> session = [&] {
    ScopedSpan span(tracer, "service.open_sharded");
    auto sharded = opened.service->OpenSharded(
        ctx.config.spec->name, timed, ctx.ucs, ctx.options, ctx.ShardOpts());
    if (tracer != nullptr) {
      tracer->AddFolded(span.id(), "data.csv_read", timed.seconds());
    }
    return sharded;
  }();
  opened.setup_s = Now() - start;
  if (ctx.record.Op(session.ok(), "OpenSharded: " +
                                      session.status().ToString())) {
    opened.session = std::move(session).value();
  }
  return opened;
}

double ShardedCleanToFile(Context& ctx, Tracer* tracer,
                          bclean::ShardedSession& session,
                          const std::string& path,
                          const std::string& span_name) {
  const double start = Now();
  Status status = [&] {
    ScopedSpan span(tracer, span_name);
    return session.CleanToCsv(path);
  }();
  const double seconds = Now() - start;
  if (ctx.record.Op(status.ok(), "CleanToCsv: " + status.ToString())) {
    Result<uint64_t> digest = DigestFile(path);
    if (ctx.record.Op(digest.ok(), digest.status().ToString())) {
      ctx.record.Digest("outputs.t0", digest.value());
    }
  }
  return seconds;
}

/// BuildShardedModel called directly, so the traced run can split the
/// streaming build from the CSV parse it drives.
void TracedStreamBuild(Context& ctx) {
  Tracer* tracer = ctx.traced();
  bclean::ThreadPool pool(ctx.config.threads);
  const bclean::UcRegistry effective =
      ctx.options.use_user_constraints ? ctx.ucs : ctx.ucs.Empty();
  ScopedSpan span(tracer, "shard.build");
  Result<std::unique_ptr<bclean::RowSource>> source =
      bclean::MakeCsvFileSource(ctx.DirtyPath(0));
  if (!ctx.record.Op(source.ok(), "source: " + source.status().ToString())) {
    return;
  }
  TimedSource timed(std::move(source).value());
  Result<bclean::ShardedModel> model = bclean::BuildShardedModel(
      timed, effective, ctx.options, ctx.ShardOpts(), &pool);
  tracer->AddFolded(span.id(), "data.csv_read_stream", timed.seconds());
  ctx.record.Op(model.ok(), "BuildShardedModel: " + model.status().ToString());
}

void RunOutOfCore(Context& ctx) {
  Tracer* tracer = ctx.traced();
  Record& record = ctx.record;
  if (tracer != nullptr) {
    // Direct streaming builds alternating with traced setups, so that with
    // the repetition's own setup there are kLayerRepeats of each.
    for (size_t i = 1; i < kLayerRepeats; ++i) {
      TracedStreamBuild(ctx);
      OpenOutOfCore(ctx, tracer);
    }
    TracedStreamBuild(ctx);
  }
  double last = 0.0;
  for (size_t rep = 0; AnotherRep(ctx, rep, last); ++rep) {
    const double rep_start = Now();
    ShardedOpened opened = OpenOutOfCore(ctx, tracer);
    if (opened.session == nullptr) return;
    record.Sample("setup_s", opened.setup_s);
    const std::string out =
        rep == 0 ? ctx.CleanedPath(0) : ctx.Path("cleaned_rep.csv");
    const double cpu = CpuSeconds();
    const double clean_s =
        ShardedCleanToFile(ctx, tracer, *opened.session, out, "clean.cold");
    const double clean_cpu = CpuSeconds() - cpu;
    record.Sample("clean_s", clean_s);
    for (size_t i = 0; i < ctx.config.spec->warm_cleans; ++i) {
      record.Sample("warm_clean_s",
                    ShardedCleanToFile(ctx, tracer, *opened.session,
                                       ctx.Path("cleaned_warm.csv"),
                                       "clean.warm"));
    }
    last = Now() - rep_start;
    if (tracer == nullptr) continue;

    const bclean::ShardStore& store = opened.session->store();
    uint64_t spill = 0;
    for (size_t i = 0; i < store.num_chunks(); ++i) {
      spill += store.chunk(i).payload_bytes;
    }
    auto& v = record.values;
    v["shard.spill_bytes"] = static_cast<double>(spill);
    v["shard.chunks"] = static_cast<double>(store.num_chunks());
    v["shard.peak_resident_bytes"] =
        static_cast<double>(store.peak_resident_bytes());
    v["shard.clean_cpu_util"] =
        clean_cpu / (clean_s * static_cast<double>(ctx.config.threads));
    v["peak_rss_mb"] = PeakRssMb();
    RecordServiceStats(ctx, *opened.service);
    const uint64_t sharded_fingerprint = opened.session->model_fingerprint();
    opened = ShardedOpened();
    // The sharded determinism contract: an in-memory session over the same
    // rows has the same model and cleans to the same bytes. Its cold clean
    // also supplies the engine-level cache and CPU figures.
    ScopedSpan twin_span(tracer, "inmemory_twin");
    Opened twin = SetupAndClean(ctx, tracer, 1);
    if (twin.session == nullptr) return;
    RecordCleanLayer(ctx, twin);
    record.Digest("fingerprint.sharded_vs_inmemory", sharded_fingerprint);
    record.Digest("fingerprint.sharded_vs_inmemory",
                  twin.session->model_fingerprint());
    Result<uint64_t> sharded = DigestFile(ctx.CleanedPath(0));
    Result<uint64_t> in_memory = DigestFile(ctx.Path("cleaned_rep.csv"));
    if (record.Op(sharded.ok() && in_memory.ok(), "digest outputs")) {
      record.Digest("outputs.sharded_vs_inmemory", sharded.value());
      record.Digest("outputs.sharded_vs_inmemory", in_memory.value());
    }
    CompareWithRebuild(ctx, twin);
    twin = Opened();
    LayeredRebuilds(ctx, [] {});
    return;
  }
  record.values["peak_rss_mb"] = PeakRssMb();
}

/// What the tracer adds per span (Begin + End), timed on a scratch tracer:
/// the median over batches of spans with the longest span name in use.
double SpanCostSeconds() {
  constexpr size_t kBatches = 5;
  constexpr size_t kSpansPerBatch = 20000;
  std::vector<double> per_span;
  for (size_t b = 0; b < kBatches; ++b) {
    Tracer scratch(true);
    const double start = Now();
    for (size_t i = 0; i < kSpansPerBatch; ++i) {
      ScopedSpan span(&scratch, "engine.clean_pass_nocache");
    }
    per_span.push_back((Now() - start) / kSpansPerBatch);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[kBatches / 2];
}

}  // namespace

void RunWorkload(const RunConfig& config, Record& record) {
  Context ctx(config, record);
  // The UCs are a function of the schema alone; a small instance of the
  // dataset supplies them without generating the table in this process.
  Result<bclean::Dataset> schema_only =
      bclean::MakeBenchmark(config.spec->dataset, 64, config.seed);
  if (!record.Op(schema_only.ok(), "constraints: " +
                                       schema_only.status().ToString())) {
    return;
  }
  ctx.ucs = std::move(schema_only.value().ucs);
  record.Digest("ucs.generated_vs_run", config.generated_ucs_digest);
  record.Digest("ucs.generated_vs_run", bclean::DigestUcRegistry(ctx.ucs));
  ctx.start = Now();
  switch (config.spec->kind) {
    case WorkloadKind::kBatch: RunBatch(ctx); break;
    case WorkloadKind::kSession: RunSession(ctx); break;
    case WorkloadKind::kOutOfCore: RunOutOfCore(ctx); break;
  }
  record.values["measured_s"] = ctx.Elapsed();
  record.spans = ctx.tracer.spans();
  if (config.trace) record.values["trace.span_cost_s"] = SpanCostSeconds();
}

}  // namespace perfbench
