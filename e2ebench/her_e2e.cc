// her_e2e — the workload binary of the end-to-end benchmark. run.py drives
// it; every subcommand prints one JSON object as its last stdout line.
//
//   her_e2e cold-link   --seed=S --seconds=T --trace=0|1
//       Generate a ukgov profile, then repeat the `her_cli evaluate` job
//       (HerSystem::Train, held-out F1, APairParallel with 4 workers) on a
//       fresh system until T seconds have passed.
//   her_e2e scale-match --seed=S --seconds=T --trace=0|1
//       Generate a ScalingSpec tier and repeat BspAllMatch::RunOnCandidates
//       (4 workers, edge-cut) with training-free deterministic scorers.
//   her_e2e serve-prepare --dir=D
//       Generate the serve dataset (one fixed ukgov world) and cold-start a
//       HerServer in D, which trains and writes D/model.snap.
//   her_e2e serve-step --op-seed=K --dir=D --rate=R --ops=N
//                      --deadline-ms=M --records=FILE --trace=0|1
//       Open a HerServer in D (warm start from D/model.snap), submit 1000
//       untimed reads back to back, then N ops drawn from seed K from one
//       thread on an open-loop schedule of R ops/s. Each op's
//       timings and outcome go to a shared memory map of FILE as soon as it
//       completes, so they survive an abort of this process.
//
// With --trace=1 the link and match subcommands add a traced pass: spans
// around the calls into each module plus the counters the program already
// exposes. Spans are recorded here, around public calls; nothing inside
// the library is instrumented.

#include <fcntl.h>
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/proc_stats.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/dataset.h"
#include "graph/partition.h"
#include "learn/her_system.h"
#include "learn/metrics.h"
#include "learn/random_search.h"
#include "learn/trainer.h"
#include "parallel/bsp_engine.h"
#include "rdb2rdf/rdb2rdf.h"
#include "serve/server.h"
#include "sim/scores.h"

namespace {

using namespace her;

constexpr uint32_t kWorkers = 4;      // load never exceeds the 4-core host
constexpr int kColdLinkEntities = 120;  // ukgov-120, as in her_cli evaluate
constexpr int kColdLinkDatasets = 4;
constexpr int kServeEntities = 120;
constexpr int kScaleEntities = 12'000;  // ~100k vertices of G
constexpr size_t kServeWarmupOps = 1000;  // untimed reads before a step

/// --key=value flags.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        std::fprintf(stderr, "bad argument '%s'\n", a.c_str());
        std::exit(2);
      }
      kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }
  double Num(const std::string& key, double def) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }
  uint64_t U64(const std::string& key, uint64_t def) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Flat JSON object writer; keys keep insertion order.
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void List(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", vs[i]);
      s += buf;
    }
    Raw(key, s + "]");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

/// Top-level spans of a traced pass, in call order. Spans never nest, so
/// their sum plus the unattributed rest is the pass's wall time.
class Spans {
 public:
  template <typename F>
  auto Run(const std::string& name, F&& f) {
    WallTimer t;
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Add(name, t.Seconds());
    } else {
      auto out = f();
      Add(name, t.Seconds());
      return out;
    }
  }
  double Get(const std::string& name) const {
    double s = 0.0;
    for (const auto& [n, secs] : spans_) {
      if (n == name) s += secs;
    }
    return s;
  }
  double Sum() const {
    double s = 0.0;
    for (const auto& span : spans_) s += span.second;
    return s;
  }

 private:
  void Add(const std::string& name, double secs) {
    spans_.emplace_back(name, secs);
  }
  std::vector<std::pair<std::string, double>> spans_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs a set-up step at least `min_reps` times and until `budget_s` has
/// gone (at most 200 times); returns the median seconds. `make` replaces
/// the caller's state each time, so the last set-up is the one kept.
template <typename F>
double MedianSetup(F&& make, size_t min_reps = 3, double budget_s = 1.0) {
  std::vector<double> secs;
  WallTimer total;
  while (secs.size() < min_reps ||
         (total.Seconds() < budget_s && secs.size() < 200)) {
    WallTimer t;
    make();
    secs.push_back(t.Seconds());
  }
  return Median(secs);
}

uint64_t PiDigest(const std::vector<MatchPair>& pi) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [u, v] : pi) {
    h = (h ^ u) * 1099511628211ull;
    h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void StampBuild(Json* out) {
  out->Str("build_type", HER_E2E_BUILD_TYPE);
  out->Str("compiler", HER_E2E_COMPILER);
#ifdef HER_FAULTS_ENABLED
  out->Int("her_faults", 1);
#else
  out->Int("her_faults", 0);
#endif
}

double PeakRssMb() { return static_cast<double>(PeakRssBytes()) / (1 << 20); }

/// Resets the process's peak RSS (VmHWM) to its current RSS, so the next
/// PeakRssMb() is the peak of the work in between. No-op where the kernel
/// does not support it.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The counters of one APair that the traced output reports.
void AddParallelCounters(const ParallelResult& r, double apair_s, Json* out) {
  const size_t calls = r.stats.para_match_calls;
  out->Num("parallel.apair_s", apair_s);
  out->Num("parallel.simulated_s", r.simulated_seconds);
  out->Num("parallel.outside_supersteps_s", apair_s - r.simulated_seconds);
  out->Int("parallel.supersteps", r.supersteps);
  out->Int("parallel.messages", r.messages);
  out->Int("parallel.wire_bytes", r.message_bytes_wire);
  out->Int("parallel.max_worker_calls", r.max_worker_calls);
  out->Num("parallel.worker_skew",
           calls == 0 ? 0.0
                      : static_cast<double>(r.max_worker_calls) * kWorkers /
                            static_cast<double>(calls));
  out->Int("core.paramatch_calls", calls);
  out->Num("graph.edge_cut_fraction", r.partition.edge_cut_fraction);
  out->Int("graph.edge_cut_edges", r.partition.edge_cut_edges);
  out->Int("graph.border_vertices", r.partition.border_vertices);
}

// ---------------------------------------------------------------- cold-link

struct Linked {
  std::unique_ptr<HerSystem> system;
  double train_s = 0.0;
  double eval_s = 0.0;
  double apair_s = 0.0;
  double f1 = 0.0;
  double ptable_build_s = 0.0;
  ParallelResult result;
};

/// One `her_cli evaluate` job on a fresh system: Train on the validation
/// split, held-out F1, then APair on the BSP runtime. `spans` must hold no
/// earlier job.
Linked LinkOnce(const GeneratedDataset& data, const AnnotationSplit& split,
                Spans* spans) {
  Linked out;
  out.system = std::make_unique<HerSystem>(data.canonical, data.g, HerConfig{});
  HerSystem& sys = *out.system;
  spans->Run("learn.train", [&] { sys.Train(data.path_pairs, split.validation); });
  out.ptable_build_s = sys.engine().stats().ptable_build_seconds;
  out.f1 = spans->Run("learn.eval", [&] {
    return EvaluatePredictor(split.test, [&](VertexId u, VertexId v) {
             return sys.SPairVertex(u, v);
           }).F1();
  });
  out.result = spans->Run("parallel.apair",
                          [&] { return sys.APairParallel(kWorkers); });
  out.train_s = spans->Get("learn.train");
  out.eval_s = spans->Get("learn.eval");
  out.apair_s = spans->Get("parallel.apair");
  return out;
}

int ColdLink(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const double seconds = args.Num("seconds", 10);
  const bool trace = args.U64("trace", 0) != 0;
  // The seed draws kColdLinkDatasets ukgov worlds; jobs rotate over them,
  // so a run's figures span several datasets, and the first dataset is
  // linked at least twice (the determinism check).
  std::vector<DatasetSpec> specs;
  for (int i = 0; i < kColdLinkDatasets; ++i) {
    DatasetSpec spec = UkgovSpec(seed * 100 + static_cast<uint64_t>(i));
    spec.num_entities = kColdLinkEntities;
    specs.push_back(spec);
  }
  const DatasetSpec& spec = specs.front();

  Json out;
  out.Str("workload", "cold-link");
  out.Str("dataset", std::to_string(kColdLinkDatasets) + " x ukgov-" +
                         std::to_string(kColdLinkEntities));
  out.Int("datasets", kColdLinkDatasets);  // job j links dataset j % datasets
  out.Int("entities", kColdLinkEntities);  // per dataset
  StampBuild(&out);

  // Set-up: generate the datasets (f_D included) and split the annotations.
  std::vector<std::unique_ptr<GeneratedDataset>> data(specs.size());
  std::vector<double> generate0;  // Generate of dataset 0 alone
  const auto generate_all = [&] {
    for (size_t i = 0; i < specs.size(); ++i) {
      data[i].reset();
      WallTimer t;
      data[i] = std::make_unique<GeneratedDataset>(Generate(specs[i]));
      if (i == 0) generate0.push_back(t.Seconds());
    }
  };
  // One set-up burst now and a short one before every job; setup_s is the
  // median burst, so its samples span the run and not only its first
  // second (a 4 ms set-up moved by half within one second on a shared
  // host). Generate is deterministic, so every burst makes the same data.
  std::vector<double> setup_bursts{MedianSetup(generate_all)};
  std::vector<AnnotationSplit> splits;
  for (const auto& d : data) splits.push_back(SplitAnnotations(d->annotations));

  bool correct = true;
  std::string why;
  std::vector<double> link, train, apair, job0, roots, pairs_per_s, rss;
  std::vector<double> f1(specs.size(), -1.0);
  std::vector<uint64_t> digest(specs.size(), 0);
  size_t attempted = 0, failed = 0;
  WallTimer clock;
  while (link.size() <= specs.size() || clock.Seconds() < seconds) {
    const size_t i = link.size() % specs.size();
    Spans untraced;
    setup_bursts.push_back(MedianSetup(generate_all, 5, 0.0));
    // Return what earlier jobs freed first: the job's peak would otherwise
    // depend on how much the allocator kept (19 to 42 MB on one dataset).
    malloc_trim(0);
    ResetPeakRss();
    WallTimer job;
    const Linked l = LinkOnce(*data[i], splits[i], &untraced);
    if (i == 0) job0.push_back(job.Seconds());
    rss.push_back(PeakRssMb());
    if (!l.result.status.ok()) {
      std::fprintf(stderr, "APair failed: %s\n",
                   l.result.status.ToString().c_str());
      return 1;
    }
    const uint64_t d = PiDigest(l.result.matches);
    if (f1[i] < 0) {
      digest[i] = d;
      f1[i] = l.f1;
    } else if (d != digest[i] || l.f1 != f1[i]) {
      correct = false;
      why = "cold-link: Pi digest or F1 differs between jobs on one dataset";
    }
    attempted += l.result.outcomes.size();
    failed += l.result.unresolved_pairs;
    link.push_back(l.train_s + l.apair_s);
    train.push_back(l.train_s);
    apair.push_back(l.apair_s);
    roots.push_back(static_cast<double>(l.result.outcomes.size()));
    pairs_per_s.push_back(roots.back() / l.apair_s);
  }
  double f1_sum = 0.0;
  std::string digests;
  for (size_t i = 0; i < specs.size(); ++i) {
    f1_sum += f1[i];
    digests += (i ? "," : "") + Hex(digest[i]);
  }
  out.Num("setup_s", Median(setup_bursts));
  out.List("link_s", link);
  out.List("roots", roots);
  out.List("rss_mb", rss);
  out.List("train_s", train);
  out.List("match_s", apair);
  out.List("pairs_per_s", pairs_per_s);
  out.Num("f1", f1_sum / static_cast<double>(specs.size()));
  out.Str("pi_digest", digests);
  out.Int("attempted", attempted);
  out.Int("failed", failed);

  if (trace) {
    // One traced pass over the job on dataset 0, then single-layer probes.
    // The job's traced wall time minus the untraced medians of the same
    // job (Generate of dataset 0, link jobs on dataset 0) is the tracing
    // overhead.
    Spans spans;
    WallTimer wall;
    auto gen = spans.Run("datagen.generate", [&] { return Generate(spec); });
    const AnnotationSplit s2 = SplitAnnotations(gen.annotations);
    malloc_trim(0);
    WallTimer job;
    const Linked l = LinkOnce(gen, s2, &spans);
    const double job_wall = spans.Get("datagen.generate") + job.Seconds();
    const double untraced_job = Median(generate0) + Median(job0);
    auto fd = spans.Run("rdb2rdf.fd", [&] { return Rdb2Rdf(gen.db); });
    if (!fd.ok() || fd->graph().num_vertices() !=
                        gen.canonical.graph().num_vertices()) {
      correct = false;
      why = "cold-link: Rdb2Rdf disagrees with the generated G_D";
    }
    const Graph& gd = gen.canonical.graph();
    spans.Run("learn.train_models", [&] {
      TrainModels(gd, gen.g, gen.path_pairs, LearnConfig{});
    });
    LearnConfig no_lstm;
    no_lstm.train_lstm = false;
    spans.Run("learn.train_models_nolstm",
              [&] { TrainModels(gd, gen.g, gen.path_pairs, no_lstm); });
    // Random search again on the trained system's scorers (warm memos).
    spans.Run("learn.random_search", [&] {
      RandomSearchParams(l.system->context(), s2.validation,
                         RandomSearchConfig{});
    });
    spans.Run("graph.partition", [&] {
      PartitionVertices(gen.g, kWorkers, HerConfig{}.partition);
    });
    const double wall_s = wall.Seconds();
    out.Num("datagen.generate_s", spans.Get("datagen.generate"));
    out.Num("rdb2rdf.fd_s", spans.Get("rdb2rdf.fd"));
    out.Num("learn.train_s", l.train_s);
    out.Num("learn.eval_s", l.eval_s);
    out.Num("learn.train_models_s", spans.Get("learn.train_models"));
    out.Num("learn.random_search_s", spans.Get("learn.random_search"));
    out.Num("ml.lstm_s", spans.Get("learn.train_models") -
                             spans.Get("learn.train_models_nolstm"));
    out.Num("sim.ptable_build_s", l.ptable_build_s);
    out.Num("graph.partition_s", spans.Get("graph.partition"));
    AddParallelCounters(l.result, l.apair_s, &out);
    out.Num("trace.wall_s", wall_s);
    out.Num("trace.spans_s", spans.Sum());
    out.Num("trace.unattributed_s", wall_s - spans.Sum());
    out.Num("trace.overhead_s", job_wall - untraced_job);
  }
  out.Bool("correct", correct);
  out.Str("why", why);
  out.Print();
  return 0;
}

// -------------------------------------------------------------- scale-match

/// A scaling tier with the deterministic training-free scorers of
/// bench_scale: token-Jaccard h_v, token-overlap M_rho, PRA h_r.
struct ScaleSetup {
  // ctx and the scorers point into this object.
  ScaleSetup(const ScaleSetup&) = delete;
  ScaleSetup& operator=(const ScaleSetup&) = delete;

  explicit ScaleSetup(GeneratedDataset generated)
      : data(std::move(generated)),
        hv(data.canonical.graph(), data.g),
        vocab(data.canonical.graph(), data.g),
        mrho(&vocab),
        hr(data.canonical.graph(), data.g) {
    // Ground-truth pairs plus shifted mismatches: the true pairs drive
    // deep recursion, the shifted ones invalidation traffic.
    for (const auto& [t, v] : data.true_matches) {
      candidates.emplace_back(data.canonical.VertexOf(t), v);
    }
    truth.insert(candidates.begin(), candidates.end());
    for (size_t i = 0; i + 1 < data.true_matches.size(); ++i) {
      candidates.emplace_back(data.canonical.VertexOf(data.true_matches[i].first),
                              data.true_matches[i + 1].second);
    }
    ctx.gd = &data.canonical.graph();
    ctx.g = &data.g;
    ctx.hv = &hv;
    ctx.mrho = &mrho;
    ctx.hr = &hr;
    ctx.vocab = &vocab;
    ctx.params = SimulationParams{.sigma = 0.5, .delta = 0.25, .k = 6};
  }

  ParallelResult Run(uint32_t workers) const {
    ParallelConfig cfg;
    cfg.num_workers = workers;
    cfg.strategy = PartitionStrategy::kEdgeCut;
    return BspAllMatch(ctx, cfg).RunOnCandidates(candidates);
  }

  /// F1 of Pi against the ground truth over the candidate pairs.
  double F1(const std::vector<MatchPair>& pi) const {
    Confusion c;
    const std::set<MatchPair> found(pi.begin(), pi.end());
    for (const MatchPair& p : candidates) {
      const bool is_true = truth.count(p) != 0;
      const bool said = found.count(p) != 0;
      if (is_true && said) ++c.tp;
      if (!is_true && said) ++c.fp;
      if (is_true && !said) ++c.fn;
      if (!is_true && !said) ++c.tn;
    }
    return c.F1();
  }

  GeneratedDataset data;
  JaccardVertexScorer hv;
  JointVocab vocab;
  TokenOverlapPathScorer mrho;
  PraRanker hr;
  MatchContext ctx;
  std::vector<MatchPair> candidates;
  std::set<MatchPair> truth;
};

DatasetSpec ScaleSpec(uint64_t seed) {
  DatasetSpec spec = ScalingSpec(kScaleEntities, seed);
  spec.gen_threads = static_cast<int>(kWorkers);
  return spec;
}

int ScaleMatch(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const double seconds = args.Num("seconds", 10);
  const bool trace = args.U64("trace", 0) != 0;
  const DatasetSpec spec = ScaleSpec(seed);

  Json out;
  out.Str("workload", "scale-match");
  StampBuild(&out);
  std::unique_ptr<ScaleSetup> s;
  const double setup_s = MedianSetup([&] {
    s.reset();
    s = std::make_unique<ScaleSetup>(Generate(spec));
  });
  out.Num("setup_s", setup_s);
  out.Int("graph_vertices", s->data.g.num_vertices());
  out.Int("graph_edges", s->data.g.num_edges());
  out.Int("roots", s->candidates.size());

  // The 1-worker reference, computed once outside the timed region.
  const ParallelResult ref = s->Run(1);
  const uint64_t ref_digest = PiDigest(ref.matches);
  out.Str("pi_digest", Hex(ref_digest));
  out.Int("pi_size", ref.matches.size());

  bool correct = ref.status.ok();
  std::string why = correct ? "" : "scale-match: reference run failed";
  std::vector<double> match, pairs_per_s, rss;
  size_t attempted = 0, failed = 0;
  double f1 = s->F1(ref.matches);
  WallTimer clock;
  while (match.size() < 3 || clock.Seconds() < seconds) {
    ResetPeakRss();
    WallTimer t;
    const ParallelResult r = s->Run(kWorkers);
    const double secs = t.Seconds();
    rss.push_back(PeakRssMb());
    if (!r.status.ok() || PiDigest(r.matches) != ref_digest) {
      correct = false;
      why = "scale-match: 4-worker Pi differs from the 1-worker reference";
    }
    attempted += r.outcomes.size();
    failed += r.unresolved_pairs;
    match.push_back(secs);
    pairs_per_s.push_back(static_cast<double>(r.outcomes.size()) / secs);
  }
  out.List("match_s", match);
  out.List("rss_mb", rss);
  out.List("pairs_per_s", pairs_per_s);
  out.Num("f1", f1);
  out.Int("attempted", attempted);
  out.Int("failed", failed);

  if (trace) {
    Spans spans;
    WallTimer wall;
    auto gen = spans.Run("datagen.generate", [&] { return Generate(spec); });
    auto traced = spans.Run("sim.scorers", [&] {
      return std::make_unique<ScaleSetup>(std::move(gen));
    });
    const ParallelResult r =
        spans.Run("parallel.apair", [&] { return traced->Run(kWorkers); });
    const double apair_s = spans.Get("parallel.apair");
    const double job_wall = wall.Seconds();
    spans.Run("rdb2rdf.fd", [&] { (void)Rdb2Rdf(traced->data.db); });
    spans.Run("graph.partition", [&] {
      PartitionVertices(traced->data.g, kWorkers, PartitionStrategy::kEdgeCut);
    });
    const double wall_s = wall.Seconds();
    if (PiDigest(r.matches) != ref_digest) {
      correct = false;
      why = "scale-match: traced Pi differs from the reference";
    }
    out.Num("datagen.generate_s", spans.Get("datagen.generate"));
    out.Num("rdb2rdf.fd_s", spans.Get("rdb2rdf.fd"));
    out.Num("graph.partition_s", spans.Get("graph.partition"));
    AddParallelCounters(r, apair_s, &out);
    out.Num("trace.wall_s", wall_s);
    out.Num("trace.spans_s", spans.Sum());
    out.Num("trace.unattributed_s", wall_s - spans.Sum());
    out.Num("sim.scorers_s", spans.Get("sim.scorers"));
    out.Num("trace.overhead_s", job_wall - (setup_s + Median(match)));
  }
  out.Bool("correct", correct);
  out.Str("why", why);
  out.Print();
  return 0;
}

// -------------------------------------------------------------- serve-mixed

/// The resident dataset is the same for every seed; the seed picks the
/// traffic (the op streams).
DatasetSpec ServeSpec() {
  DatasetSpec spec = UkgovSpec();
  spec.num_entities = kServeEntities;
  return spec;
}

/// One op as recorded in the records file. Times are seconds since the
/// open loop started; deltas are ServeStats changes across the Submit.
struct OpRecord {
  double due_s;
  double start_s;
  double end_s;
  double service_s;
  uint32_t queue_depth;      // queued writes after the Submit
  uint32_t applied_delta;    // mutations applied during the Submit
  uint32_t batches_delta;    // UpdateGraph batches during the Submit
  uint32_t checkpoint_delta;  // checkpoints during the Submit
  int64_t wal_delta;         // WAL size change (trace only)
  uint8_t kind;
  uint8_t outcome;
  uint8_t answer;            // SPair verdict
  uint8_t truth;             // annotated verdict (SPair), 2 = none
  uint8_t waited;            // the generator waited for this op's due time
  uint8_t syncs;             // Sync/SyncDir calls during the Submit
  uint8_t pad[2];
};
static_assert(sizeof(OpRecord) == 64);

struct RecordsHeader {
  uint64_t magic;
  uint64_t count;     // records completed so far
  uint64_t capacity;
  uint64_t pad;
};
constexpr uint64_t kRecordsMagic = 0x3145324552454852ull;  // "RHERE2E1"

/// A read of the serve mix: SPair on an annotation pair (70%) or VPair on
/// its tuple (30%). Returns the annotated verdict for SPair, 2 for VPair.
uint8_t MakeRead(const GeneratedDataset& data, Rng& rng, ServeOp* op) {
  const Annotation& a = rng.Pick(data.annotations);
  op->u = a.u;
  if (rng.Uniform() < 0.7) {
    op->kind = OpKind::kSPair;
    op->v = a.v;
    return a.is_match ? 1 : 0;
  }
  op->kind = OpKind::kVPair;
  return 2;
}

/// Seeded op mix over the serve dataset: 70% reads (MakeRead), 30% writes
/// (edge insert, edge delete, feedback upsert). Every write is valid
/// whatever was admitted before.
std::vector<std::pair<ServeOp, uint8_t>> BuildOps(const GeneratedDataset& data,
                                                   uint64_t seed, size_t count,
                                                   std::chrono::milliseconds deadline) {
  Rng rng(seed);
  const size_t num_v = data.g.num_vertices();
  const size_t num_labels = data.g.edge_labels().size();
  std::vector<std::tuple<VertexId, VertexId, LabelId>> deletes;
  std::set<std::tuple<VertexId, VertexId, LabelId>> base;
  for (VertexId u = 0; u < num_v; ++u) {
    for (const Edge& e : data.g.OutEdges(u)) {
      deletes.emplace_back(u, e.dst, e.label);
      base.emplace(u, e.dst, e.label);
    }
  }
  rng.Shuffle(deletes);
  std::set<std::tuple<VertexId, VertexId, LabelId>> inserted;
  std::vector<std::pair<ServeOp, uint8_t>> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ServeOp op;
    op.seq = i + 1;
    op.deadline = deadline;
    uint8_t truth = 2;
    if (rng.Uniform() < 0.3) {
      const double w = rng.Uniform();
      bool placed = false;
      if (w < 0.45 && num_labels > 0) {
        for (int tries = 0; tries < 32 && !placed; ++tries) {
          const auto u = static_cast<VertexId>(rng.Below(num_v));
          const auto v = static_cast<VertexId>(rng.Below(num_v));
          const auto l = static_cast<LabelId>(rng.Below(num_labels));
          if (u == v || base.count({u, v, l}) != 0 ||
              !inserted.insert({u, v, l}).second) {
            continue;
          }
          op.kind = OpKind::kEdgeInsert;
          op.u = u;
          op.v = v;
          op.label = data.g.edge_labels().Name(l);
          placed = true;
        }
      } else if (w < 0.75 && !deletes.empty()) {
        const auto [u, v, l] = deletes.back();
        deletes.pop_back();
        op.kind = OpKind::kEdgeDelete;
        op.u = u;
        op.v = v;
        op.label = data.g.EdgeLabelName(l);
        placed = true;
      }
      if (!placed) {
        const Annotation& a = rng.Pick(data.annotations);
        op.kind = OpKind::kFeedbackUpsert;
        op.u = a.u;
        op.v = a.v;
        op.is_match = a.is_match;
      }
    } else {
      truth = MakeRead(data, rng, &op);
    }
    ops.emplace_back(std::move(op), truth);
  }
  return ops;
}

ServeConfig MakeServeConfig(const std::string& dir, Env* env) {
  ServeConfig config;
  config.dir = dir;
  config.checkpoint_every = 64;
  config.env = env;
  return config;
}

int ServePrepare(const Args& args) {
  const GeneratedDataset data = Generate(ServeSpec());
  const std::string dir = args.Str("dir");
  WallTimer t;
  auto server = HerServer::Open(MakeServeConfig(dir, nullptr), data);
  if (!server.ok()) {
    std::fprintf(stderr, "serve-prepare: %s\n", server.status().ToString().c_str());
    return 1;
  }
  const Status drained = (*server)->Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "serve-prepare: %s\n", drained.ToString().c_str());
    return 1;
  }
  Json out;
  out.Num("prepare_s", t.Seconds());
  out.Int("snapshot_bytes", std::filesystem::file_size(dir + "/model.snap"));
  out.Print();
  return 0;
}

/// Files of the serve steps held in memory. Sync counts instead of
/// waiting for the disk: on the shared host, WAL fsyncs that usually took
/// 0.2-0.5 ms stalled for 7-28 ms a few times per thousand ops, and the
/// ops queued behind a stall moved every latency figure of the open loop
/// with other tenants' I/O. Every byte still goes through the program's
/// WAL and snapshot code.
class MemEnv : public Env {
 public:
  /// Sync and SyncDir calls so far.
  uint64_t syncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }

  void Put(const std::string& path, std::string bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = std::make_shared<std::string>(std::move(bytes));
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& f = files_[path];
    f = std::make_shared<std::string>();
    return std::unique_ptr<WritableFile>(std::make_unique<File>(f, this));
  }
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path, uint64_t* size) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& f = files_[path];
    if (!f) f = std::make_shared<std::string>();
    *size = f->size();
    return std::unique_ptr<WritableFile>(std::make_unique<File>(f, this));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return ReadFilePrefix(path, std::string::npos);
  }
  Result<std::string> ReadFilePrefix(const std::string& path,
                                     size_t n) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("storage: " + path);
    return it->second->substr(0, n);
  }
  bool FileExists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) != 0;
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("storage: " + path);
    return static_cast<uint64_t>(it->second->size());
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound("storage: " + from);
    files_[to] = it->second;
    files_.erase(from);
    return Status::OK();
  }
  Status RemoveFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(path);
    return Status::OK();
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("storage: " + path);
    it->second->resize(size);
    return Status::OK();
  }
  Status SyncDir(const std::string&) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++syncs_;
    return Status::OK();
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    const std::string prefix = dir + "/";
    for (const auto& [path, bytes] : files_) {
      if (path.rfind(prefix, 0) == 0 &&
          path.find('/', prefix.size()) == std::string::npos) {
        names.push_back(path.substr(prefix.size()));
      }
    }
    return names;
  }

 private:
  class File : public WritableFile {
   public:
    File(std::shared_ptr<std::string> bytes, MemEnv* env)
        : bytes_(std::move(bytes)), env_(env) {}
    Status Append(std::string_view data) override {
      std::lock_guard<std::mutex> lock(env_->mu_);
      bytes_->append(data);
      return Status::OK();
    }
    Status Sync() override { return env_->SyncDir(""); }
    Status Close() override { return Status::OK(); }

   private:
    std::shared_ptr<std::string> bytes_;
    MemEnv* env_;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<std::string>> files_;
  uint64_t syncs_ = 0;
};

int ServeStep(const Args& args) {
  const std::string dir = args.Str("dir");
  const double rate = args.Num("rate", 1000);
  const size_t count = args.U64("ops", 1000);
  const bool trace = args.U64("trace", 0) != 0;
  const auto deadline = std::chrono::milliseconds(args.U64("deadline-ms", 25));

  WallTimer gen_timer;
  const GeneratedDataset data = Generate(ServeSpec());
  const double generate_s = gen_timer.Seconds();
  const auto ops = BuildOps(data, args.U64("op-seed", 1), count, deadline);

  // The records file is sized up front and mapped shared: a record is
  // durable in the page cache the moment it is stored.
  const std::string records = args.Str("records");
  const int fd = ::open(records.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  const size_t bytes = sizeof(RecordsHeader) + count * sizeof(OpRecord);
  if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    std::perror("serve-step: records file");
    return 1;
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    std::perror("serve-step: mmap");
    return 1;
  }
  auto* header = static_cast<RecordsHeader*>(map);
  auto* recs = reinterpret_cast<OpRecord*>(header + 1);
  header->magic = kRecordsMagic;
  header->capacity = count;
  header->count = 0;

  // The snapshot run.py placed in D moves into memory with the rest of
  // the step's files; reading it is part of the timed warm start.
  MemEnv env;
  WallTimer open_timer;
  auto snapshot = Env::Default()->ReadFileToString(dir + "/model.snap");
  if (!snapshot.ok()) {
    std::fprintf(stderr, "serve-step: %s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  env.Put(dir + "/model.snap", std::move(*snapshot));
  auto server_or = HerServer::Open(MakeServeConfig(dir, &env), data);
  const double open_s = open_timer.Seconds();
  if (!server_or.ok()) {
    std::fprintf(stderr, "serve-step: %s\n", server_or.status().ToString().c_str());
    return 1;
  }
  HerServer& server = **server_or;
  // Warm-up: back-to-back reads of the mix, which leave the graph as it
  // is. Without it an op's service time fell by half over the first
  // thousand ops of a fresh server, by a different amount in each process.
  WallTimer warmup_timer;
  Rng warmup_rng(args.U64("op-seed", 1) ^ 0x77a4b1e5u);
  for (size_t i = 0; i < kServeWarmupOps; ++i) {
    ServeOp op;
    op.deadline = deadline;
    MakeRead(data, warmup_rng, &op);
    (void)server.Submit(op);
  }
  const double warmup_s = warmup_timer.Seconds();
  const ServeStats warm = server.stats();
  ResetPeakRss();
  const std::string wal = dir + "/serve.wal";

  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  // The only traced work is one size probe of the WAL before and after
  // each Submit; its summed cost is the step's tracing overhead.
  const auto wal_size = [&] {
    const auto size = env.FileSize(wal);
    return size.ok() ? static_cast<int64_t>(*size) : int64_t{0};
  };
  double trace_overhead_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  const auto since = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto& [op, truth] = ops[i];
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
    // Spin rather than sleep until the op is due: on a shared VM a
    // sleeping vCPU can take a millisecond to be scheduled again, which
    // would be charged to the server.
    bool waited = false;
    while (Clock::now() < due) waited = true;
    const ServeStats before = server.stats();
    WallTimer stat_timer;
    const uint64_t syncs_before = env.syncs();
    const int64_t wal_before = trace ? wal_size() : 0;
    trace_overhead_s += trace ? stat_timer.Seconds() : 0.0;
    const Clock::time_point start = Clock::now();
    const OpResult r = server.Submit(op);
    const Clock::time_point end = Clock::now();
    const ServeStats& after = server.stats();
    OpRecord rec{};
    rec.due_s = since(due);
    rec.start_s = since(start);
    rec.end_s = since(end);
    rec.service_s = r.service_seconds;
    rec.queue_depth = static_cast<uint32_t>(server.queue_depth());
    rec.applied_delta =
        static_cast<uint32_t>(after.applied_mutations - before.applied_mutations);
    rec.batches_delta =
        static_cast<uint32_t>(after.apply_batches - before.apply_batches);
    rec.checkpoint_delta =
        static_cast<uint32_t>(after.checkpoints - before.checkpoints);
    stat_timer.Restart();
    rec.wal_delta = trace ? wal_size() - wal_before : 0;
    rec.syncs = static_cast<uint8_t>(
        std::min<uint64_t>(env.syncs() - syncs_before, 255));
    trace_overhead_s += trace ? stat_timer.Seconds() : 0.0;
    rec.kind = static_cast<uint8_t>(op.kind);
    rec.outcome = static_cast<uint8_t>(r.outcome);
    rec.answer = r.match ? 1 : 0;
    rec.truth = truth;
    rec.waited = waited ? 1 : 0;
    recs[i] = rec;
    header->count = i + 1;
  }
  WallTimer drain_timer;
  const Status drained = server.Drain();
  const double drain_s = drain_timer.Seconds();

  const ServeStats& st = server.stats();
  Json out;
  out.Num("generate_s", generate_s);
  out.Num("open_s", open_s);
  out.Num("warmup_s", warmup_s);
  out.Num("drain_s", drain_s);
  out.Num("loop_s", since(Clock::now()) - drain_s);
  out.Num("trace_overhead_s", trace_overhead_s);
  out.Bool("drained", drained.ok());
  out.Int("submitted", ops.size());
  // Counts of the open loop: the warm-up's reads are taken off.
  out.Int("accepted",
          st.accepted_writes + st.accepted_reads - warm.accepted_reads);
  out.Int("rejected", st.rejected_writes + st.rejected_reads -
                          warm.rejected_writes - warm.rejected_reads);
  out.Int("degraded", st.degraded_reads - warm.degraded_reads);
  out.Int("applied_mutations", st.applied_mutations);
  out.Int("apply_batches", st.apply_batches);
  out.Int("checkpoints", st.checkpoints);
  out.Num("ptable_build_s", server.system().engine().stats().ptable_build_seconds);
  out.Num("peak_rss_mb", PeakRssMb());
  StampBuild(&out);
  ::munmap(map, bytes);
  out.Print();
  return drained.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: her_e2e cold-link|scale-match|serve-prepare|serve-step "
               "--key=value ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (cmd == "cold-link") return ColdLink(args);
  if (cmd == "scale-match") return ScaleMatch(args);
  if (cmd == "serve-prepare") return ServePrepare(args);
  if (cmd == "serve-step") return ServeStep(args);
  return Usage();
}
