// perfbench — the repository benchmark harness.
//
// Drives the HDK engine from the outside, through its public entry points
// only, on one named workload; checks that the engine's outputs are
// correct; and prints every metric it measured.
//
//   perfbench --workload serve|churn --seed N --seconds S --trace 0|1
//             [--scale default|small] [--workdir DIR] [--spans FILE]
//
// Workloads (see README.md in this directory for the rationale):
//   serve  bare "hdk", replication 1, perfect transport: build, warm-up,
//          single-client Search stream, the same stream through
//          SearchBatch, SaveSnapshot, cold LoadEngineSnapshot, one
//          verification batch on the restored engine, then the two
//          streams again on the restored engine.
//   churn  "cached(hdk)", replication 2, SyncMode::kIbf, lossy replica
//          pushes, lossy and latent query legs: build, a join wave, an
//          anti-entropy sweep, a departure — with a query stream after
//          each event.
//
// Timed loops run for a share of --seconds; every count-type metric comes
// from a fixed, deterministic part of the script (the first pass of each
// query stream, the lifecycle calls, the pool-wide verification passes),
// so it repeats exactly for one seed whatever the loops' pass count.
// Verification work runs outside every timed phase.
//
// Output: human-readable lines, then, as the last line, one JSON object:
//   {"workload": ..., "seed": ..., "correct": bool, "gates": {...},
//    "attempted": N, "failed": N, "info": {...}, "metrics": {...}}
// Exit code 1 when a correctness gate fails or a lifecycle call errors.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/engine_factory.h"
#include "engine/engine_snapshot.h"
#include "engine/experiment.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/overlap.h"
#include "engine/partition.h"
#include "engine/result_cache.h"
#include "hdk/query_lattice.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "p2p/global_index.h"
#include "trace.h"

namespace {

using namespace hdk;
using engine::BatchResponse;
using engine::DocRange;
using engine::SearchEngine;
using engine::SearchResponse;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
namespace lattice = ::hdk::hdk;  // query lattice, key fetch and ranking

constexpr size_t kTopK = 20;  // paper Figure 7 compares top-20 lists
constexpr size_t kEngineThreads = 4;
// Query popularity skew of the stream drawn from the pool. Web query logs
// are Zipf-like (arXiv:cs/0210010); 0.8 keeps the head popular enough for
// the result cache without letting a handful of queries set the median.
constexpr double kStreamSkew = 0.8;
// The timed loops take the stream in this many windows (5,000 queries at
// the default scale, so a window's p99 has 50 samples beyond it); the
// reported latency and throughput are medians over the windows of each
// engine state (see Figures), averaged over the states.
constexpr size_t kWindows = 4;
// Pool queries checked against the built engine before the snapshot and
// against the restored engine after it.
constexpr size_t kVerifyQueries = 1000;
// Builds per run (build_s is the fastest) and, on serve, saves and cold
// loads per run (save_s and load_s are the fastest).
constexpr uint32_t kBuildRepeats = 2;
constexpr uint32_t kSnapshotRepeats = 3;

// ---------------------------------------------------------------------------
// Options and scale

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scale = "default";
  std::string workdir = ".";
  std::string spans_path;
};

struct Scale {
  engine::ExperimentSetup setup;  // corpus shape and HDK thresholds
  uint32_t peers = 0;             // serve: peers built; churn: after the join
  uint32_t join_peers = 0;        // churn: peers of the one join wave
  uint32_t docs_per_peer = 0;
  uint32_t pool_queries = 0;      // distinct generated queries
  uint32_t stream_queries = 0;    // Zipf draws from the pool, one pass
  uint32_t batch_size = 0;        // queries per SearchBatch call
  uint32_t cache_capacity = 0;    // churn: result-cache entries (< pool)
  uint32_t setup_repeats = 0;     // setup runs; setup_s is their median
};

bool MakeScale(const std::string& name, Scale* out) {
  Scale s;
  if (name == "default") {
    s.setup = engine::ExperimentSetup::ScaledDefault();  // 28 x 300 docs
    s.peers = s.setup.max_peers;
    s.join_peers = s.setup.peer_step;
    s.docs_per_peer = s.setup.docs_per_peer;
    s.pool_queries = 8000;
    s.stream_queries = 20000;
    s.batch_size = 256;
    s.cache_capacity = 256;
    s.setup_repeats = 7;
  } else if (name == "small") {
    s.setup = engine::ExperimentSetup::Tiny();  // 6 x 150 docs
    s.peers = s.setup.max_peers;
    s.join_peers = s.setup.peer_step;
    s.docs_per_peer = s.setup.docs_per_peer;
    s.pool_queries = 300;
    s.stream_queries = 2000;
    s.batch_size = 64;
    s.cache_capacity = 32;
    s.setup_repeats = 2;
  } else {
    return false;
  }
  s.setup.num_threads = kEngineThreads;
  *out = s;
  return true;
}

// ---------------------------------------------------------------------------
// Run state: metrics, gates, failure accounting, tracer

struct Run {
  explicit Run(const Options& o) : opt(o), tracer(o.trace) {
    span_search = tracer.Intern("engine.search");
    span_batch = tracer.Intern("engine.search_batch");
    span_split = tracer.Intern("split.query");
    span_plan = tracer.Intern("hdk.plan");
    span_fetch = tracer.Intern("p2p.fetch");
    span_rank = tracer.Intern("hdk.rank");
    span_build = tracer.Intern("engine.build");
    span_membership = tracer.Intern("engine.apply_membership");
    span_sweep = tracer.Intern("engine.run_anti_entropy");
    span_save = tracer.Intern("engine.save_snapshot");
    span_load = tracer.Intern("engine.load_snapshot");
  }

  void Set(const std::string& name, double value) {
    for (auto& [n, v] : metrics) {
      if (n == name) {
        v = value;
        return;
      }
    }
    metrics.emplace_back(name, value);
  }
  void Info(const std::string& name, double value) {
    info.emplace_back(name, value);
  }
  void Gate(const std::string& name, bool ok) {
    gates.emplace_back(name, ok);
    std::printf("gate %-34s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }

  /// Counts one query response toward attempted/failed, and flags a
  /// partial answer that does not say so.
  void Account(const SearchResponse& r) {
    ++attempted;
    if (r.degraded || r.shed) ++failed;
    const bool partial = r.cost.keys_unreachable > 0 ||
                         r.cost.deadline_exceeded > 0 || r.cost.shed > 0;
    if (partial && !r.degraded && !r.shed) ++partial_unflagged;
  }
  /// Counts one lifecycle call; a non-OK status is a failed operation.
  bool Lifecycle(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    return false;
  }

  Options opt;
  Scale scale;
  Tracer tracer;
  uint32_t span_search, span_batch, span_split, span_plan, span_fetch,
      span_rank, span_build, span_membership, span_sweep, span_save,
      span_load;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::pair<std::string, bool>> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t partial_unflagged = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Ranked documents and exact score bits of one response.
uint64_t ResultHash(const SearchResponse& r) {
  uint64_t h = Mix64(r.results.size());
  for (const auto& scored : r.results) {
    uint64_t bits = 0;
    std::memcpy(&bits, &scored.score, sizeof(bits));
    h = HashCombine(HashCombine(h, scored.doc), bits);
  }
  return h;
}

/// Results plus every cost counter the HDK retriever fills.
uint64_t ResponseHash(const SearchResponse& r) {
  uint64_t h = ResultHash(r);
  for (uint64_t v : {r.cost.keys_fetched, r.cost.postings_fetched,
                     r.cost.probes, r.cost.pruned, r.cost.messages,
                     r.cost.hops}) {
    h = HashCombine(h, v);
  }
  return HashCombine(h, r.degraded ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Traffic: per-kind totals over the deterministic parts of the script

using KindTotals = std::array<net::TrafficCounters, net::kNumMessageKinds>;

KindTotals ReadKinds(const net::TrafficRecorder& traffic) {
  KindTotals out{};
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    out[k] = traffic.ByKind(static_cast<net::MessageKind>(k));
  }
  return out;
}

void AddDelta(const KindTotals& before, const KindTotals& after,
              KindTotals* sum) {
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    (*sum)[k].messages += after[k].messages - before[k].messages;
    (*sum)[k].postings += after[k].postings - before[k].postings;
    (*sum)[k].hops += after[k].hops - before[k].hops;
  }
}

/// The net.* counts and the overlay hops per lattice probe.
void SetNetMetrics(Run& run, const KindTotals& totals) {
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    const std::string kind(
        net::MessageKindName(static_cast<net::MessageKind>(k)));
    run.Set("net." + kind + ".messages",
            static_cast<double>(totals[k].messages));
    run.Set("net." + kind + ".postings",
            static_cast<double>(totals[k].postings));
  }
  const net::TrafficCounters& probes =
      totals[static_cast<size_t>(net::MessageKind::kKeyProbe)];
  run.Set("dht.hops_per_probe", static_cast<double>(probes.hops) /
                                    static_cast<double>(probes.messages));
}

// ---------------------------------------------------------------------------
// Set-up: corpus, query pool and stream, centralized reference engine

struct Inputs {
  std::unique_ptr<corpus::DocumentStore> store;
  std::vector<corpus::Query> pool;
  std::vector<corpus::Query> stream;  // Zipf draws from the pool
  std::unique_ptr<SearchEngine> reference;
};

Inputs SetupOnce(const Run& run, uint64_t docs,
                 const std::vector<DocRange>& reference_ranges,
                 double* generate_s, double* querygen_s, double* total_s) {
  const Scale& s = run.scale;
  const uint64_t seed = run.opt.seed;
  Inputs in;
  Stopwatch total;
  Stopwatch watch;
  // The corpus is the repository's standard synthetic collection, the
  // same for every seed; the seed draws the query pool and the stream.
  const corpus::SyntheticCorpus generator(s.setup.corpus);
  in.store = std::make_unique<corpus::DocumentStore>();
  generator.FillStore(docs, in.store.get());
  *generate_s = watch.ElapsedSeconds();

  watch.Restart();
  const corpus::CollectionStats stats(*in.store);
  corpus::QueryGenConfig query_config;
  query_config.seed = Mix64(seed ^ 0x7175657279ULL);  // "query"
  // The paper's "> 20 hits" floor, scaled to the collection like
  // ExperimentContext::MakeQueries does.
  query_config.min_term_df = std::max<Freq>(
      5, static_cast<Freq>(20.0 * static_cast<double>(docs) / 140000.0));
  const corpus::QueryGenerator query_gen(query_config, *in.store, stats);
  in.pool = query_gen.Generate(s.pool_queries);
  const ZipfSampler popularity(in.pool.size(), kStreamSkew);
  Rng rng(Mix64(seed ^ 0x73747265616dULL));  // "stream"
  in.stream.reserve(s.stream_queries);
  for (uint32_t i = 0; i < s.stream_queries; ++i) {
    in.stream.push_back(in.pool[popularity.Sample(rng) - 1]);
  }
  *querygen_s = watch.ElapsedSeconds();

  engine::EngineConfig reference_config;
  reference_config.num_threads = kEngineThreads;
  auto reference =
      engine::MakeEngine(engine::EngineKind::kCentralized, reference_config,
                         *in.store, reference_ranges);
  if (reference.ok()) in.reference = std::move(reference).value();
  *total_s = total.ElapsedSeconds();
  return in;
}

/// Runs the set-up `setup_repeats` times and keeps the last; setup_s and
/// the corpus.* metrics are medians.
bool Setup(Run& run, uint64_t docs, const std::vector<DocRange>& ranges,
           Inputs* out) {
  std::vector<double> generate, querygen, total;
  for (uint32_t i = 0; i < run.scale.setup_repeats; ++i) {
    double g = 0, q = 0, t = 0;
    *out = Inputs{};  // free the previous repeat before the next one
    *out = SetupOnce(run, docs, ranges, &g, &q, &t);
    generate.push_back(g);
    querygen.push_back(q);
    total.push_back(t);
  }
  run.Set("setup_s", Median(total));
  run.Set("corpus.generate_s", Median(generate));
  run.Set("corpus.querygen_s", Median(querygen));
  if (out->reference == nullptr || out->pool.size() != run.scale.pool_queries) {
    std::fprintf(stderr,
                 "set-up failed: %zu of %u pool queries, reference %s\n",
                 out->pool.size(), run.scale.pool_queries,
                 out->reference == nullptr ? "missing" : "built");
    return false;
  }
  uint64_t stream_fp = 0;
  double terms = 0;
  for (const auto& q : out->stream) {
    stream_fp =
        HashCombine(stream_fp, HashTermIds(q.terms.data(), q.terms.size()));
  }
  for (const auto& q : out->pool) terms += static_cast<double>(q.size());
  // 53 bits, so the JSON number is exact.
  run.Info("stream_fingerprint", static_cast<double>(stream_fp >> 11));
  run.Info("pool_mean_terms", terms / static_cast<double>(out->pool.size()));
  std::printf("setup: %llu docs, %zu pool queries (mean %.2f terms), "
              "stream %zu, setup_s median %.4f of %u\n",
              static_cast<unsigned long long>(out->store->size()),
              out->pool.size(), terms / static_cast<double>(out->pool.size()),
              out->stream.size(), Median(total), run.scale.setup_repeats);
  return true;
}

// ---------------------------------------------------------------------------
// Build observability shared by both workloads

/// Builds the engine kBuildRepeats times, freeing each one before the
/// next, and keeps the last. build_s and its scan / merge / other split
/// come from the fastest build (outside load only slows a build down); the
/// counts are identical for every build.
/// `hdk_of` finds the HDK engine inside what `build` returned.
template <typename EnginePtr, typename BuildFn, typename HdkOf>
bool RepeatedBuild(Run& run, const BuildFn& build, const HdkOf& hdk_of,
                   EnginePtr* out) {
  std::vector<double> total, scan, merge, other;
  const engine::HdkSearchEngine* hdk = nullptr;
  for (uint32_t i = 0; i < kBuildRepeats; ++i) {
    out->reset();
    Stopwatch watch;
    auto built = [&] {
      ScopedSpan span(run.tracer, run.span_build, i);
      return build();
    }();
    const double build_s = watch.ElapsedSeconds();
    if (!run.Lifecycle(built.status(), "build")) return false;
    *out = std::move(built).value();
    hdk = hdk_of(**out);
    if (hdk == nullptr) return false;
    const p2p::PhaseTimings& t = hdk->phase_timings();
    total.push_back(build_s);
    scan.push_back(t.scan_seconds);
    merge.push_back(t.merge_seconds);
    other.push_back(build_s - t.scan_seconds - t.merge_seconds);
  }
  const size_t best = static_cast<size_t>(
      std::min_element(total.begin(), total.end()) - total.begin());
  run.Set("build_s", total[best]);
  run.Set("p2p.build.scan_s", scan[best]);
  run.Set("p2p.build.merge_s", merge[best]);
  run.Set("p2p.build.other_s", other[best]);
  for (uint32_t level = 1; level <= 3; ++level) {
    p2p::ProtocolLevelStats stats;
    for (const auto& l : hdk->indexing_report().levels) {
      if (l.level == level) stats = l;
    }
    const std::string prefix = "p2p.build.s" + std::to_string(level) + ".";
    run.Set(prefix + "keys_inserted", static_cast<double>(stats.keys_inserted));
    run.Set(prefix + "postings_inserted",
            static_cast<double>(stats.postings_inserted));
    run.Set(prefix + "notifications", static_cast<double>(stats.notifications));
  }
  run.Set("index_postings_per_peer", hdk->InsertedPostingsPerPeer());
  const net::TrafficCounters inserts =
      hdk->traffic()->ByKind(net::MessageKind::kInsertPostings);
  run.Set("dht.hops_per_insert", static_cast<double>(inserts.hops) /
                                     static_cast<double>(inserts.messages));
  std::printf("build: %.3fs fastest of %zu (scan %.3fs, merge %.3fs), %zu "
              "peers, %.0f postings inserted per peer\n",
              total[best], total.size(), scan[best], merge[best],
              hdk->num_peers(), hdk->InsertedPostingsPerPeer());
  return true;
}

// ---------------------------------------------------------------------------
// Query streams

/// What the deterministic first pass of a stream returned.
struct FirstPass {
  std::vector<uint64_t> result_hashes;
  QueryCost cost;
};

/// Per-window timings of the timed loops on one engine state (serve: the
/// built and the restored engine; churn: the state before and after each
/// event), split [untraced, traced]. Each timed round runs one window of
/// the stream single-client and then through SearchBatch, so both see the
/// same engine state and the same host load; a state's figures are medians
/// over its windows (see Figures). In a traced run, blocks of kWindows
/// rounds alternate untraced / traced so the tracing overhead is measured
/// on the same engine state.
struct StreamTimes {
  std::vector<double> p50_us[2], p99_us[2];  // per single-client window
  std::vector<double> single_s[2];           // summed latency per window
  std::vector<double> batch_s[2];            // SearchBatch time per window
  std::vector<double> hit_us, miss_us;       // untraced, by cache outcome
  uint64_t samples[2] = {0, 0};
  uint64_t batch_queries[2] = {0, 0};
};

/// One closed-loop single-client pass: Search with explicit origins, so
/// every count it produces depends only on the engine state. Returns the
/// per-query latencies in microseconds.
std::vector<double> SingleClientPass(Run& run, SearchEngine& e,
                                     std::span<const corpus::Query> stream,
                                     StreamTimes* cache, FirstPass* first) {
  const size_t peers = e.num_peers();
  std::vector<double> latencies_us;
  latencies_us.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    SearchResponse r;
    {
      ScopedSpan span(run.tracer, run.span_search, i);
      r = e.Search(stream[i].terms, kTopK, static_cast<PeerId>(i % peers));
    }
    const double us = Seconds(t0, Clock::now()) * 1e6;
    latencies_us.push_back(us);
    run.Account(r);
    if (cache != nullptr) {
      (r.cost.cache_hits > 0 ? cache->hit_us : cache->miss_us).push_back(us);
    }
    if (first != nullptr) {
      first->result_hashes.push_back(ResultHash(r));
      first->cost += r.cost;
    }
  }
  return latencies_us;
}

/// One pass of the stream through fixed-size SearchBatch calls; returns
/// the time spent inside SearchBatch.
double BatchPass(Run& run, SearchEngine& e,
                 std::span<const corpus::Query> stream,
                 std::vector<uint64_t>* result_hashes) {
  const size_t batch = run.scale.batch_size;
  double seconds = 0;
  for (size_t off = 0; off < stream.size(); off += batch) {
    const auto chunk =
        stream.subspan(off, std::min(batch, stream.size() - off));
    const Clock::time_point t0 = Clock::now();
    BatchResponse b;
    {
      ScopedSpan span(run.tracer, run.span_batch, off);
      b = e.SearchBatch(chunk, kTopK);
    }
    seconds += Seconds(t0, Clock::now());
    for (const auto& r : b.responses) {
      run.Account(r);
      if (result_hashes != nullptr) result_hashes->push_back(ResultHash(r));
    }
  }
  return seconds;
}

/// Timed rounds for `budget_s`, at least one untraced round per window
/// and, in a traced run, one traced round per window. Round r takes window
/// r mod kWindows of the stream through one single-client pass and then
/// through SearchBatch.
StreamTimes TimedQueries(Run& run, SearchEngine& e,
                         std::span<const corpus::Query> stream,
                         double budget_s) {
  StreamTimes t;
  const size_t window = stream.size() / kWindows;
  const uint64_t min_rounds = run.opt.trace ? 2 * kWindows : kWindows;
  Stopwatch watch;
  for (uint64_t round = 0;
       round < min_rounds || watch.ElapsedSeconds() < budget_s; ++round) {
    const int traced = run.opt.trace && (round / kWindows) % 2 == 1 ? 1 : 0;
    run.tracer.set_paused(traced == 0);
    const auto part = stream.subspan((round % kWindows) * window, window);
    const std::vector<double> latencies =
        SingleClientPass(run, e, part, traced ? nullptr : &t, nullptr);
    double sum_s = 0;
    for (double us : latencies) sum_s += us * 1e-6;
    t.p50_us[traced].push_back(Percentile(latencies, 0.50));
    t.p99_us[traced].push_back(Percentile(latencies, 0.99));
    t.single_s[traced].push_back(sum_s);
    t.samples[traced] += latencies.size();
    t.batch_s[traced].push_back(BatchPass(run, e, part, nullptr));
    t.batch_queries[traced] += part.size();
  }
  run.tracer.set_paused(false);
  return t;
}

/// The latency and throughput of one engine state: medians over its
/// windows, untraced (`traced` 0) or traced (1). Load from other tenants
/// of a shared host comes and goes within a run: on a shared 4-vCPU
/// virtual machine a window's median latency swung between about 6 and
/// 10us, in stretches of a few windows. Most windows sit at the common
/// level, so the median over windows repeats across runs where a lower
/// quantile follows the share of quiet stretches.
struct StateFigures {
  double p50_us = 0, p99_us = 0, qps = 0;
};

StateFigures Figures(const StreamTimes& t, int traced) {
  const double window = static_cast<double>(t.batch_queries[traced]) /
                        static_cast<double>(t.batch_s[traced].size());
  return {Median(t.p50_us[traced]), Median(t.p99_us[traced]),
          window / Median(t.batch_s[traced])};
}

/// Reports the mean over engine states of each state's figures, so a
/// slower state moves the metric by its share whatever the others do.
void RecordStreamTimes(Run& run, const std::vector<StreamTimes>& states) {
  StateFigures mean, traced;
  double single_s = 0, batch_s = 0;
  uint64_t samples[2] = {0, 0}, windows = 0, batch_queries = 0;
  const double n = static_cast<double>(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    const StreamTimes& t = states[i];
    const StateFigures f = Figures(t, 0);
    mean.p50_us += f.p50_us / n;
    mean.p99_us += f.p99_us / n;
    mean.qps += f.qps / n;
    if (run.opt.trace) {
      const StateFigures g = Figures(t, 1);
      traced.p50_us += g.p50_us / n;
      traced.p99_us += g.p99_us / n;
      traced.qps += g.qps / n;
    }
    for (double v : t.single_s[0]) single_s += v;
    for (double v : t.batch_s[0]) batch_s += v;
    samples[0] += t.samples[0];
    samples[1] += t.samples[1];
    windows += t.p50_us[0].size();
    batch_queries += t.batch_queries[0];
    if (states.size() > 1) {
      const std::string state = "state" + std::to_string(i) + ".";
      run.Info(state + "query_p50_us", f.p50_us);
      run.Info(state + "query_p99_us", f.p99_us);
      run.Info(state + "batch_qps", f.qps);
      std::printf("queries, state %zu: p50 %.2fus p99 %.2fus, batch %.0f "
                  "q/s over %zu windows\n",
                  i, f.p50_us, f.p99_us, f.qps, t.p50_us[0].size());
    }
  }
  const double efficiency =
      single_s / (static_cast<double>(kEngineThreads) * batch_s);
  run.Set("query_p50_us", mean.p50_us);
  run.Set("query_p99_us", mean.p99_us);
  run.Set("batch_qps", mean.qps);
  run.Set("engine.batch.parallel_efficiency", efficiency);
  run.Info("single_client_samples", static_cast<double>(samples[0]));
  run.Info("single_client_windows", static_cast<double>(windows));
  run.Info("batch_queries", static_cast<double>(batch_queries));
  if (run.opt.trace) {
    run.Set("trace.overhead.query_p50_us", traced.p50_us - mean.p50_us);
    run.Set("trace.overhead.query_p99_us", traced.p99_us - mean.p99_us);
    run.Set("trace.overhead.batch_qps", traced.qps - mean.qps);
    run.Info("traced_single_client_samples", static_cast<double>(samples[1]));
  }
  std::printf("queries: single-client p50 %.2fus p99 %.2fus (mean over %zu "
              "engine states of medians over %llu windows, %llu "
              "samples); batch %.0f q/s over %llu queries (efficiency %.2f)\n",
              mean.p50_us, mean.p99_us, states.size(),
              static_cast<unsigned long long>(windows),
              static_cast<unsigned long long>(samples[0]), mean.qps,
              static_cast<unsigned long long>(batch_queries), efficiency);
}

// ---------------------------------------------------------------------------
// The outside-in query split: PlanRetrieval -> FetchFromResilient ->
// RankFetchedKeys, composed exactly as HdkRetriever::Search does with
// default options, and checked against the engine's own Search.

struct SplitTotals {
  uint64_t queries = 0;
  uint64_t mismatches = 0;
  uint64_t probes = 0, pruned = 0, keys = 0, postings = 0;
};

SearchResponse ComposedSearch(Run& run, const engine::HdkSearchEngine& hdk,
                              std::span<const TermId> query, PeerId origin,
                              uint64_t request, SplitTotals* totals) {
  const p2p::DistributedGlobalIndex& global = hdk.global_index();
  SearchResponse exec;
  ScopedSpan root(run.tracer, run.span_split, request);
  const net::ScopedTally tally(hdk.traffic());
  DeadlineBudget budget;
  p2p::DistributedGlobalIndex::FetchOptions fetch_options;
  fetch_options.budget = &budget;
  std::vector<lattice::FetchedKey> fetched;
  lattice::RetrievalPlan plan;
  {
    ScopedSpan plan_span(run.tracer, run.span_plan, request);
    plan = lattice::PlanRetrieval(
        query, hdk.config().hdk.s_max,
        [&](const lattice::TermKey& key)
            -> std::optional<lattice::ProbeOutcome> {
          p2p::DistributedGlobalIndex::FetchResult fetch;
          {
            ScopedSpan fetch_span(run.tracer, run.span_fetch, request);
            fetch = global.FetchFromResilient(origin, key, fetch_options);
          }
          if (fetch.unreachable) {
            exec.degraded = true;
            ++exec.cost.keys_unreachable;
            return std::nullopt;
          }
          if (fetch.entry == nullptr) return std::nullopt;
          fetched.push_back(lattice::FetchedKey{key, fetch.entry->global_df,
                                                fetch.entry->is_hdk,
                                                &fetch.entry->postings});
          exec.cost.postings_fetched += fetch.entry->postings.size();
          return lattice::ProbeOutcome{fetch.entry->is_hdk};
        });
  }
  exec.cost.keys_fetched = plan.fetched.size();
  exec.cost.probes = plan.probes;
  exec.cost.pruned = plan.pruned;
  {
    ScopedSpan rank_span(run.tracer, run.span_rank, request);
    const corpus::CollectionStats& stats = hdk.collection_stats();
    exec.results = lattice::RankFetchedKeys(fetched, stats.num_documents(),
                                            stats.average_document_length(),
                                            kTopK);
  }
  exec.cost.messages = tally.counters().messages;
  exec.cost.hops = tally.counters().hops;
  ++totals->queries;
  totals->probes += plan.probes;
  totals->pruned += plan.pruned;
  totals->keys += plan.fetched.size();
  totals->postings += exec.cost.postings_fetched;
  return exec;
}

/// Runs every pool query through the split and through the engine's
/// Search (same origin) and counts the responses that differ.
std::vector<SearchResponse> SplitPass(Run& run, engine::HdkSearchEngine& hdk,
                                      std::span<const corpus::Query> pool,
                                      uint64_t* mismatches) {
  SplitTotals totals;
  std::vector<SearchResponse> engine_responses;
  const size_t peers = hdk.num_peers();
  for (size_t i = 0; i < pool.size(); ++i) {
    const PeerId origin = static_cast<PeerId>(i % peers);
    const SearchResponse composed =
        ComposedSearch(run, hdk, pool[i].terms, origin, i, &totals);
    SearchResponse own = hdk.Search(pool[i].terms, kTopK, origin);
    if (ResponseHash(composed) != ResponseHash(own)) ++totals.mismatches;
    engine_responses.push_back(std::move(own));
  }
  const double n = static_cast<double>(totals.queries);
  run.Set("hdk.split.mismatches", static_cast<double>(totals.mismatches));
  run.Set("hdk.plan.probes", static_cast<double>(totals.probes) / n);
  run.Set("hdk.plan.pruned", static_cast<double>(totals.pruned) / n);
  run.Set("p2p.fetch.keys", static_cast<double>(totals.keys) / n);
  run.Set("p2p.fetch.postings", static_cast<double>(totals.postings) / n);
  run.Set("hdk.rank.postings", static_cast<double>(totals.postings) / n);
  if (run.opt.trace) {
    const auto agg = run.tracer.Aggregates();
    auto total_us = [&](const char* name) {
      const auto it = agg.find(name);
      return it == agg.end() ? 0.0 : it->second.total_s * 1e6 / n;
    };
    const auto plan = agg.find("hdk.plan");
    run.Set("hdk.plan.self_us",
            plan == agg.end() ? 0.0 : plan->second.self_s * 1e6 / n);
    run.Set("p2p.fetch.us", total_us("p2p.fetch"));
    run.Set("hdk.rank.us", total_us("hdk.rank"));
  }
  *mismatches = totals.mismatches;
  std::printf("split: %llu queries, %llu mismatches against Search\n",
              static_cast<unsigned long long>(totals.queries),
              static_cast<unsigned long long>(totals.mismatches));
  return engine_responses;
}

/// Pool-wide quality and traffic: paper Figure 6 (postings per query) and
/// Figure 7 (top-20 overlap with centralized BM25).
void RecordPoolQuality(Run& run, const std::vector<SearchResponse>& hdk,
                       SearchEngine& reference,
                       std::span<const corpus::Query> pool) {
  const BatchResponse ref = reference.SearchBatch(pool, kTopK);
  std::vector<std::vector<index::ScoredDoc>> a, b;
  double postings = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    a.push_back(hdk[i].results);
    b.push_back(ref.responses[i].results);
    postings += static_cast<double>(hdk[i].cost.postings_fetched);
  }
  const double overlap = engine::MeanTopKOverlap(a, b, kTopK);
  run.Set("overlap_at_20", overlap);
  run.Set("postings_per_query", postings / static_cast<double>(pool.size()));
  std::printf("pool: %.1f postings per query, top-20 overlap with "
              "centralized BM25 %.4f\n",
              postings / static_cast<double>(pool.size()), overlap);
}

/// Pool pass with explicit origins through a typed HDK engine.
std::vector<SearchResponse> PoolPass(engine::HdkSearchEngine& hdk,
                                     std::span<const corpus::Query> pool) {
  std::vector<SearchResponse> out;
  for (size_t i = 0; i < pool.size(); ++i) {
    out.push_back(hdk.Search(pool[i].terms, kTopK,
                             static_cast<PeerId>(i % hdk.num_peers())));
  }
  return out;
}

/// Replica slots that differ from the placement-derived state (brute
/// force, no traffic).
double Divergence(const engine::HdkSearchEngine& hdk) {
  return static_cast<double>(hdk.global_index().CountReplicaDivergence());
}

// ---------------------------------------------------------------------------
// serve

int RunServe(Run& run) {
  const Scale& s = run.scale;
  const uint64_t docs = static_cast<uint64_t>(s.peers) * s.docs_per_peer;
  const std::vector<DocRange> ranges = engine::SplitEvenly(docs, s.peers);
  Inputs in;
  if (!Setup(run, docs, ranges, &in)) return 1;

  engine::HdkEngineConfig config;
  config.hdk = s.setup.MakeParams(s.setup.DfMaxLow());
  config.overlay = s.setup.overlay;
  config.overlay_seed = s.setup.overlay_seed;
  config.num_threads = kEngineThreads;

  std::unique_ptr<engine::HdkSearchEngine> hdk;
  if (!RepeatedBuild(
          run,
          [&] {
            return engine::HdkSearchEngine::Build(config, *in.store, ranges);
          },
          [](engine::HdkSearchEngine& e) { return &e; }, &hdk)) {
    return 1;
  }

  // Warm-up: the deterministic first pass (not timed).
  FirstPass first;
  SingleClientPass(run, *hdk, in.stream, nullptr, &first);
  SetNetMetrics(run, ReadKinds(*hdk->traffic()));  // build + warm-up

  std::vector<uint64_t> batch_hashes;
  BatchPass(run, *hdk, in.stream, &batch_hashes);  // results check, untimed
  // Half of the timed queries run on the built engine, half on the
  // restored one, so the measured time spans the snapshot phases: the
  // speed of a shared host drifts over tens of seconds, and two samples
  // apart in time repeat better across runs than one.
  std::vector<StreamTimes> states;
  states.push_back(TimedQueries(run, *hdk, in.stream, run.opt.seconds / 2));
  run.Set("p2p.fetch.retries", static_cast<double>(first.cost.retries));
  run.Set("p2p.fetch.failovers", static_cast<double>(first.cost.failovers));
  run.Set("p2p.fetch.unreachable",
          static_cast<double>(first.cost.keys_unreachable));

  const std::string path = run.opt.workdir + "/perfbench-serve.hdks";
  std::vector<double> saves, loads;
  for (uint32_t i = 0; i < kSnapshotRepeats; ++i) {
    Stopwatch watch;
    const Status saved = [&] {
      ScopedSpan span(run.tracer, run.span_save, i);
      return hdk->SaveSnapshot(path);
    }();
    saves.push_back(watch.ElapsedSeconds());
    if (!run.Lifecycle(saved, "save")) return 1;
  }
  const double save_s = *std::min_element(saves.begin(), saves.end());
  const double snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  run.Set("save_s", save_s);
  run.Set("snapshot_mb", snapshot_bytes / 1e6);
  run.Set("store.bytes_per_posting",
          snapshot_bytes /
              static_cast<double>(hdk->global_index().TotalStoredPostings()));
  // Peak of the build, the query streams and the save. The cold load
  // runs after the built engine is freed, and the verification work
  // before it allocates an export of the whole index, so it is not
  // counted.
  run.Set("peak_rss_mb", PeakRssMb());

  // Verification of the built engine, outside the timed phases.
  auto description = engine::DescribeEngineSnapshot(path);
  if (!run.Lifecycle(description.status(), "describe")) return 1;
  for (const auto& section : description->sections) {
    run.Set("store." + section.name + ".mb",
            static_cast<double>(section.length) / 1e6);
  }
  const uint64_t traffic_fp = engine::FingerprintTraffic(*hdk->traffic());
  const uint64_t contents_fp =
      engine::FingerprintContents(hdk->global_index().ExportContents());
  const std::span<const corpus::Query> verify(
      in.pool.data(), std::min(kVerifyQueries, in.pool.size()));
  const uint64_t batch_fp =
      engine::FingerprintBatch(hdk->SearchBatch(verify, kTopK));
  hdk.reset();

  std::unique_ptr<engine::HdkSearchEngine> restored;
  for (uint32_t i = 0; i < kSnapshotRepeats; ++i) {
    restored.reset();
    Stopwatch watch;
    auto loaded = [&] {
      ScopedSpan span(run.tracer, run.span_load, i);
      return engine::LoadEngineSnapshot(config, *in.store, path);
    }();
    loads.push_back(watch.ElapsedSeconds());
    if (!run.Lifecycle(loaded.status(), "load")) return 1;
    restored = std::move(loaded).value();
  }
  const double load_s = *std::min_element(loads.begin(), loads.end());
  run.Set("load_s", load_s);
  // Geometric mean, so save and load weigh the same although save takes
  // about three times as long: a k times slower load moves it by sqrt(k).
  run.Set("lifecycle_s", std::sqrt(save_s * load_s));
  std::printf("snapshot: save %.3fs, load %.3fs (fastest of %u), %.1f MB\n",
              save_s, load_s, kSnapshotRepeats, snapshot_bytes / 1e6);

  run.Gate("serve.restored_traffic",
           engine::FingerprintTraffic(*restored->traffic()) == traffic_fp);
  run.Gate("serve.restored_batch",
           engine::FingerprintBatch(restored->SearchBatch(verify, kTopK)) ==
               batch_fp);
  run.Gate("serve.restored_contents",
           engine::FingerprintContents(
               restored->global_index().ExportContents()) == contents_fp);
  std::filesystem::remove(path);
  run.Gate("serve.single_equals_batch", batch_hashes == first.result_hashes);

  SingleClientPass(run, *restored, in.stream, nullptr, nullptr);  // warm-up
  states.push_back(
      TimedQueries(run, *restored, in.stream, run.opt.seconds / 2));
  RecordStreamTimes(run, states);

  uint64_t mismatches = 0;
  const std::vector<SearchResponse> own =
      SplitPass(run, *restored, in.pool, &mismatches);
  run.Gate("serve.split_equals_search", mismatches == 0);
  RecordPoolQuality(run, own, *in.reference, in.pool);
  return 0;
}

// ---------------------------------------------------------------------------
// churn

/// The query stream after one churn event: a deterministic first pass
/// (its counts and traffic feed the count metrics), then the timed
/// single-client and batch loops.
void ChurnSegment(Run& run, SearchEngine& e, const Inputs& in,
                  const engine::HdkSearchEngine& hdk, double budget_s,
                  KindTotals* net, FirstPass* first,
                  std::vector<StreamTimes>* states) {
  const KindTotals before = ReadKinds(*hdk.traffic());
  SingleClientPass(run, e, in.stream, nullptr, first);
  AddDelta(before, ReadKinds(*hdk.traffic()), net);
  states->push_back(TimedQueries(run, e, in.stream, budget_s));
}

int RunChurn(Run& run) {
  const Scale& s = run.scale;
  const uint32_t initial_peers = s.peers - s.join_peers;
  const DocId frontier = static_cast<DocId>(initial_peers) * s.docs_per_peer;
  const uint64_t docs = static_cast<uint64_t>(s.peers) * s.docs_per_peer;
  const std::vector<DocRange> initial =
      engine::SplitEvenly(frontier, initial_peers);
  const std::vector<engine::MembershipEvent> join =
      engine::JoinWave(frontier, s.join_peers, s.docs_per_peer);
  const PeerId leaving = static_cast<PeerId>(initial_peers / 2);
  std::vector<DocRange> expected = initial;
  for (const DocRange& r :
       engine::JoinRanges(frontier, s.join_peers, s.docs_per_peer)) {
    expected.push_back(r);
  }
  expected.erase(expected.begin() + leaving);
  Inputs in;
  if (!Setup(run, docs, expected, &in)) return 1;

  engine::EngineConfig config;
  config.hdk = s.setup.MakeParams(s.setup.DfMaxLow());
  config.overlay = s.setup.overlay;
  config.overlay_seed = s.setup.overlay_seed;
  config.num_threads = kEngineThreads;
  config.result_cache_capacity = s.cache_capacity;
  config.replication = 2;
  config.sync.mode = sync::SyncMode::kIbf;
  auto plan = net::FaultPlan::Parse(
      "loss.ReplicaPush=0.05,loss.KeyProbe=0.01,loss.PostingsResponse=0.01,"
      "latency.KeyProbe=4,latency.PostingsResponse=4");
  if (!plan.ok()) return 1;
  config.faults = *plan;
  config.faults.seed = run.opt.seed;

  const auto hdk_of = [](SearchEngine& e) -> engine::HdkSearchEngine* {
    auto* cache = dynamic_cast<engine::ResultCacheEngine*>(&e);
    return cache == nullptr
               ? nullptr
               : dynamic_cast<engine::HdkSearchEngine*>(&cache->inner());
  };
  std::unique_ptr<SearchEngine> cached;
  if (!RepeatedBuild(
          run,
          [&] {
            return engine::MakeEngine("cached(hdk)", config, *in.store,
                                      initial);
          },
          hdk_of, &cached)) {
    return 1;
  }
  engine::HdkSearchEngine* hdk = hdk_of(*cached);

  const double segment_s = run.opt.seconds / 4;
  KindTotals net = ReadKinds(*hdk->traffic());
  FirstPass first;
  std::vector<StreamTimes> states;
  ChurnSegment(run, *cached, in, *hdk, segment_s, &net, &first, &states);

  // Join wave.
  const p2p::PhaseTimings before_join = hdk->phase_timings();
  KindTotals before = ReadKinds(*hdk->traffic());
  Stopwatch watch;
  const Status joined = [&] {
    ScopedSpan span(run.tracer, run.span_membership, 0);
    return cached->ApplyMembership(*in.store, join);
  }();
  const double join_s = watch.ElapsedSeconds();
  if (!run.Lifecycle(joined, "join")) return 1;
  AddDelta(before, ReadKinds(*hdk->traffic()), &net);
  const p2p::PhaseTimings& after_join = hdk->phase_timings();
  const double join_scan = after_join.scan_seconds - before_join.scan_seconds;
  const double join_merge =
      after_join.merge_seconds - before_join.merge_seconds;
  run.Set("join_s", join_s);
  run.Set("p2p.join.scan_s", join_scan);
  run.Set("p2p.join.merge_s", join_merge);
  run.Set("p2p.join.other_s", join_s - join_scan - join_merge);
  const p2p::GrowthStats& growth = hdk->last_growth();
  run.Set("p2p.join.reclassified_keys",
          static_cast<double>(growth.reclassified_keys));
  run.Set("p2p.join.migrated_keys", static_cast<double>(growth.migrated_keys));
  run.Set("p2p.join.delta_postings",
          static_cast<double>(growth.delta_postings));
  run.Set("sync.divergence_before", Divergence(*hdk));
  ChurnSegment(run, *cached, in, *hdk, segment_s, &net, &first, &states);

  // Anti-entropy sweep, where the join wave's lost pushes left divergence.
  before = ReadKinds(*hdk->traffic());
  watch.Restart();
  auto swept = [&] {
    ScopedSpan span(run.tracer, run.span_sweep, 0);
    return cached->RunAntiEntropy();
  }();
  const double sweep_s = watch.ElapsedSeconds();
  if (!run.Lifecycle(swept.status(), "sweep")) return 1;
  AddDelta(before, ReadKinds(*hdk->traffic()), &net);
  const sync::SyncStats& sync = *swept;
  run.Set("sweep_s", sweep_s);
  run.Set("sync.pairs_checked", static_cast<double>(sync.pairs_checked));
  run.Set("sync.pairs_diverged", static_cast<double>(sync.pairs_diverged));
  run.Set("sync.sketch_bytes", static_cast<double>(sync.sketch_bytes));
  run.Set("sync.shipped_postings", static_cast<double>(sync.ShippedPostings()));
  run.Set("sync.full_syncs", static_cast<double>(sync.full_syncs));
  run.Set("sync.decoded_share",
          sync.estimated_diff == 0
              ? 0.0
              : static_cast<double>(sync.decoded_diff) /
                    static_cast<double>(sync.estimated_diff));
  run.Gate("churn.sweep_repaired_pairs", sync.pairs_diverged > 0);
  run.Gate("churn.divergence_zero_after_sweep", Divergence(*hdk) == 0);
  ChurnSegment(run, *cached, in, *hdk, segment_s, &net, &first, &states);

  // Departure.
  before = ReadKinds(*hdk->traffic());
  watch.Restart();
  const Status left = [&] {
    ScopedSpan span(run.tracer, run.span_membership, 1);
    return cached->ApplyMembership(
        *in.store, {engine::MembershipEvent::Leave(leaving)});
  }();
  const double leave_s = watch.ElapsedSeconds();
  if (!run.Lifecycle(left, "leave")) return 1;
  AddDelta(before, ReadKinds(*hdk->traffic()), &net);
  const p2p::DepartureStats& departure = hdk->last_departure();
  run.Set("leave_s", leave_s);
  run.Set("p2p.leave.removed_contributions",
          static_cast<double>(departure.removed_contributions));
  run.Set("p2p.leave.retracted_keys",
          static_cast<double>(departure.retracted_keys));
  run.Set("p2p.leave.reverse_reclassified",
          static_cast<double>(departure.reverse_reclassified));
  run.Set("p2p.leave.repaired_keys",
          static_cast<double>(departure.repaired_keys));
  run.Set("p2p.leave.moved_postings",
          static_cast<double>(departure.moved_postings));
  ChurnSegment(run, *cached, in, *hdk, segment_s, &net, &first, &states);
  // Geometric mean, so the one-second sweep weighs as much as the
  // nine-second departure: a k times slower event moves it by cbrt(k).
  run.Set("lifecycle_s", std::cbrt(join_s * sweep_s * leave_s));
  run.Set("peak_rss_mb", PeakRssMb());
  std::printf("churn: join %.3fs, sweep %.3fs (%llu of %llu pairs diverged), "
              "leave %.3fs\n",
              join_s, sweep_s,
              static_cast<unsigned long long>(sync.pairs_diverged),
              static_cast<unsigned long long>(sync.pairs_checked), leave_s);

  RecordStreamTimes(run, states);
  SetNetMetrics(run, net);
  const QueryCost& c = first.cost;
  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);
  run.Set("engine.cache.hit_rate",
          lookups == 0 ? 0.0 : static_cast<double>(c.cache_hits) / lookups);
  std::vector<double> hit_us, miss_us;
  for (const StreamTimes& t : states) {
    hit_us.insert(hit_us.end(), t.hit_us.begin(), t.hit_us.end());
    miss_us.insert(miss_us.end(), t.miss_us.begin(), t.miss_us.end());
  }
  run.Set("engine.cache.hit_us", Median(hit_us));
  run.Set("engine.cache.miss_us", Median(miss_us));
  run.Set("p2p.fetch.retries", static_cast<double>(c.retries));
  run.Set("p2p.fetch.failovers", static_cast<double>(c.failovers));
  run.Set("p2p.fetch.unreachable", static_cast<double>(c.keys_unreachable));

  // Verification, outside the timed phases.
  run.Gate("churn.peer_ranges", hdk->peer_ranges() == expected);
  run.Gate("churn.divergence_zero_at_end", Divergence(*hdk) == 0);
  run.Gate("churn.partial_responses_flagged", run.partial_unflagged == 0);
  RecordPoolQuality(run, PoolPass(*hdk, in.pool), *in.reference, in.pool);
  const uint64_t churned_fp =
      engine::FingerprintContents(hdk->global_index().ExportContents());
  const std::vector<DocRange> final_ranges = hdk->peer_ranges();
  hdk = nullptr;
  cached.reset();
  engine::HdkEngineConfig clean;
  clean.hdk = config.hdk;
  clean.overlay = config.overlay;
  clean.overlay_seed = config.overlay_seed;
  clean.num_threads = kEngineThreads;
  auto reference =
      engine::HdkSearchEngine::Build(clean, *in.store, final_ranges);
  if (!reference.ok()) return 1;
  run.Gate("churn.contents_equal_rebuild",
           engine::FingerprintContents(
               (*reference)->global_index().ExportContents()) == churned_fp);
  return 0;
}

// ---------------------------------------------------------------------------
// Output

void PrintJson(const Run& run) {
  bool correct = true;
  for (const auto& [name, ok] : run.gates) correct = correct && ok;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"gates\": {",
              run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed),
              run.opt.trace ? 1 : 0, correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.gates.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ",
                run.gates[i].first.c_str(),
                run.gates[i].second ? "true" : "false");
  }
  std::printf("}, \"info\": {");
  for (size_t i = 0; i < run.info.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                run.info[i].first.c_str(), run.info[i].second);
  }
  std::printf("}, \"metrics\": {");
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                run.metrics[i].first.c_str(), run.metrics[i].second);
  }
  std::printf("}}\n");
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt->trace = std::string_view(value) == "1";
    } else if (flag == "--scale") {
      opt->scale = value;
    } else if (flag == "--workdir") {
      opt->workdir = value;
    } else if (flag == "--spans") {
      opt->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0 &&
         (opt->workload == "serve" || opt->workload == "churn");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve|churn --seed N "
                 "--seconds S --trace 0|1 [--scale default|small] "
                 "[--workdir DIR] [--spans FILE]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  Run run(opt);
  if (!MakeScale(opt.scale, &run.scale)) {
    std::fprintf(stderr, "unknown scale '%s'\n", opt.scale.c_str());
    return 2;
  }
  const Scale& s = run.scale;
  run.Info("host_threads", std::thread::hardware_concurrency());
  run.Info("engine_threads", kEngineThreads);
  run.Info("peers", s.peers);
  run.Info("docs_per_peer", s.docs_per_peer);
  run.Info("pool_queries", s.pool_queries);
  run.Info("stream_queries", s.stream_queries);
  run.Info("batch_size", s.batch_size);
  run.Info("setup_repeats", s.setup_repeats);
  std::printf("perfbench %s: seed %llu, %.1fs, trace %d, scale %s "
              "(%u peers x %u docs), %u engine threads on %u host threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale.c_str(), s.peers,
              s.docs_per_peer, static_cast<unsigned>(kEngineThreads),
              std::thread::hardware_concurrency());

  const int rc = opt.workload == "serve" ? RunServe(run) : RunChurn(run);
  if (rc != 0) return rc;
  run.Set("failed_share", static_cast<double>(run.failed) /
                              static_cast<double>(run.attempted));
  if (opt.trace && !opt.spans_path.empty() &&
      !run.tracer.Write(opt.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.spans_path.c_str());
    return 1;
  }
  PrintJson(run);
  for (const auto& [name, ok] : run.gates) {
    if (!ok) return 1;
  }
  return 0;
}
