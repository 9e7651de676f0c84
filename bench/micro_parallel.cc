// Parallel execution layer: thread-scaling sweep.
//
// Measures indexing-build and SearchBatch wall time for every engine at
// 1/2/4/8 worker threads, verifies that each configuration produces the
// exact same index and batch totals as the serial run, and emits
// BENCH_parallel.json. HDK rows also split the build into its scan phase
// (parallel per-peer candidate scans into the shards' pending runs) and
// its merge phase (shard-parallel EndLevel), from the engine's
// phase_timings(), and time one departure repair (Leave of the middle
// peer, after the batch) whose published contents must match too.
//
// Env knobs (see bench_common.h): HDKP2P_BENCH_SCALE=tiny,
// HDKP2P_CORPUS_CACHE, and HDKP2P_PARALLEL_THREADS to override the
// "1,2,4,8" sweep list.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "engine/engine_factory.h"
#include "engine/experiment.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"

namespace {

using namespace hdk;

std::vector<size_t> ThreadSweep() {
  std::vector<size_t> sweep;
  const char* env = std::getenv("HDKP2P_PARALLEL_THREADS");
  std::string spec = env != nullptr ? env : "1,2,4,8";
  for (char* tok = std::strtok(spec.data(), ","); tok != nullptr;
       tok = std::strtok(nullptr, ",")) {
    const size_t n = std::strtoul(tok, nullptr, 10);
    if (n >= 1) sweep.push_back(n);
  }
  if (sweep.empty() || sweep.front() != 1) {
    sweep.insert(sweep.begin(), 1);  // thread count 1 anchors the speedups
  }
  return sweep;
}

struct Point {
  size_t threads = 0;
  double build_s = 0;
  double batch_s = 0;
  std::optional<p2p::PhaseTimings> phases;  // HDK builds only
  double leave_s = 0;                       // HDK only
  bool identical = false;
};

struct EngineSweep {
  engine::EngineKind kind;
  std::vector<Point> points;
};

}  // namespace

int main() {
  auto setup = bench::SelectSetup();
  bench::Banner(
      "micro_parallel: thread-scaling of indexing build and SearchBatch",
      "parallel fan-out is bit-identical to serial; speedup tracks cores");
  bench::PrintSetup(setup);

  const uint32_t peers = setup.max_peers;
  const uint64_t docs =
      static_cast<uint64_t>(peers) * setup.docs_per_peer;
  engine::ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  // A fat batch so the fan-out has enough work per thread.
  std::vector<corpus::Query> queries =
      ctx.MakeQueries(docs, setup.num_queries);
  {
    const size_t base = queries.size();
    for (int rep = 1; rep < 4; ++rep) {
      for (size_t i = 0; i < base; ++i) queries.push_back(queries[i]);
    }
  }
  const auto ranges = engine::SplitEvenly(docs, peers);
  const std::vector<size_t> sweep = ThreadSweep();

  std::printf("hardware threads: %zu | peers %u | docs %llu | batch %zu "
              "queries\n\n",
              ThreadPool::HardwareThreads(), peers,
              static_cast<unsigned long long>(docs), queries.size());

  std::vector<EngineSweep> sweeps;
  for (engine::EngineKind kind : engine::kAllEngineKinds) {
    EngineSweep es;
    es.kind = kind;
    const bool hdk = kind == engine::EngineKind::kHdk;
    std::printf("%-12s %8s %12s %12s %10s %10s %10s",
                std::string(engine::EngineKindName(kind)).c_str(),
                "threads", "build_s", "batch_s", "build_x", "batch_x",
                "identical");
    std::printf(hdk ? " %10s %10s %10s %10s\n" : "\n", "scan_s", "merge_s",
                "leave_s", "leave_x");

    double serial_build = 0, serial_batch = 0, serial_leave = 0;
    double serial_stored = 0;
    uint64_t serial_fingerprint = 0, serial_departed = 0;
    for (size_t threads : sweep) {
      engine::EngineConfig config;
      config.hdk = setup.MakeParams(setup.DfMaxLow());
      config.overlay = setup.overlay;
      config.overlay_seed = setup.overlay_seed;
      config.num_threads = threads;

      Stopwatch build_watch;
      auto built = engine::MakeEngine(kind, config, store, ranges);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      const double build_s = build_watch.ElapsedSeconds();
      std::optional<p2p::PhaseTimings> phases;
      if (hdk) {
        phases = static_cast<const engine::HdkSearchEngine&>(**built)
                     .phase_timings();
      }

      Stopwatch batch_watch;
      auto batch = (*built)->SearchBatch(queries, setup.top_k);
      const double batch_s = batch_watch.ElapsedSeconds();

      const double stored = (*built)->StoredPostingsPerPeer();
      const uint64_t fingerprint = bench::FingerprintBatch(batch);

      // HDK: one departure repair of the middle peer, then the published
      // contents it left behind.
      double leave_s = 0;
      uint64_t departed = 0;
      if (hdk) {
        Stopwatch leave_watch;
        const Status left = (*built)->ApplyMembership(
            store, {engine::MembershipEvent::Leave(peers / 2)});
        leave_s = leave_watch.ElapsedSeconds();
        if (!left.ok()) {
          std::fprintf(stderr, "leave failed: %s\n",
                       left.ToString().c_str());
          return 1;
        }
        departed = bench::FingerprintContents(
            static_cast<const engine::HdkSearchEngine&>(**built)
                .global_index()
                .ExportContents());
      }
      if (threads == 1) {
        serial_build = build_s;
        serial_batch = batch_s;
        serial_leave = leave_s;
        serial_stored = stored;
        serial_fingerprint = fingerprint;
        serial_departed = departed;
      }
      Point p;
      p.threads = threads;
      p.build_s = build_s;
      p.batch_s = batch_s;
      p.phases = phases;
      p.leave_s = leave_s;
      p.identical = stored == serial_stored &&
                    fingerprint == serial_fingerprint &&
                    departed == serial_departed;
      es.points.push_back(p);

      std::printf("%-12s %8zu %12.3f %12.3f %9.2fx %9.2fx %10s", "",
                  threads, build_s, batch_s,
                  build_s > 0 ? serial_build / build_s : 0.0,
                  batch_s > 0 ? serial_batch / batch_s : 0.0,
                  p.identical ? "yes" : "NO");
      if (phases) {
        std::printf(" %10.3f %10.3f %10.3f %9.2fx", phases->scan_seconds,
                    phases->merge_seconds, leave_s,
                    leave_s > 0 ? serial_leave / leave_s : 0.0);
      }
      std::printf("\n");
      if (!p.identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %zu threads for %s\n",
                     threads,
                     std::string(engine::EngineKindName(kind)).c_str());
        return 1;
      }
    }
    std::printf("\n");
    sweeps.push_back(std::move(es));
  }

  const char* out_path = "BENCH_parallel.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_parallel\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n",
               std::getenv("HDKP2P_BENCH_SCALE") != nullptr &&
                       std::strcmp(std::getenv("HDKP2P_BENCH_SCALE"),
                                   "tiny") == 0
                   ? "tiny"
                   : "default");
  std::fprintf(out, "  \"hardware_threads\": %zu,\n",
               ThreadPool::HardwareThreads());
  std::fprintf(out, "  \"num_peers\": %u,\n  \"num_docs\": %llu,\n",
               peers, static_cast<unsigned long long>(docs));
  std::fprintf(out, "  \"batch_queries\": %zu,\n  \"engines\": [\n",
               queries.size());
  for (size_t e = 0; e < sweeps.size(); ++e) {
    const EngineSweep& es = sweeps[e];
    std::fprintf(out, "    {\"engine\": \"%s\", \"points\": [\n",
                 std::string(engine::EngineKindName(es.kind)).c_str());
    const double b1 = es.points.front().build_s;
    const double q1 = es.points.front().batch_s;
    const double l1 = es.points.front().leave_s;
    for (size_t i = 0; i < es.points.size(); ++i) {
      const Point& p = es.points[i];
      const double end_to_end =
          (b1 + q1) > 0 && (p.build_s + p.batch_s) > 0
              ? (b1 + q1) / (p.build_s + p.batch_s)
              : 0.0;
      std::fprintf(out,
                   "      {\"threads\": %zu, \"build_s\": %.6f, "
                   "\"batch_s\": %.6f, \"build_speedup\": %.3f, "
                   "\"batch_speedup\": %.3f, \"end_to_end_speedup\": %.3f, ",
                   p.threads, p.build_s, p.batch_s,
                   p.build_s > 0 ? b1 / p.build_s : 0.0,
                   p.batch_s > 0 ? q1 / p.batch_s : 0.0, end_to_end);
      if (p.phases) {
        std::fprintf(out,
                     "\"scan_s\": %.6f, \"merge_s\": %.6f, "
                     "\"leave_s\": %.6f, \"leave_speedup\": %.3f, ",
                     p.phases->scan_seconds, p.phases->merge_seconds,
                     p.leave_s, p.leave_s > 0 ? l1 / p.leave_s : 0.0);
      }
      std::fprintf(out, "\"identical_to_serial\": %s}%s\n",
                   p.identical ? "true" : "false",
                   i + 1 < es.points.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", e + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
