// Shared helpers for the paper-reproduction bench harnesses.
#ifndef HDKP2P_BENCH_BENCH_COMMON_H_
#define HDKP2P_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "engine/experiment.h"
#include "engine/fingerprint.h"

namespace hdk::bench {

// The determinism-asserting fingerprints (shared with the test suite).
using engine::FingerprintBatch;
using engine::FingerprintContents;
using engine::FingerprintTraffic;

/// Selects the experiment scale: HDKP2P_BENCH_SCALE=tiny for smoke runs,
/// unset or "default" for the scaled-default reproduction. Two more
/// environment knobs apply to every bench:
///   HDKP2P_THREADS       worker threads per engine (0/unset = hardware
///                        concurrency, 1 = serial; results identical),
///   HDKP2P_CORPUS_CACHE  directory of the on-disk synthetic-corpus cache
///                        (unset = "corpus_cache"; "off" or "0" disables).
/// Any other scale, or a thread count that is not a plain number, prints
/// the bad value and exits 1.
inline engine::ExperimentSetup SelectSetup() {
  SetLogLevel(LogLevel::kWarning);
  const char* scale = std::getenv("HDKP2P_BENCH_SCALE");
  engine::ExperimentSetup setup = engine::ExperimentSetup::ScaledDefault();
  if (scale != nullptr && std::strcmp(scale, "tiny") == 0) {
    setup = engine::ExperimentSetup::Tiny();
  } else if (scale != nullptr && std::strcmp(scale, "default") != 0) {
    std::fprintf(stderr,
                 "HDKP2P_BENCH_SCALE must be 'tiny' or 'default', got '%s'\n",
                 scale);
    std::exit(1);
  }

  if (const char* threads = std::getenv("HDKP2P_THREADS")) {
    const char* end = threads + std::strlen(threads);
    auto [ptr, ec] = std::from_chars(threads, end, setup.num_threads);
    if (ec != std::errc() || ptr != end) {
      std::fprintf(stderr,
                   "HDKP2P_THREADS must be a thread count, got '%s'\n",
                   threads);
      std::exit(1);
    }
  }
  const char* cache = std::getenv("HDKP2P_CORPUS_CACHE");
  if (cache == nullptr) {
    setup.corpus_cache_dir = "corpus_cache";
  } else if (std::strcmp(cache, "off") != 0 && std::strcmp(cache, "0") != 0 &&
             cache[0] != '\0') {
    setup.corpus_cache_dir = cache;
  }
  return setup;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_summary) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_summary);
  std::printf("==============================================================="
              "=================\n");
}

/// Prints the scaled-setup footprint so readers can relate the numbers to
/// the paper's absolute scale.
inline void PrintSetup(const engine::ExperimentSetup& setup) {
  std::printf("setup: peers %u..%u (step %u), docs/peer %u, "
              "DFmax {%llu, %llu}, Ff %llu, w 20, smax 3\n",
              setup.initial_peers, setup.max_peers, setup.peer_step,
              setup.docs_per_peer,
              static_cast<unsigned long long>(setup.DfMaxLow()),
              static_cast<unsigned long long>(setup.DfMaxHigh()),
              static_cast<unsigned long long>(setup.DeriveFf()));
  std::printf("(paper: peers 4..28, 5000 docs/peer, DFmax {400,500}, "
              "Ff 100000 — thresholds scaled per DESIGN.md)\n\n");
}

}  // namespace hdk::bench

#endif  // HDKP2P_BENCH_BENCH_COMMON_H_
