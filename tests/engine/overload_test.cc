// Tail-latency armor end to end (deadline budgets, hedged replica reads,
// admission control — common/search_options.h and the engine wiring):
//
//   * with every knob at its default the engine is BYTE-IDENTICAL to the
//     pre-overload engine: the golden build fingerprints still hold with
//     the knobs explicitly defaulted, and batches carry zero armor
//     counters;
//   * hedged reads against a slow replica holder cut simulated latency
//     without changing a single ranked result, deterministically at every
//     thread count on both overlays;
//   * a deadline budget turns unreachable-holder retry storms into a
//     partial, explicitly-degraded top-k with deadline_exceeded set — and
//     a deadline wide enough to never bind is byte-identical to no
//     deadline at all;
//   * the admission gate sheds the lowest-priority queries of an
//     over-bound batch, explicitly flagged, never silently dropped.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/search_options.h"
#include "corpus/query_gen.h"
#include "corpus/stats.h"
#include "corpus/synthetic.h"
#include "engine/experiment.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "net/traffic.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus OverloadCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

HdkEngineConfig OverloadConfig(OverlayKind overlay, size_t num_threads) {
  HdkEngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = num_threads;
  return config;
}

std::vector<corpus::Query> OverloadQueries(
    const corpus::DocumentStore& store, std::span<const DocRange> ranges,
    size_t count = 25) {
  corpus::CollectionStats stats(store, ranges);
  corpus::QueryGenConfig qcfg;
  qcfg.min_term_df = 3;
  return corpus::QueryGenerator(qcfg, store, stats).Generate(count);
}

void ExpectSameRankings(const BatchResponse& a, const BatchResponse& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const auto& ra = a.responses[i].results;
    const auto& rb = b.responses[i].results;
    ASSERT_EQ(ra.size(), rb.size()) << "query " << i;
    for (size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].doc, rb[j].doc) << "query " << i;
      EXPECT_NEAR(ra[j].score, rb[j].score, 1e-12) << "query " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Defaults: byte identity with the pre-overload engine.

// The golden build fingerprints of the flat-map-era lifecycle test
// (tests/common/flat_map_test.cc) — re-asserted here with every overload
// knob EXPLICITLY at its default, so a default that silently activates
// breaks this test, not just the lifecycle one.
struct GoldenBuild {
  uint64_t contents_fp;
  uint64_t traffic_fp;
};
constexpr GoldenBuild kPGridGoldenBuild = {9975991081778628371ULL,
                                           11150792075817568124ULL};
constexpr GoldenBuild kChordGoldenBuild = {9975991081778628371ULL,
                                           14647834575931769478ULL};

class OverloadDefaultsTest
    : public ::testing::TestWithParam<std::tuple<OverlayKind, size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    OverlaysAndThreads, OverloadDefaultsTest,
    ::testing::Combine(::testing::Values(OverlayKind::kPGrid,
                                         OverlayKind::kChord),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == OverlayKind::kPGrid
                             ? "pgrid"
                             : "chord") +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST_P(OverloadDefaultsTest, ExplicitDefaultsMatchPreOverloadGoldens) {
  const auto [overlay, threads] = GetParam();
  // The golden fixtures' exact corpus and config.
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 2500;
  cfg.num_topics = 10;
  cfg.topic_width = 30;
  cfg.mean_doc_length = 45.0;
  cfg.topic_share = 0.7;
  corpus::DocumentStore store;
  corpus::SyntheticCorpus(cfg).FillStore(320, &store);

  HdkEngineConfig config;
  config.hdk.df_max = 9;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  // Every overload knob, spelled out at its default.
  config.admission = AdmissionConfig{};
  config.maintenance = MaintenanceConfig{};

  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(160, 4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();

  const GoldenBuild& golden = overlay == OverlayKind::kPGrid
                                  ? kPGridGoldenBuild
                                  : kChordGoldenBuild;
  EXPECT_EQ(FingerprintContents(engine->global_index().ExportContents()),
            golden.contents_fp);
  EXPECT_EQ(FingerprintTraffic(*engine->traffic()), golden.traffic_fp);
  EXPECT_EQ(engine->maintenance_sweeps(), 0u);
}

TEST_P(OverloadDefaultsTest, DefaultOptionsCarryZeroArmorCounters) {
  const auto [overlay, threads] = GetParam();
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Two identical builds (deterministic), one batch each: the engine's
  // origin rotation advances per batch, so same-engine comparisons would
  // compare different origins, not different options.
  const HdkEngineConfig config = OverloadConfig(overlay, threads);
  auto a = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  auto b = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  const auto queries = OverloadQueries(store, (*a)->peer_ranges());
  // Explicit default options and the options-free overload are the same
  // call, response for response.
  BatchResponse plain = (*a)->SearchBatch(queries, 20);
  BatchResponse spelled = (*b)->SearchBatch(queries, 20, SearchOptions{});
  EXPECT_EQ(FingerprintBatch(plain), FingerprintBatch(spelled));

  EXPECT_EQ(plain.total.hedges_fired, 0u);
  EXPECT_EQ(plain.total.hedge_wins, 0u);
  EXPECT_EQ(plain.total.deadline_exceeded, 0u);
  EXPECT_EQ(plain.total.shed, 0u);
  for (const SearchResponse& response : plain.responses) {
    EXPECT_FALSE(response.degraded);
    EXPECT_FALSE(response.shed);
  }
}

// ---------------------------------------------------------------------
// Hedged replica reads.

class HedgeTest : public ::testing::TestWithParam<OverlayKind> {};

INSTANTIATE_TEST_SUITE_P(BothOverlays, HedgeTest,
                         ::testing::Values(OverlayKind::kPGrid,
                                           OverlayKind::kChord),
                         [](const auto& info) {
                           return info.param == OverlayKind::kPGrid
                                      ? "pgrid"
                                      : "chord";
                         });

TEST_P(HedgeTest, HedgesCutSlowHolderLatencyWithIdenticalRankings) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Peer 3 is alive but a straggler: every leg addressed to it draws up
  // to 64 injected ticks. Its replica holders are fast.
  HdkEngineConfig config = OverloadConfig(GetParam(), 1);
  config.replication = 2;
  config.faults = *net::FaultPlan::Parse("seed=7,latency@3=64");
  auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();

  const auto queries = OverloadQueries(store, engine->peer_ranges());

  BatchResponse unhedged = engine->SearchBatch(queries, 20);
  SearchOptions hedged_options;
  hedged_options.hedge_delay_ticks = 4;
  BatchResponse hedged = engine->SearchBatch(queries, 20, hedged_options);

  // Identical rankings, zero degraded — hedging is pure latency armor.
  ExpectSameRankings(unhedged, hedged);
  for (const SearchResponse& response : hedged.responses) {
    EXPECT_FALSE(response.degraded);
  }
  // The straggler forced hedges, replicas won races, and the winners'
  // clock beats waiting out the slow legs.
  EXPECT_GT(hedged.total.hedges_fired, 0u);
  EXPECT_GT(hedged.total.hedge_wins, 0u);
  EXPECT_LT(hedged.total.latency_ticks, unhedged.total.latency_ticks);
}

TEST_P(HedgeTest, HedgedBatchesAreThreadCountInvariant) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  SearchOptions options;
  options.hedge_delay_ticks = 4;
  options.deadline_ticks = 512;

  uint64_t batch_fp[2] = {0, 0};
  net::TrafficCounters by_kind[2][net::kNumMessageKinds];
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    SCOPED_TRACE(std::to_string(threads) + " threads");
    HdkEngineConfig config = OverloadConfig(GetParam(), threads);
    config.replication = 2;
    config.faults = *net::FaultPlan::Parse("seed=7,loss=0.02,latency@3=64");
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();

    const auto queries = OverloadQueries(store, engine->peer_ranges());
    BatchResponse batch = engine->SearchBatch(queries, 20, options);
    EXPECT_GT(batch.total.hedges_fired, 0u);
    batch_fp[ti] = HashCombine(FingerprintBatch(batch),
                               batch.total.hedges_fired +
                                   batch.total.hedge_wins * 1000003ULL);
    for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
      by_kind[ti][k] =
          engine->traffic()->ByKind(static_cast<net::MessageKind>(k));
    }
  }
  // Every hedge decision is a pure hash of the message identity: the
  // batch (results, costs, armor counters) and the per-kind traffic are
  // identical at every thread count.
  EXPECT_EQ(batch_fp[0], batch_fp[1]);
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    EXPECT_EQ(by_kind[0][k], by_kind[1][k])
        << net::MessageKindName(static_cast<net::MessageKind>(k));
  }
}

struct TailStats {
  uint64_t p99_ticks = 0;
  uint64_t degraded = 0;
};

// One fresh build, then the queries one at a time with origins rotating
// over the peers and skipping `slow`: a slow requester drags every
// response leg addressed to it, which no holder-side armor can hedge.
TailStats RunTail(const HdkEngineConfig& config,
                  const corpus::DocumentStore& store,
                  const std::vector<DocRange>& ranges,
                  const std::vector<corpus::Query>& queries, size_t top_k,
                  const SearchOptions& options, PeerId slow) {
  auto built = HdkSearchEngine::Build(config, store, ranges);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return {};
  auto engine = std::move(built).value();
  const auto peers = static_cast<PeerId>(engine->num_peers());

  TailStats stats;
  std::vector<uint64_t> ticks;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto origin = static_cast<PeerId>(i % peers);
    if (origin == slow) origin = static_cast<PeerId>((origin + 1) % peers);
    SearchResponse response =
        engine->Search(queries[i].terms, top_k, options, origin);
    ticks.push_back(response.cost.latency_ticks);
    stats.degraded += response.degraded ? 1 : 0;
  }
  std::sort(ticks.begin(), ticks.end());
  stats.p99_ticks = ticks[std::min(
      ticks.size() - 1,
      static_cast<size_t>(0.99 * static_cast<double>(ticks.size())))];
  return stats;
}

// The tail scenario at the experiment harness's tiny scale (6 peers x 150
// documents, its 60-query workload): replication 2, every key probe draws
// up to 2 injected ticks and peer 3 is a straggler at up to 64 ticks per
// leg. Hedged reads must cut the per-query simulated p99 at least 2x and
// never degrade a query, since a healthy replica survives every hedge.
TEST(HedgeTailTest, HedgingHalvesSlowHolderP99WithoutDegrading) {
  const ExperimentSetup setup = ExperimentSetup::Tiny();
  const uint64_t docs =
      static_cast<uint64_t>(setup.max_peers) * setup.docs_per_peer;
  ExperimentContext ctx(setup);
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const std::vector<corpus::Query> queries =
      ctx.MakeQueries(docs, setup.num_queries);
  const auto ranges = SplitEvenly(docs, setup.max_peers);

  const PeerId slow = setup.max_peers / 2;
  HdkEngineConfig config;
  config.hdk = setup.MakeParams(setup.DfMaxLow());
  config.overlay = setup.overlay;
  config.overlay_seed = setup.overlay_seed;
  config.replication = 2;
  config.faults = *net::FaultPlan::Parse(
      "seed=7,latency.KeyProbe=2,latency@" + std::to_string(slow) + "=64");

  SearchOptions hedged_options;
  hedged_options.hedge_delay_ticks = 4;
  const TailStats plain = RunTail(config, store, ranges, queries, setup.top_k,
                                  SearchOptions{}, slow);
  const TailStats hedged = RunTail(config, store, ranges, queries,
                                   setup.top_k, hedged_options, slow);

  EXPECT_EQ(hedged.degraded, 0u);
  EXPECT_GT(hedged.p99_ticks, 0u);
  EXPECT_LE(hedged.p99_ticks * 2, plain.p99_ticks)
      << "hedged p99 " << hedged.p99_ticks << " ticks, unhedged "
      << plain.p99_ticks;
}

// ---------------------------------------------------------------------
// Deadline budgets.

TEST(DeadlineTest, BudgetDegradesInsteadOfRetryingForever) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  // Single-homed keys, one dead peer: without a deadline each touched
  // key burns the full retry/backoff budget against the corpse. One
  // fresh (identical) build per batch keeps the origin rotation aligned
  // across the three compared runs.
  HdkEngineConfig config = OverloadConfig(OverlayKind::kPGrid, 1);
  config.faults = *net::FaultPlan::Parse("seed=7,latency=6,kill=2");
  auto fresh_engine = [&] {
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).value();
  };

  auto engine = fresh_engine();
  const auto queries = OverloadQueries(store, engine->peer_ranges());
  BatchResponse unlimited = engine->SearchBatch(queries, 20);
  EXPECT_EQ(unlimited.total.deadline_exceeded, 0u);

  SearchOptions tight;
  tight.deadline_ticks = 8;
  BatchResponse bounded = fresh_engine()->SearchBatch(queries, 20, tight);

  // Some queries ran out of budget: each one is explicitly degraded,
  // flagged deadline_exceeded, and still returns a (partial) top-k.
  EXPECT_GT(bounded.total.deadline_exceeded, 0u);
  uint64_t flagged = 0;
  for (const SearchResponse& response : bounded.responses) {
    if (response.cost.deadline_exceeded > 0) {
      EXPECT_TRUE(response.degraded);
      ++flagged;
    }
  }
  EXPECT_EQ(flagged, bounded.total.deadline_exceeded);
  // The budget bounds simulated waiting: strictly less time than the
  // unbounded retry storm.
  EXPECT_LT(bounded.total.latency_ticks, unlimited.total.latency_ticks);

  // A deadline that never binds is byte-identical to no deadline.
  SearchOptions loose;
  loose.deadline_ticks = 1u << 30;
  BatchResponse wide = fresh_engine()->SearchBatch(queries, 20, loose);
  EXPECT_EQ(FingerprintBatch(wide), FingerprintBatch(unlimited));
  EXPECT_EQ(wide.total.deadline_exceeded, 0u);
}

TEST(DeadlineTest, BoundedBatchesAreThreadCountInvariant) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  SearchOptions tight;
  tight.deadline_ticks = 8;

  uint64_t fp[2] = {0, 0};
  uint64_t exceeded[2] = {0, 0};
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    HdkEngineConfig config = OverloadConfig(OverlayKind::kChord, threads);
    config.faults = *net::FaultPlan::Parse("seed=7,latency=6,kill=2");
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto engine = std::move(built).value();
    const auto queries = OverloadQueries(store, engine->peer_ranges());
    BatchResponse batch = engine->SearchBatch(queries, 20, tight);
    fp[ti] = FingerprintBatch(batch);
    exceeded[ti] = batch.total.deadline_exceeded;
  }
  // The budget is per query and charged by pure-hash latency draws: the
  // same queries exceed it at every thread count.
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_GT(exceeded[0], 0u);
  EXPECT_EQ(exceeded[0], exceeded[1]);
}

// ---------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, GateShedsLowestPriorityQueriesExplicitly) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  HdkEngineConfig config = OverloadConfig(OverlayKind::kPGrid, 1);
  auto open_built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(open_built.ok());
  auto open = std::move(open_built).value();

  HdkEngineConfig gated_config = config;
  gated_config.admission.max_batch_queries = 6;
  auto gated_built =
      HdkSearchEngine::Build(gated_config, store, SplitEvenly(240, 6));
  ASSERT_TRUE(gated_built.ok());
  auto gated = std::move(gated_built).value();

  std::vector<corpus::Query> queries =
      OverloadQueries(store, gated->peer_ranges(), 10);
  // Two background stragglers, one interactive, the rest normal.
  for (auto& q : queries) q.priority = QueryPriority::kNormal;
  queries[2].priority = QueryPriority::kBackground;
  queries[7].priority = QueryPriority::kBackground;
  queries[4].priority = QueryPriority::kInteractive;

  BatchResponse reference = open->SearchBatch(queries, 20);
  BatchResponse batch = gated->SearchBatch(queries, 20);

  // 10 queries, 6 admitted: the two background queries shed first, then
  // normal-priority queries from the back of the batch (9, then 8).
  const std::vector<size_t> expect_shed = {2, 7, 8, 9};
  uint64_t shed = 0;
  for (size_t i = 0; i < batch.responses.size(); ++i) {
    const SearchResponse& response = batch.responses[i];
    const bool should_shed =
        std::find(expect_shed.begin(), expect_shed.end(), i) !=
        expect_shed.end();
    EXPECT_EQ(response.shed, should_shed) << "query " << i;
    if (response.shed) {
      ++shed;
      // Shed is explicit and free: no results, no network work, flagged.
      EXPECT_TRUE(response.results.empty());
      EXPECT_EQ(response.cost.shed, 1u);
      EXPECT_EQ(response.cost.messages, 0u);
      EXPECT_FALSE(response.degraded);
    } else {
      // Admitted queries rank exactly as the ungated engine ranks them
      // (results are origin-independent).
      const auto& expected = reference.responses[i].results;
      ASSERT_EQ(response.results.size(), expected.size()) << "query " << i;
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(response.results[j].doc, expected[j].doc);
      }
    }
  }
  EXPECT_EQ(shed, expect_shed.size());
  EXPECT_EQ(batch.total.shed, expect_shed.size());

  // Under the bound nothing sheds, whatever the priorities say.
  std::vector<corpus::Query> small(queries.begin(), queries.begin() + 6);
  BatchResponse under = gated->SearchBatch(small, 20);
  EXPECT_EQ(under.total.shed, 0u);
}

TEST(AdmissionTest, ShedDecisionsAreThreadCountInvariant) {
  corpus::DocumentStore store;
  OverloadCorpus().FillStore(240, &store);

  uint64_t fp[2] = {0, 0};
  for (size_t ti = 0; ti < 2; ++ti) {
    const size_t threads = ti == 0 ? 1 : 4;
    HdkEngineConfig config = OverloadConfig(OverlayKind::kChord, threads);
    config.admission.max_batch_queries = 7;
    auto built = HdkSearchEngine::Build(config, store, SplitEvenly(240, 6));
    ASSERT_TRUE(built.ok());
    auto engine = std::move(built).value();
    std::vector<corpus::Query> queries =
        OverloadQueries(store, engine->peer_ranges(), 12);
    queries[1].priority = QueryPriority::kBackground;
    queries[10].priority = QueryPriority::kInteractive;
    BatchResponse batch = engine->SearchBatch(queries, 20);
    EXPECT_EQ(batch.total.shed, 5u);
    uint64_t h = FingerprintBatch(batch);
    for (const SearchResponse& response : batch.responses) {
      h = HashCombine(h, response.shed ? 1 : 0);
    }
    fp[ti] = h;
  }
  // Shedding happens before the batch fans out, so the victim set — and
  // everything downstream — is identical at every thread count.
  EXPECT_EQ(fp[0], fp[1]);
}

}  // namespace
}  // namespace hdk::engine
