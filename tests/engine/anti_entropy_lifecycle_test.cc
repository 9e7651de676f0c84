// Golden for the replicated lifecycle: build -> join wave ->
// RunAntiEntropy -> leave under replication 2, IBF sync and lossy
// replica pushes, on both overlays at 1, 2 and 4 threads. The join
// (OnOverlayGrown), the sweep and the leave (FinishDeparture) each run
// ReconcileReplicas (collect, gather, plan, apply), so this pins:
//
//   * cross-thread identity: cumulative SyncStats, per-kind traffic,
//     replica divergence and the published contents are equal, counter
//     for counter, at every thread (and therefore shard) count;
//   * output identity across refactors: every stage matches constants
//     captured before the reconcile went holder-parallel end to end.
//
// Runs in the CI sanitizer jobs (the name matches their anti_entropy
// filter): the holder-parallel gather is exactly what TSan stresses.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "corpus/synthetic.h"
#include "engine/fingerprint.h"
#include "engine/hdk_engine.h"
#include "engine/membership.h"
#include "engine/partition.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "sync/sync.h"

namespace hdk::engine {
namespace {

corpus::SyntheticCorpus LifecycleCorpus() {
  corpus::SyntheticConfig cfg;
  cfg.seed = 4242;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 12;
  cfg.topic_width = 35;
  cfg.mean_doc_length = 50.0;
  cfg.topic_share = 0.7;
  return corpus::SyntheticCorpus(cfg);
}

HdkEngineConfig LifecycleConfig(OverlayKind overlay, size_t threads) {
  HdkEngineConfig config;
  config.hdk.df_max = 8;
  config.hdk.very_frequent_threshold = 450;
  config.hdk.window = 8;
  config.hdk.s_max = 3;
  config.overlay = overlay;
  config.num_threads = threads;
  config.replication = 2;
  config.sync.mode = sync::SyncMode::kIbf;
  config.faults = *net::FaultPlan::Parse("seed=7,loss.ReplicaPush=0.05");
  return config;
}

uint64_t FingerprintSync(const sync::SyncStats& s) {
  uint64_t h = 0;
  for (uint64_t v :
       {s.pairs_checked, s.pairs_diverged, s.pairs_unreachable, s.messages,
        s.sketch_messages, s.sketch_bytes, s.estimated_diff, s.decoded_diff,
        s.delta_keys, s.delta_postings, s.dropped_keys, s.full_syncs,
        s.full_keys, s.full_postings}) {
    h = HashCombine(h, v);
  }
  return h;
}

/// Everything the golden covers, captured after one lifecycle stage.
struct Stage {
  sync::SyncStats sync;  // cumulative over every reconcile so far
  std::vector<net::TrafficCounters> by_kind;
  uint64_t traffic_fp = 0;
  uint64_t divergence = 0;
  uint64_t contents_fp = 0;
};

Stage Capture(const HdkSearchEngine& engine) {
  Stage stage;
  stage.sync = engine.global_index().sync_stats();
  for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
    stage.by_kind.push_back(
        engine.traffic()->ByKind(static_cast<net::MessageKind>(k)));
  }
  stage.traffic_fp = FingerprintTraffic(*engine.traffic());
  stage.divergence = engine.global_index().CountReplicaDivergence();
  stage.contents_fp =
      FingerprintContents(engine.global_index().ExportContents());
  return stage;
}

constexpr const char* kStageNames[] = {"build", "join wave", "sweep",
                                       "leave"};

/// Build (8 peers, 240 documents) -> join wave (2 peers, 40 documents
/// each) -> one anti-entropy sweep -> peer 1 leaves.
std::vector<Stage> RunLifecycle(OverlayKind overlay, size_t threads,
                                const corpus::DocumentStore& store) {
  std::vector<Stage> stages;
  auto built = HdkSearchEngine::Build(LifecycleConfig(overlay, threads),
                                      store, SplitEvenly(240, 8));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return stages;
  std::unique_ptr<HdkSearchEngine> engine = std::move(built).value();
  stages.push_back(Capture(*engine));

  EXPECT_TRUE(engine->ApplyMembership(store, JoinWave(240, 2, 40)).ok());
  stages.push_back(Capture(*engine));

  EXPECT_TRUE(engine->RunAntiEntropy().ok());
  stages.push_back(Capture(*engine));

  const std::vector<MembershipEvent> leave = {MembershipEvent::Leave(1)};
  EXPECT_TRUE(engine->ApplyMembership(store, leave).ok());
  stages.push_back(Capture(*engine));
  return stages;
}

struct GoldenStage {
  uint64_t sync_fp;
  uint64_t traffic_fp;
  uint64_t divergence;
  uint64_t contents_fp;
};

// Captured on the serial run of the reconcile that still regrouped every
// holder's records serially and scanned decoded digests linearly.
constexpr GoldenStage kPGridGolden[] = {
    {7110897082260898134ULL, 14167538992719865587ULL, 463,
     17831639250808255597ULL},
    {7757134190568057291ULL, 15245383473326393971ULL, 506,
     5393943064855872797ULL},
    {10570859122565469304ULL, 17704450238786310559ULL, 0,
     5393943064855872797ULL},
    {11004223011227272283ULL, 3453672936055128896ULL, 0,
     400290476246814288ULL},
};
constexpr GoldenStage kChordGolden[] = {
    {7110897082260898134ULL, 1344850458355875959ULL, 497,
     17831639250808255597ULL},
    {1078448795847287668ULL, 13488950876358146118ULL, 521,
     5393943064855872797ULL},
    {2144312335598886401ULL, 13857615479891069085ULL, 0,
     5393943064855872797ULL},
    {5247495916785234399ULL, 16705569100598948967ULL, 0,
     400290476246814288ULL},
};

class AntiEntropyLifecycleTest : public ::testing::TestWithParam<OverlayKind> {
};

TEST_P(AntiEntropyLifecycleTest, GoldenAndIdenticalAcrossThreadCounts) {
  corpus::SyntheticCorpus corpus = LifecycleCorpus();
  corpus::DocumentStore store;
  corpus.FillStore(320, &store);
  const GoldenStage* golden =
      GetParam() == OverlayKind::kPGrid ? kPGridGolden : kChordGolden;

  const std::vector<Stage> reference = RunLifecycle(GetParam(), 1, store);
  ASSERT_EQ(reference.size(), 4u);
  // The scenario exercises what it pins: the lossy build left divergence,
  // the sweep decoded and shipped, and the sweep healed everything.
  EXPECT_GT(reference[0].divergence, 0u);
  EXPECT_GT(reference[2].sync.delta_keys, 0u);
  EXPECT_EQ(reference[2].divergence, 0u);

  for (size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(kStageNames[i]);
    const Stage& got = reference[i];
    EXPECT_EQ(FingerprintSync(got.sync), golden[i].sync_fp);
    EXPECT_EQ(got.traffic_fp, golden[i].traffic_fp);
    EXPECT_EQ(got.divergence, golden[i].divergence);
    EXPECT_EQ(got.contents_fp, golden[i].contents_fp);
  }

  for (size_t threads : {size_t{2}, size_t{4}}) {
    const std::vector<Stage> stages = RunLifecycle(GetParam(), threads, store);
    ASSERT_EQ(stages.size(), reference.size());
    for (size_t i = 0; i < stages.size(); ++i) {
      SCOPED_TRACE(std::string(kStageNames[i]) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(stages[i].sync, reference[i].sync);
      for (size_t k = 0; k < net::kNumMessageKinds; ++k) {
        EXPECT_EQ(stages[i].by_kind[k], reference[i].by_kind[k])
            << net::MessageKindName(static_cast<net::MessageKind>(k));
      }
      EXPECT_EQ(stages[i].divergence, reference[i].divergence);
      EXPECT_EQ(stages[i].contents_fp, reference[i].contents_fp);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothOverlays, AntiEntropyLifecycleTest,
    ::testing::Values(OverlayKind::kPGrid, OverlayKind::kChord),
    [](const ::testing::TestParamInfo<OverlayKind>& info) {
      return info.param == OverlayKind::kPGrid ? "pgrid" : "chord";
    });

}  // namespace
}  // namespace hdk::engine
