// Property tests run against BOTH overlay implementations: any structured
// overlay must satisfy these regardless of topology.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/overlay_factory.h"

namespace hdk::dht {
namespace {

using engine::MakeOverlay;
using engine::OverlayKind;

class OverlayPropertyTest
    : public ::testing::TestWithParam<std::tuple<OverlayKind, size_t>> {
 protected:
  std::unique_ptr<Overlay> Make() const {
    return MakeOverlay(std::get<0>(GetParam()), std::get<1>(GetParam()),
                       0xBEEF);
  }
};

TEST_P(OverlayPropertyTest, EveryKeyHasExactlyOneOwner) {
  auto overlay = Make();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    RingId key = rng.Next();
    PeerId owner = overlay->Responsible(key);
    EXPECT_LT(owner, overlay->num_peers());
    // Stability: asking twice gives the same answer.
    EXPECT_EQ(overlay->Responsible(key), owner);
  }
}

TEST_P(OverlayPropertyTest, RoutingFromEveryPeerConverges) {
  auto overlay = Make();
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    RingId key = rng.Next();
    PeerId owner = overlay->Responsible(key);
    for (PeerId src = 0; src < overlay->num_peers(); ++src) {
      std::vector<PeerId> path;
      overlay->Route(src, key, &path);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.back(), owner);
    }
  }
}

TEST_P(OverlayPropertyTest, OwnerRoutesToItselfInZeroHops) {
  auto overlay = Make();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    RingId key = rng.Next();
    PeerId owner = overlay->Responsible(key);
    EXPECT_EQ(overlay->Route(owner, key), 0u);
  }
}

TEST_P(OverlayPropertyTest, HopsAreLogarithmicOnAverage) {
  auto overlay = Make();
  if (overlay->num_peers() < 4) GTEST_SKIP();
  Rng rng(4);
  double total = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    RingId key = rng.Next();
    PeerId src = static_cast<PeerId>(rng.NextBounded(overlay->num_peers()));
    total += static_cast<double>(overlay->Route(src, key));
  }
  const double log_n =
      std::log2(static_cast<double>(overlay->num_peers()));
  EXPECT_LT(total / n, 2.0 * log_n + 2.0);
}

TEST_P(OverlayPropertyTest, GrowthPreservesTotalCoverage) {
  auto overlay = Make();
  Rng rng(5);
  for (int joins = 0; joins < 4; ++joins) {
    ASSERT_TRUE(overlay->AddPeer().ok());
    for (int i = 0; i < 100; ++i) {
      RingId key = rng.Next();
      PeerId owner = overlay->Responsible(key);
      EXPECT_LT(owner, overlay->num_peers());
      std::vector<PeerId> path;
      overlay->Route(0, key, &path);
      EXPECT_EQ(path.back(), owner);
    }
  }
}

TEST_P(OverlayPropertyTest, RemovalPreservesTotalCoverage) {
  auto overlay = Make();
  Rng rng(6);
  if (overlay->num_peers() == 1) {
    // The last peer can never leave.
    EXPECT_FALSE(overlay->RemovePeer(0).ok());
    return;
  }
  EXPECT_FALSE(overlay->RemovePeer(
                          static_cast<PeerId>(overlay->num_peers()))
                   .ok());

  // Churn peers out one by one — from the middle, the front and the back
  // — down to a single survivor; the cover must stay complete and the
  // routing convergent throughout.
  while (overlay->num_peers() > 1) {
    const PeerId victim =
        static_cast<PeerId>(rng.NextBounded(overlay->num_peers()));
    ASSERT_TRUE(overlay->RemovePeer(victim).ok());
    for (int i = 0; i < 100; ++i) {
      RingId key = rng.Next();
      PeerId owner = overlay->Responsible(key);
      EXPECT_LT(owner, overlay->num_peers());
      for (PeerId src = 0; src < overlay->num_peers(); ++src) {
        std::vector<PeerId> path;
        overlay->Route(src, key, &path);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.back(), owner);
      }
    }
  }
  EXPECT_FALSE(overlay->RemovePeer(0).ok());
}

TEST_P(OverlayPropertyTest, RemovalAfterGrowthKeepsIdsDense) {
  auto overlay = Make();
  Rng rng(7);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(overlay->AddPeer().ok());
  const size_t before = overlay->num_peers();
  ASSERT_TRUE(overlay->RemovePeer(static_cast<PeerId>(before / 2)).ok());
  EXPECT_EQ(overlay->num_peers(), before - 1);
  for (int i = 0; i < 200; ++i) {
    PeerId owner = overlay->Responsible(rng.Next());
    EXPECT_LT(owner, overlay->num_peers());
  }
}

TEST_P(OverlayPropertyTest, ReplicaHoldersAreADistinctPrefixWalk) {
  // Factors past HolderList::kInline exercise the spill to the heap; the
  // salted walk extends the shorter lists, so each factor's holders are a
  // prefix of the next factor's.
  auto overlay = Make();
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key_hash = rng.Next();
    std::vector<PeerId> previous;
    for (uint32_t r = 1; r <= 2 * HolderList::kInline + 1; ++r) {
      const HolderList holders = ReplicaHolders(*overlay, key_hash, r);
      const std::vector<PeerId> got(holders.begin(), holders.end());
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.front(), overlay->Responsible(key_hash));
      EXPECT_LE(got.size(), std::min<size_t>(r, overlay->num_peers()));
      std::vector<PeerId> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j], holders[j]);
        EXPECT_LT(got[j], overlay->num_peers());
      }
      ASSERT_GE(got.size(), previous.size());
      EXPECT_TRUE(std::equal(previous.begin(), previous.end(), got.begin()));
      previous = got;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothOverlays, OverlayPropertyTest,
    ::testing::Combine(::testing::Values(OverlayKind::kPGrid,
                                         OverlayKind::kChord),
                       ::testing::Values(1u, 2u, 4u, 13u, 28u, 64u)),
    [](const auto& info) {
      std::string kind = std::get<0>(info.param) == OverlayKind::kPGrid
                             ? "PGrid"
                             : "Chord";
      return kind + "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hdk::dht
