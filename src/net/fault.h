// Deterministic fault injection for the simulated network.
//
// The engine's protocols were written against a perfect transport: the
// TrafficRecorder counts messages but every one of them is implicitly
// delivered. This header adds the failure vocabulary the ROADMAP's real
// transport needs to already exist: a seedable FaultInjector that decides
// — per message kind, per (src, dst) pair — whether a message is lost,
// how many latency ticks it accrues, and whether the destination peer is
// hard-dead (an unannounced failure: every message to it fails until a
// membership event or HdkSearchEngine::EvictDeadPeers removes it). A
// PeerHealth strain tracker (modeled on distft's session_metadata) counts
// consecutive failures per peer and feeds replica-failover ordering.
//
// DETERMINISM: loss and latency decisions are PURE HASHES of
// (seed, kind, src, dst, salt, attempt) — there is no shared RNG stream,
// so the fault schedule is bit-reproducible at any thread count and any
// interleaving. Deaths change only in serial sections (plan install,
// KillPeer/RevivePeer), never as a side effect of traffic.
//
// The Channel wraps a TrafficRecorder + a Resilience bundle and is the
// single choke point the protocols send through:
//   Send          one attempt, always recorded; reports delivery.
//   SendReliable  bounded retry with exponential backoff (query path);
//                 updates PeerHealth on success/failure.
//   SendAssured   barrier-reliable (indexing path): delivery guaranteed
//                 unless the destination is hard-dead; attempts beyond
//                 the retry budget are absorbed by the caller's
//                 redelivery queue, so only up to max_attempts messages
//                 are recorded.
// With an inactive injector every mode records exactly one message —
// byte-identical traffic to the pre-fault engine.
#ifndef HDKP2P_NET_FAULT_H_
#define HDKP2P_NET_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/search_options.h"
#include "common/status.h"
#include "common/types.h"
#include "net/traffic.h"
#include "sync/sync.h"

namespace hdk::net {

/// "every message delivered TO `peer` draws latency from [0, ticks]" —
/// the per-peer override that scripts one slow holder.
struct PeerLatency {
  PeerId peer = kInvalidPeer;
  uint32_t max_ticks = 0;

  bool operator==(const PeerLatency&) const = default;
};

/// Declarative fault schedule. Parsed from / serialized to the spec
/// grammar used by the `faulty:` engine decorator:
///
///   seed=7,loss=0.01,loss.KeyProbe=0.05,latency=3,kill=2
///
/// comma-separated key=value pairs:
///   seed=N            injector seed (default 0)
///   loss=P            global loss probability, 0 <= P < 1
///   loss.<Kind>=P     per-kind override (Kind = MessageKindName, e.g.
///                     KeyProbe, InsertPostings); falls back to `loss`
///   latency=T         max added latency ticks per delivered message
///                     (actual ticks = hash-uniform in [0, T])
///   latency.<Kind>=T  per-kind max-latency override; falls back to
///                     `latency`
///   latency@X=T       per-destination-peer override: every message TO
///                     peer X draws from [0, T] — the strongest
///                     precedence, for scripting a single slow holder
///   kill=X            peer X is hard-dead from plan install
///                     (repeatable)
struct FaultPlan {
  uint64_t seed = 0;
  double loss = 0.0;
  /// Per-kind loss override; negative = inherit the global `loss`.
  std::array<double, kNumMessageKinds> kind_loss = [] {
    std::array<double, kNumMessageKinds> a;
    a.fill(-1.0);
    return a;
  }();
  uint32_t max_latency_ticks = 0;
  /// Per-kind max-latency override; negative = inherit `latency`.
  std::array<int64_t, kNumMessageKinds> kind_latency = [] {
    std::array<int64_t, kNumMessageKinds> a;
    a.fill(-1);
    return a;
  }();
  /// Per-destination-peer max-latency override (strongest precedence).
  std::vector<PeerLatency> peer_latency;
  /// Peers that are hard-dead from plan install (`kill=X`).
  std::vector<PeerId> killed;

  /// True when this plan can actually perturb traffic.
  bool active() const {
    if (loss > 0.0 || max_latency_ticks > 0 || !killed.empty()) return true;
    for (double p : kind_loss) {
      if (p > 0.0) return true;
    }
    for (int64_t t : kind_latency) {
      if (t > 0) return true;
    }
    for (const PeerLatency& pl : peer_latency) {
      if (pl.max_ticks > 0) return true;
    }
    return false;
  }

  /// Effective loss probability for one kind.
  double LossFor(MessageKind kind) const {
    const double p = kind_loss[static_cast<size_t>(kind)];
    return p < 0.0 ? loss : p;
  }

  /// Effective max latency of a message of `kind` delivered to `dst`:
  /// per-peer override first, then per-kind, then the global `latency`.
  uint32_t MaxLatencyFor(MessageKind kind, PeerId dst) const {
    for (const PeerLatency& pl : peer_latency) {
      if (pl.peer == dst) return pl.max_ticks;
    }
    const int64_t t = kind_latency[static_cast<size_t>(kind)];
    return t >= 0 ? static_cast<uint32_t>(t) : max_latency_ticks;
  }

  /// Parses the spec grammar above. Empty input yields the inert plan.
  static Result<FaultPlan> Parse(std::string_view spec);

  /// Round-trips through Parse().
  std::string ToString() const;

  bool operator==(const FaultPlan&) const = default;
};

/// Bounded-retry policy shared by the query and indexing send paths.
struct RetryPolicy {
  /// Total attempts per logical message (first try + retries).
  uint32_t max_attempts = 4;
  /// Backoff after attempt k waits base << k ticks (simulated time,
  /// surfaced in QueryCost::latency_ticks — nothing actually sleeps).
  uint32_t backoff_base_ticks = 1;
};

/// Deterministic, thread-safe fault decision oracle.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Replaces the plan. Serial sections only (between parallel regions).
  void Install(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// False when every decision is "deliver instantly" — the transport's
  /// fast path skips the oracle entirely.
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Pure-hash loss decision for attempt `attempt` of the message
  /// identified by (kind, src, dst, salt). `salt` distinguishes logical
  /// messages with identical endpoints (callers pass a key hash or
  /// sequence number).
  bool Lost(MessageKind kind, PeerId src, PeerId dst, uint64_t salt,
            uint32_t attempt) const;

  /// Pure-hash added latency in [0, plan.max_latency_ticks] for a
  /// delivered message.
  uint32_t LatencyTicks(MessageKind kind, PeerId src, PeerId dst,
                        uint64_t salt, uint32_t attempt) const;

  /// True when `peer` is hard-dead: killed by the plan or by KillPeer,
  /// and not revived since. Dead peers fail every message
  /// deterministically.
  bool PeerDead(PeerId peer) const;

  /// Marks `peer` hard-dead / alive again. Thread-safe.
  void KillPeer(PeerId peer);
  void RevivePeer(PeerId peer);

  /// Overlay departure: `peer` left through the membership protocol, and
  /// every id above it was renumbered down by one. Compacts the
  /// dead-peer state and the plan's peer ids the same way.
  void OnPeerRemoved(PeerId peer);

  /// Grows internal per-peer state to `n` peers. Thread-safe, monotone.
  void EnsurePeers(size_t n);

 private:
  uint64_t DecisionHash(uint64_t stream, MessageKind kind, PeerId src,
                        PeerId dst, uint64_t salt, uint32_t attempt) const;

  FaultPlan plan_;
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;  // guards dead_ resize + compaction
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
};

/// Consecutive-failure strain tracker (distft session_metadata style):
/// every failed send to a peer bumps its strain, every success clears
/// it. Peers whose strain crosses `suspect_threshold` are Suspect and
/// failover orders them last. Nothing evicts a suspect: eviction
/// (HdkSearchEngine::EvictDeadPeers) reads the injector's dead set.
///
/// Strain is updated as sends complete, so within a parallel batch the
/// moment a holder turns suspect depends on thread scheduling. Against
/// a dead, not yet evicted holder, the failover order — and so the
/// message and failover counts, never the rankings — of a multi-threaded
/// batch can therefore vary from run to run (README "Fault tolerance").
class PeerHealth {
 public:
  static constexpr uint32_t kDefaultSuspectThreshold = 4;

  explicit PeerHealth(uint32_t suspect_threshold = kDefaultSuspectThreshold)
      : suspect_threshold_(suspect_threshold) {}

  void RecordSuccess(PeerId peer);
  void RecordFailure(PeerId peer);

  /// Current consecutive-failure count (0 for unknown peers).
  uint32_t strain(PeerId peer) const;

  /// strain(peer) >= suspect_threshold.
  bool Suspect(PeerId peer) const;

  uint32_t suspect_threshold() const { return suspect_threshold_; }

  /// Overlay departure renumbering (see FaultInjector::OnPeerRemoved).
  void OnPeerRemoved(PeerId peer);

  void EnsurePeers(size_t n);

 private:
  uint32_t suspect_threshold_;
  mutable std::mutex mu_;  // guards resize + compaction
  std::vector<std::unique_ptr<std::atomic<uint32_t>>> strain_;
};

/// Everything a protocol needs to send resiliently, bundled so the
/// constructors stay short. All pointers may be null (no injection, no
/// health tracking) — the defaults reproduce the pre-fault engine.
struct Resilience {
  FaultInjector* injector = nullptr;
  PeerHealth* health = nullptr;
  RetryPolicy retry;
  /// Number of fragment holders per key (primary + replication-1
  /// salted replicas). 1 = no replication (default).
  uint32_t replication = 1;
  /// How replica divergence is repaired (see sync/sync.h). kOff keeps
  /// the silent wholesale-rebuild behaviour.
  sync::SyncConfig sync;
};

/// Outcome of one resilient send.
struct SendOutcome {
  bool delivered = false;
  /// Attempts beyond the first (each recorded as its own message).
  uint32_t retries = 0;
  /// Injected latency + backoff ticks accrued across attempts.
  uint64_t latency_ticks = 0;
  /// True when a deadline budget ran out mid-send: the remaining retries
  /// were abandoned (delivered stays false) and the caller must degrade
  /// instead of failing over.
  bool deadline_exhausted = false;
};

/// The choke point between the protocols and the TrafficRecorder. Cheap
/// to construct (two pointers + policy), so call sites make one on the
/// fly: Channel(traffic, resilience).Send(...).
class Channel {
 public:
  Channel(const TrafficRecorder* traffic, const Resilience& res)
      : traffic_(traffic), res_(res) {}

  /// One attempt: records the message (lost messages still consume
  /// bandwidth) and reports whether it was delivered. `extra_bytes`
  /// bills non-posting payload (sketches, key lists) per attempt.
  SendOutcome Send(PeerId src, PeerId dst, MessageKind kind,
                   uint64_t postings, uint64_t hops, uint64_t salt,
                   uint64_t extra_bytes = 0) const;

  /// Bounded retry with exponential backoff; updates PeerHealth. Query
  /// path: a round trip that exhausts the retry budget fails over or
  /// degrades. When `budget` is non-null every injected-latency and
  /// backoff tick is charged against it, and a retry whose backoff
  /// drains the budget is abandoned (deadline_exhausted set; PeerHealth
  /// is NOT penalized — giving up is not evidence of peer failure). An
  /// unlimited budget (or an inactive injector, which accrues zero
  /// ticks) never binds.
  SendOutcome SendReliable(PeerId src, PeerId dst, MessageKind kind,
                           uint64_t postings, uint64_t hops, uint64_t salt,
                           uint64_t extra_bytes = 0,
                           DeadlineBudget* budget = nullptr) const;

  /// Barrier-reliable: delivery is guaranteed unless `dst` is hard-dead
  /// (the level barrier stands in for an ack/timeout protocol), but only
  /// up to max_attempts message records are charged — the tail of a long
  /// unlucky streak is absorbed by the barrier redelivery, which its
  /// caller records separately.
  SendOutcome SendAssured(PeerId src, PeerId dst, MessageKind kind,
                          uint64_t postings, uint64_t hops,
                          uint64_t salt) const;

  /// True when the destination is hard-dead (no point attempting).
  bool PeerDead(PeerId dst) const {
    return res_.injector != nullptr && res_.injector->PeerDead(dst);
  }

  const Resilience& resilience() const { return res_; }

 private:
  bool Attempt(PeerId src, PeerId dst, MessageKind kind, uint64_t postings,
               uint64_t hops, uint64_t salt, uint32_t attempt,
               uint64_t* latency_ticks, uint64_t extra_bytes = 0) const;

  const TrafficRecorder* traffic_;
  Resilience res_;  // by value: call sites may pass a temporary bundle
};

}  // namespace hdk::net

#endif  // HDKP2P_NET_FAULT_H_
