// A peer of the HDK P2P retrieval network (paper Section 3).
//
// Each peer stores a fraction D(P_i) of the global collection (a contiguous
// DocId range here; the synthetic collection is i.i.d., so this is
// equivalent to the paper's random distribution), computes local candidate
// keys level by level, and maintains a local view of which of ITS submitted
// keys turned out to be globally non-discriminative — exactly the knowledge
// the paper says level-s computation needs ("the global document
// frequencies of the local size 1 and size (s-1) NDKs").
//
// A peer holds only its document range, that knowledge (the NDK oracle)
// and the part of it learned since the last protocol pass. Which keys it
// published, and with which local documents, is read from the global
// index's contribution ledger — the one record of every (key, peer)
// contribution.
#ifndef HDKP2P_P2P_PEER_H_
#define HDKP2P_P2P_PEER_H_

#include <vector>

#include "common/flat_map.h"
#include "common/params.h"
#include "common/types.h"
#include "corpus/document.h"
#include "hdk/candidate_builder.h"
#include "hdk/key.h"

namespace hdk::p2p {

class DistributedGlobalIndex;

/// One peer: local documents + local key computation state.
class Peer {
 public:
  /// \param id     dense peer id (also the overlay id).
  /// \param first  first DocId of the peer's local fraction (inclusive).
  /// \param last   one past the last local DocId.
  Peer(PeerId id, DocId first, DocId last, const HdkParams& params);

  PeerId id() const { return id_; }
  DocId first_doc() const { return first_; }
  DocId last_doc() const { return last_; }
  uint64_t num_documents() const { return last_ - first_; }

  /// Local level-1 candidates: every non-very-frequent term of the local
  /// documents with its local posting list.
  hdk::KeyMap<index::PostingList> BuildLevel1(
      const corpus::DocumentStore& store,
      const TermIdSet& very_frequent,
      hdk::CandidateBuildStats* stats = nullptr) const;

  /// Local level-s candidates (s >= 2) under the peer's current global
  /// knowledge (NDK notifications received so far). `expected_candidates`
  /// pre-sizes the scan's accumulator tables (the protocol passes the
  /// peer's level-(s-1) candidate count; 0 grows on demand).
  hdk::KeyMap<index::PostingList> BuildLevel(
      uint32_t s, const corpus::DocumentStore& store,
      hdk::CandidateBuildStats* stats = nullptr,
      size_t expected_candidates = 0) const;

  /// Only the level-s candidates that the peer's FRESH knowledge (facts
  /// learned since the last protocol pass, see fresh_knowledge()) makes
  /// newly generable — the incremental-growth work list. The scan visits
  /// only the local documents of the fresh sub-keys, read from the peer's
  /// own contributions in `global`'s ledger.
  hdk::KeyMap<index::PostingList> BuildLevelDelta(
      uint32_t s, const corpus::DocumentStore& store,
      const DistributedGlobalIndex& global,
      hdk::CandidateBuildStats* stats = nullptr) const;

  /// Handles an NDK notification from the global index: the key this peer
  /// submitted is globally non-discriminative and becomes expansion
  /// material for the next level. Returns true when the notification
  /// carried NEW knowledge (the incremental protocol re-derives this
  /// peer's higher-level candidates only in that case).
  bool OnNdkNotification(const hdk::TermKey& key);

  /// Adopts a fact the peer is known to have held before a departure
  /// repair reset it: it enters the oracle WITHOUT becoming fresh
  /// knowledge, so the replay does not trigger delta re-scans for facts
  /// whose candidates the contribution ledger already carries.
  void AdoptNdk(const hdk::TermKey& key) {
    if (key.size() == 1) {
      oracle_.AddExpandableTerm(key.term(0));
    } else {
      oracle_.AddNdk(key);
    }
  }

  /// Forgets the terms that became very frequent as the collection grew
  /// (and every known NDK containing one of them). Returns true if the
  /// oracle changed.
  bool PurgeTerms(const TermIdSet& purged) {
    delta_.PurgeTerms(purged);
    return oracle_.PurgeTerms(purged);
  }

  /// Facts learned since the last protocol pass consumed them. Non-empty
  /// means the peer must re-derive candidate deltas at levels >= 2.
  const hdk::OracleDelta& fresh_knowledge() const { return delta_; }
  bool HasFreshKnowledge() const { return !delta_.empty(); }
  /// Called by the protocol once a Run/Grow pass has consumed the delta.
  void ClearFreshKnowledge() { delta_.Clear(); }

  /// The peer's accumulated global knowledge.
  const hdk::SetNdkOracle& oracle() const { return oracle_; }

  // -- snapshot support (engine/engine_snapshot) -----------------------

  /// Restores the accumulated local knowledge on a freshly constructed
  /// peer (snapshot load). Fresh knowledge is intentionally absent: the
  /// protocol consumes every delta before a pass ends, so a snapshot
  /// never carries one.
  void RestoreLocalState(hdk::SetNdkOracle oracle) {
    oracle_ = std::move(oracle);
  }

 private:
  PeerId id_;
  DocId first_;
  DocId last_;
  hdk::CandidateBuilder builder_;
  hdk::SetNdkOracle oracle_;
  hdk::OracleDelta delta_;
};

}  // namespace hdk::p2p

#endif  // HDKP2P_P2P_PEER_H_
