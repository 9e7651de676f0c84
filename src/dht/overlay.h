// Structured-overlay interface.
//
// The paper's prototype runs on P-Grid [18]; the HDK model itself only
// requires SOME structured overlay ("structured P2P network") mapping keys
// to responsible peers with O(log N) routing. We provide two
// implementations behind this interface — a P-Grid-style binary trie (the
// paper's substrate) and a Chord-style ring — so that the overlay choice
// can be ablated (posting traffic is overlay-independent; hop counts and
// key-space balance differ).
#ifndef HDKP2P_DHT_OVERLAY_H_
#define HDKP2P_DHT_OVERLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hdk::dht {

/// A structured key-based routing overlay over peers 0..num_peers()-1.
class Overlay {
 public:
  virtual ~Overlay() = default;

  /// The peer responsible for storing `key`.
  virtual PeerId Responsible(RingId key) const = 0;

  /// One greedy routing step: the peer `from` forwards a lookup for `key`
  /// to the returned peer. Returns `from` itself iff `from` is responsible.
  virtual PeerId NextHop(PeerId from, RingId key) const = 0;

  /// Adds one peer to the overlay (network growth experiments).
  virtual Status AddPeer() = 0;

  /// Removes peer `p` from the overlay (churn experiments): its key-space
  /// responsibility is absorbed by the surviving peers and every peer with
  /// an id greater than `p` is renumbered down by one, keeping ids dense
  /// in [0, num_peers()). Fails when `p` is out of range or the overlay
  /// would become empty.
  virtual Status RemovePeer(PeerId p) = 0;

  virtual size_t num_peers() const = 0;

  /// Routes a lookup from `from` to the responsible peer; returns the hop
  /// count (0 when `from` is already responsible). If `path` is non-null
  /// it receives the visited peers including the destination.
  size_t Route(PeerId from, RingId key,
               std::vector<PeerId>* path = nullptr) const;
};

/// A key's holder sequence (see ReplicaHolders). The first kInline
/// holders live inline, so placing a key at the usual replication
/// factors never touches the heap — the reconcile collect places every
/// published key on each run; a larger factor spills to a vector.
class HolderList {
 public:
  static constexpr size_t kInline = 4;

  size_t size() const { return size_; }
  PeerId operator[](size_t i) const { return data()[i]; }
  PeerId* begin() { return data(); }
  PeerId* end() { return data() + size_; }
  const PeerId* begin() const { return data(); }
  const PeerId* end() const { return data() + size_; }

  void push_back(PeerId p) {
    if (size_ < kInline) {
      inline_[size_++] = p;
      return;
    }
    if (size_ == kInline) spill_.assign(inline_, inline_ + kInline);
    spill_.push_back(p);
    ++size_;
  }

 private:
  PeerId* data() { return size_ <= kInline ? inline_ : spill_.data(); }
  const PeerId* data() const {
    return size_ <= kInline ? inline_ : spill_.data();
  }

  size_t size_ = 0;
  PeerId inline_[kInline] = {};
  std::vector<PeerId> spill_;
};

/// The fragment holders of `key_hash` under `overlay`: the responsible
/// peer first, then `replication - 1` distinct peers derived by salted
/// re-hashing of the placement hash. Deterministic for a fixed overlay —
/// this is THE replica placement: the global index, the anti-entropy
/// reconciler and the snapshot inspector all derive holder sets through
/// this one function.
HolderList ReplicaHolders(const Overlay& overlay, uint64_t key_hash,
                          uint32_t replication);

}  // namespace hdk::dht

#endif  // HDKP2P_DHT_OVERLAY_H_
