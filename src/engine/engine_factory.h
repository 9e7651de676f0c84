// Engine factory: build any retrieval backend — optionally wrapped in a
// stack of engine DECORATORS — behind the unified SearchEngine interface.
//
// A spec string names the composition:
//
//   "hdk"                  bare backend (EngineKind)
//   "cached(hdk)"          result-cache decorator over the HDK engine
//   "cached:256(st)"       same, with an explicit capacity argument
//   "cached(cached(hdk))"  decorators nest (outermost first)
//
// There are two decorators: "cached" (engine/result_cache.h) and
// "faulty", which installs a net::FaultPlan on the backend's transport
// ("faulty:seed=7,loss=0.01(hdk)"). Any other name fails to build with
// InvalidArgument.
#ifndef HDKP2P_ENGINE_ENGINE_FACTORY_H_
#define HDKP2P_ENGINE_ENGINE_FACTORY_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "corpus/document.h"
#include "engine/overlay_factory.h"
#include "engine/search_engine.h"
#include "index/bm25.h"
#include "net/fault.h"

namespace hdk::engine {

/// Which retrieval backend answers the queries.
enum class EngineKind {
  kHdk,          // the paper's HDK P2P engine
  kSingleTerm,   // naive distributed single-term baseline
  kCentralized,  // centralized BM25 reference (Terrier stand-in)
};

inline constexpr std::array<EngineKind, 3> kAllEngineKinds = {
    EngineKind::kHdk, EngineKind::kSingleTerm, EngineKind::kCentralized};

/// Stable name ("hdk", "single-term", "centralized").
std::string_view EngineKindName(EngineKind kind);

/// Inverse of EngineKindName; nullopt for unknown names.
std::optional<EngineKind> ParseEngineKind(std::string_view name);

/// One configuration drives every backend; each consumes the fields it
/// understands.
struct EngineConfig {
  /// HDK model parameters (kHdk).
  HdkParams hdk;
  /// Ranking parameters of the centralized reference (kCentralized; the
  /// distributed baseline uses the shared BM25 defaults).
  index::Bm25Params bm25;
  /// Structured overlay for the distributed backends.
  OverlayKind overlay = OverlayKind::kPGrid;
  uint64_t overlay_seed = 42;
  /// Worker threads for indexing scans and the SearchBatch fan-out, in
  /// every backend. 0 = hardware concurrency, 1 = exact serial path.
  /// Indexes and query results are identical for every value (see README
  /// "Threading").
  size_t num_threads = 0;
  /// Default capacity of the "cached" decorator's LRU (overridable per
  /// spec: "cached:256(hdk)").
  size_t result_cache_capacity = 1024;
  /// Fault-injection plan installed on the distributed backends'
  /// transport at build time (see net/fault.h for the grammar; the
  /// "faulty:seed=7,loss=0.01(hdk)" spec decorator overrides it). The
  /// default plan is inactive: the engine is byte-identical to a
  /// perfect-transport build.
  net::FaultPlan faults;
  /// Retry/backoff budget of failure-aware query messages.
  net::RetryPolicy retry;
  /// Key replication factor of the HDK global index (1 = primary only).
  /// Values > 1 let queries fail over to replica holders when the
  /// responsible peer is dead; the single-term baseline stays
  /// single-homed.
  uint32_t replication = 1;
  /// Replica maintenance / anti-entropy reconciliation of the HDK
  /// backend (see sync/sync.h; kOff default = pre-sync behaviour).
  sync::SyncConfig sync;
  /// Batch admission gate / load shedding of the distributed backends
  /// (see AdmissionConfig in engine/search_engine.h); off by default.
  AdmissionConfig admission;
  /// Event-driven anti-entropy cadence of the HDK backend (see
  /// MaintenanceConfig); off by default — sweeps stay explicit.
  MaintenanceConfig maintenance;
};

/// A parsed composition: the concrete backend plus the decorator stack
/// wrapped around it, outermost first.
struct EngineSpec {
  struct Decorator {
    std::string name;
    std::string arg;  // empty when the spec gave none
  };

  EngineKind kind = EngineKind::kHdk;
  std::vector<Decorator> decorators;

  /// Parses "deco:arg(deco2(kind))"-style specs (kind aliases of
  /// ParseEngineKind accepted). Unknown backend names and malformed
  /// nesting are InvalidArgument; decorator names are checked when the
  /// spec is built.
  static Result<EngineSpec> Parse(std::string_view spec);

  /// Canonical spec string ("cached:256(hdk)").
  std::string ToString() const;
};

/// Builds a bare engine of `kind` over the documents covered by
/// `peer_ranges` (the centralized backend indexes the same ranges as
/// logical peers). `store` must outlive the engine.
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    EngineKind kind, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Builds a parsed composition: the backend plus its decorator stack.
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Parses `spec` and builds it — the one-liner benches and examples use:
/// MakeEngine("cached(hdk)", config, store, ranges).
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Wraps an already-built engine in `spec`'s decorator stack (innermost
/// decorator applied first) — the shared tail of every MakeEngine
/// overload, exposed so snapshot loads compose decorators identically.
Result<std::unique_ptr<SearchEngine>> ApplyEngineDecorators(
    const EngineSpec& spec, const EngineConfig& config,
    std::unique_ptr<SearchEngine> engine);

/// Tag type selecting the snapshot-restoring MakeEngine overloads:
/// MakeEngine("cached(hdk)", config, store, SnapshotFile{path}).
struct SnapshotFile {
  std::string path;
};

/// Restores the backend from a snapshot written by SearchEngine::
/// SaveSnapshot instead of rebuilding it, then applies the decorator
/// stack. Only the "hdk" backend supports snapshots (Unimplemented for
/// the others); `config` must hash-match the writer's and `store` must be
/// the corpus the snapshot was built over (see engine/engine_snapshot.h).
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot);
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot);

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_ENGINE_FACTORY_H_
