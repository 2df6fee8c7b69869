// Thread-safe, content-addressed store for collected method bodies — the
// dedup stage of the batch pipeline (docs/PIPELINE.md). Generalizes the
// per-method unique-tree check the Collector performs during one app's runs
// (paper Section IV-A: only unique collection trees are kept) to the fleet
// level: serialized trees are keyed by content hash (support/hash FNV-1a),
// so identical method bodies collected from different apps, repeated
// executions or packed/unpacked variants of the same program are stored
// once, no matter which worker thread gets there first.
//
// Ids are the 64-bit content hash itself, so they are stable across runs,
// thread counts and insertion orders — the property tests/pipeline_test.cpp
// asserts under concurrent insert. No output depends on how the store lays
// its entries out, so the layout is fixed rather than configurable.
//
// Concurrency shape: the store is split into kShards shards by fingerprint
// prefix (the id's top byte picks the shard), each shard owning its own
// map, mutex and plain stat counters. Serialization, hashing and the copy
// of the incoming buffer all happen before any lock is taken; each probe
// of an intern then locks one shard once and does one map lookup, so the
// lock covers the probe, the counter bumps and, on a miss, the write-ahead
// hook and the insert. A handful of workers spread over 16 shards seldom
// meet on one lock, so hits take the same mutex as misses.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/collection.h"

namespace dexlego::pipeline {

class DedupStore {
 public:
  // Content-hash id. Stable: the same bytes always intern to the same id.
  using Id = uint64_t;

  // Salted content hash. salt 0 is the primary id; salts 1, 2, ... key the
  // deterministic re-hash chain walked on collisions. Injectable so tests
  // can force collisions (a real 64-bit FNV collision is not constructible
  // by brute force); production always uses the default.
  using HashFn = std::function<Id(std::span<const uint8_t>, uint64_t salt)>;

  // Shard count, a power of two: the layout the persistent store's segment
  // logs use (one log per shard), and enough shards that concurrent workers
  // seldom share a lock. Changing it changes the service's on-disk layout.
  static constexpr size_t kShards = 16;

  // A null `hash` (and the default constructor) uses the salted FNV-1a.
  DedupStore() : DedupStore(HashFn{}) {}
  explicit DedupStore(HashFn hash);
  virtual ~DedupStore() = default;
  DedupStore(const DedupStore&) = delete;
  DedupStore& operator=(const DedupStore&) = delete;

  struct InternResult {
    Id id = 0;
    bool inserted = false;  // false = content was already present (a hit)
  };

  // Interns `content`, storing a copy only on first sight. Thread-safe.
  // A 64-bit hash collision (two different contents, one id) must not alias
  // — FNV-1a is non-cryptographic and the input domain includes hostile
  // apps — but it must not kill the job either (an embedded colliding pair
  // would be an adversary-controlled analysis denial). The store fails
  // open: the incoming content is deterministically re-keyed along a salted
  // re-hash chain (salt 1, 2, ...) until it finds its own entry or a free
  // id, and the collision is counted in Stats::collisions. Under a
  // collision the id assignment depends on which content arrived first
  // (same caveat as per-job hit attribution, docs/PIPELINE.md); re-interning
  // the same content always re-walks to the same id. Each probe of the
  // chain locks only the shard the salted id lands in.
  InternResult intern(std::span<const uint8_t> content);
  // Ownership-taking variant: a miss moves the buffer into the store
  // instead of copying it inside the shard lock.
  InternResult intern(std::vector<uint8_t>&& content);

  // Stored bytes for an id, or nullptr. The pointer stays valid for the
  // store's lifetime (entries are never erased, and map values are stable
  // across rehash). Takes only the owning shard's lock.
  const std::vector<uint8_t>* lookup(Id id) const;

  struct Stats {
    size_t entries = 0;          // unique contents stored
    uint64_t hits = 0;           // interns that found existing content
    uint64_t misses = 0;         // interns that stored new content
    uint64_t bytes_stored = 0;   // sum of unique content sizes
    uint64_t bytes_deduped = 0;  // bytes NOT stored thanks to hits
    uint64_t collisions = 0;     // re-hash chain links created (pathological);
                                 // counted once at discovery, not per re-walk
  };
  // Folded totals across all shards. Every field is thread-count invariant
  // for a given input population (asserted by pipeline_test).
  Stats stats() const;

  // Zeroes the intern counters (hits, misses, bytes_deduped, collisions)
  // while keeping entries and bytes_stored, which describe resident content.
  // The persistent store calls this after log replay so a reopened store
  // reports only the interns performed *since* open, not the replay's.
  // Not safe concurrently with intern().
  void reset_intern_counters();

 protected:
  // Write-ahead hook, called on the miss path with the final (possibly
  // collision-re-keyed) id immediately BEFORE the in-memory insert, while the
  // owning shard's lock is held. The base store is purely in-memory, so this
  // is a no-op; service::PersistentDedupStore overrides it to append the
  // content to the shard's durable log. A throw here aborts the intern
  // before the memory insert, so an entry is never visible in memory
  // without having reached the log first (write-ahead ordering).
  virtual void persist(Id id, std::span<const uint8_t> content) {
    (void)id;
    (void)content;
  }

  // Shard index for an id. Fingerprint-prefix sharding: the top byte of the
  // id picks the shard, which keeps the mapping disjoint from any low-bit
  // structure the map's own bucketing keys on. Exposed so a persistence
  // subclass can mirror the memory sharding with one log file per shard
  // (persist then runs under that shard's lock, making per-log append
  // ordering free).
  static size_t shard_index(Id id) { return (id >> 56) & (kShards - 1); }

 private:
  // One shard: its slice of the id space plus its own stat counters, all
  // guarded by `mu`; the counters fold into Stats on demand. Cache-line
  // aligned so neighbouring shards' locks and counters never false-share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<Id, std::vector<uint8_t>> entries;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bytes_stored = 0;
    uint64_t bytes_deduped = 0;
    uint64_t collisions = 0;
  };

  Shard& shard_for(Id id) const { return shards_[shard_index(id)]; }

  HashFn hash_;  // never null; defaults to the salted FNV-1a
  mutable std::array<Shard, kShards> shards_;
};

// Result of interning one app's collection output: this call's attribution
// counters. `interns` (total trees offered) and `unique_trees` (distinct
// content ids within THIS collection) are pure functions of the collection
// and therefore deterministic across thread counts and schedules.
// `hits`/`misses` split the interns by whether the shared store already held
// the content — advisory first-insert attribution: when two concurrent jobs
// share a body, which one pays the miss depends on scheduling. Fleet totals
// (hits + misses, store entries/bytes) stay deterministic; see
// docs/PIPELINE.md "Dedup store semantics".
struct InternedCollection {
  uint64_t interns = 0;       // deterministic: trees offered to the store
  uint64_t unique_trees = 0;  // deterministic: distinct ids in this collection
  uint64_t hits = 0;          // advisory: content already present
  uint64_t misses = 0;        // advisory: this job inserted first
};

// Serializes every collection tree of `output` (core::serialize_tree) and
// interns it into `store`.
InternedCollection intern_collection(const core::CollectionOutput& output,
                                     DedupStore& store);

}  // namespace dexlego::pipeline
