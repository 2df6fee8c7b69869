#include "src/pipeline/dedup_store.h"

#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "src/core/files.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::pipeline {

namespace {

// Default salted hash: salt 0 keeps the historical plain FNV-1a ids; the
// re-hash chain folds the salt into the stream so two contents that collide
// unsalted separate with overwhelming probability at every later salt.
DedupStore::Id default_hash(std::span<const uint8_t> content, uint64_t salt) {
  if (salt == 0) return support::fnv1a(content);
  support::Fnv1a h;
  h.add(salt);
  h.add_bytes(content);
  return h.digest();
}

}  // namespace

DedupStore::DedupStore(HashFn hash)
    : hash_(hash ? std::move(hash) : HashFn(default_hash)) {}

DedupStore::InternResult DedupStore::intern(std::span<const uint8_t> content) {
  return intern(std::vector<uint8_t>(content.begin(), content.end()));
}

DedupStore::InternResult DedupStore::intern(std::vector<uint8_t>&& content) {
  // Hashing (and the caller's serialization/copy) happen before any lock.
  Id id = hash_(content, 0);
  for (uint64_t salt = 1;; ++salt) {
    Shard& shard = shard_for(id);
    {
      // Fast path: at steady state nearly every intern is a hit, so probe
      // under the shared lock first — concurrent hits on one shard do not
      // serialize, and counter bumps are relaxed atomics.
      std::shared_lock<std::shared_mutex> read(shard.mu);
      auto it = shard.entries.find(id);
      if (it != shard.entries.end() && it->second == content) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        shard.bytes_deduped.fetch_add(content.size(),
                                      std::memory_order_relaxed);
        return {id, false};
      }
      if (it != shard.entries.end()) {
        // 64-bit collision with a different resident content. Aliasing
        // would be silent corruption and throwing would let a hostile app
        // with an embedded colliding pair kill its own analysis job — so
        // fail open: deterministically re-key this content with the next
        // salt and retry on that salt's shard.
        if (salt > 64) {
          // 64 consecutive salted collisions is beyond adversarial; treat
          // the hash function as broken rather than loop forever.
          throw std::runtime_error(
              "DedupStore: unresolvable hash collision chain");
        }
        id = hash_(content, salt);
        continue;
      }
    }
    // Likely miss: take the exclusive lock and re-check, since another
    // thread may have inserted (or collided into) this id between the two
    // lock acquisitions.
    std::unique_lock<std::shared_mutex> write(shard.mu);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) {
      if (it->second == content) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        shard.bytes_deduped.fetch_add(content.size(),
                                      std::memory_order_relaxed);
        return {id, false};
      }
      if (salt > 64) {
        throw std::runtime_error(
            "DedupStore: unresolvable hash collision chain");
      }
      id = hash_(content, salt);
      continue;
    }
    if (salt > 1) {
      // This content's collision chain was just discovered: count the
      // links once, at insert. Later interns of the same content re-walk
      // the chain to the same id but are steady-state hits — counting or
      // logging those would hand a hostile colliding pair a per-intern
      // log-spam amplifier.
      shard.collisions.fetch_add(salt - 1, std::memory_order_relaxed);
      DL_WARN << "dedup store hash collision; content re-keyed to id " << id
              << " after " << (salt - 1) << " salted re-hashes";
    }
    // Write-ahead hook before the entry becomes visible: a persistence
    // subclass appends to its shard log here, so memory never holds an
    // entry the log does not (a throw aborts the intern pre-insert).
    persist(id, content);
    shard.bytes_stored.fetch_add(content.size(), std::memory_order_relaxed);
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    shard.entries.emplace(id, std::move(content));
    return {id, true};
  }
}

const std::vector<uint8_t>* DedupStore::lookup(Id id) const {
  Shard& shard = shard_for(id);
  std::shared_lock<std::shared_mutex> read(shard.mu);
  auto it = shard.entries.find(id);
  // Values are heap nodes in the map; the pointer outlives the lock because
  // entries are never erased and rehashing moves buckets, not values.
  return it == shard.entries.end() ? nullptr : &it->second;
}

void DedupStore::reset_intern_counters() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> write(shard.mu);
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.bytes_deduped.store(0, std::memory_order_relaxed);
    shard.collisions.store(0, std::memory_order_relaxed);
  }
}

DedupStore::Stats DedupStore::stats() const {
  Stats total;
  for (Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> read(shard.mu);
    total.entries += shard.entries.size();
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.bytes_stored += shard.bytes_stored.load(std::memory_order_relaxed);
    total.bytes_deduped +=
        shard.bytes_deduped.load(std::memory_order_relaxed);
    total.collisions += shard.collisions.load(std::memory_order_relaxed);
  }
  return total;
}

InternedCollection intern_collection(const core::CollectionOutput& output,
                                     DedupStore& store) {
  InternedCollection interned;
  std::unordered_set<DedupStore::Id> seen;
  for (const auto& method : output.methods) {
    for (const auto& tree : method.second.trees) {
      // serialize_tree returns a fresh buffer, so this binds the
      // ownership-taking overload: a miss moves instead of copying inside
      // the shard lock.
      DedupStore::InternResult result =
          store.intern(core::serialize_tree(*tree));
      ++interned.interns;
      if (seen.insert(result.id).second) ++interned.unique_trees;
      if (result.inserted) {
        ++interned.misses;
      } else {
        ++interned.hits;
      }
    }
  }
  return interned;
}

}  // namespace dexlego::pipeline
