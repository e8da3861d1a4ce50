#include "src/attest/digest_cache.hpp"

#include "src/sim/device.hpp"
#include "src/support/bytes.hpp"

namespace rasc::attest {

void DigestCache::resize(std::size_t block_count) {
  if (slots_.size() != block_count) slots_.resize(block_count);
}

const Digest* DigestCache::lookup(std::size_t block, std::uint64_t generation,
                                  crypto::HashKind hash, MacKind mac,
                                  std::uint64_t key_fp) {
  const Slot* slot = block < slots_.size() ? &slots_[block] : nullptr;
  if (slot != nullptr && slot->valid && slot->generation == generation &&
      slot->hash == hash && slot->mac == mac && slot->key_fp == key_fp) {
    ++hits_;
    return &slot->digest;
  }
  ++misses_;
  return nullptr;
}

void DigestCache::store(std::size_t block, std::uint64_t generation,
                        crypto::HashKind hash, MacKind mac, std::uint64_t key_fp,
                        const Digest& digest) {
  if (block >= slots_.size()) return;  // cache sized for a smaller coverage
  Slot& slot = slots_[block];
  slot.valid = true;
  slot.generation = generation;
  slot.hash = hash;
  slot.mac = mac;
  slot.key_fp = key_fp;
  slot.digest = digest;
  ++stores_;
}

void DigestCache::invalidate_block(std::size_t block, sim::Device* device) {
  if (block >= slots_.size()) return;
  const bool flushed = slots_[block].valid;
  slots_[block].valid = false;
  if (device != nullptr) {
    device->sim().emit(obs::JournalEventKind::kCacheInvalidate, {device->id()}, {}, 0,
                       block, flushed ? 1 : 0);
  }
}

void DigestCache::invalidate_all(sim::Device* device) {
  std::uint64_t flushed = 0;
  for (Slot& slot : slots_) {
    if (slot.valid) ++flushed;
    slot.valid = false;
  }
  if (device != nullptr) {
    device->sim().emit(obs::JournalEventKind::kCacheInvalidate, {device->id()}, {}, 0,
                       ~0ull, flushed);
  }
}

std::uint64_t DigestCache::key_fingerprint(support::ByteView key) {
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256, key);
  return support::get_u64_be(digest);
}

}  // namespace rasc::attest
