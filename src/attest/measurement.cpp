#include "src/attest/measurement.hpp"

#include <stdexcept>

#include "src/crypto/lanes.hpp"

namespace rasc::attest {

namespace {

/// Domain-separated CBC-MAC key for the encryption-based per-block F
/// (separated from the combiner key).
support::Bytes derive_block_key(support::ByteView key) {
  return support::concat({key, support::to_bytes("/block")});
}

}  // namespace

BlockDigester::BlockDigester(MacKind mac, crypto::HashKind hash, support::ByteView key)
    : mac_(mac), hash_kind_(hash) {
  if (mac_ == MacKind::kHmac) {
    hash_ = crypto::make_hash(hash);
    digest_size_ = hash_->digest_size();
  } else {
    // Derived once here instead of per block.
    auto block_key = derive_block_key(key);
    engine_.emplace(MacKind::kCbcMac, hash, block_key);
    support::secure_wipe(block_key);
    digest_size_ = engine_->tag_size();
  }
}

void BlockDigester::digest(support::ByteView block, Digest& out) {
  if (mac_ == MacKind::kHmac) {
    hash_->update(block);
    hash_->finalize_into(out.prepare(digest_size_));
  } else {
    engine_->update(block);
    engine_->finalize_into(out.prepare(digest_size_));
  }
}

bool BlockDigester::batch_uses_lanes() const noexcept {
  return mac_ == MacKind::kHmac && crypto::lanes_supported(hash_kind_);
}

void BlockDigester::digest_batch(std::span<const support::ByteView> blocks,
                                 std::span<Digest* const> outs) {
  if (blocks.size() != outs.size()) {
    throw std::invalid_argument("digest_batch: blocks/outs size mismatch");
  }
  if (!batch_uses_lanes()) {
    for (std::size_t i = 0; i < blocks.size(); ++i) digest(blocks[i], *outs[i]);
    return;
  }
  batch_views_.clear();
  batch_views_.reserve(blocks.size());
  for (Digest* out : outs) batch_views_.push_back(out->prepare(digest_size_));
  crypto::digest_many(hash_kind_, blocks, batch_views_);
}

Measurement::Measurement(const sim::DeviceMemory& memory, crypto::HashKind hash,
                         support::ByteView key, MeasurementContext context,
                         Coverage coverage, MacKind mac, obs::Observer* observer)
    : memory_(memory),
      hash_(hash),
      key_(key.begin(), key.end()),
      context_(std::move(context)),
      coverage_(coverage),
      mac_(mac),
      digester_(mac, hash, key),
      observer_(observer) {
  const std::size_t n = coverage_.resolve_count(memory);
  if (coverage_.first_block + n > memory.block_count()) {
    throw std::out_of_range("Measurement coverage exceeds memory");
  }
  block_digests_.assign(n, {});
  visit_times_.assign(n, std::nullopt);
}

void Measurement::set_digest_cache(DigestCache* cache) {
  cache_ = cache;
  if (cache_ != nullptr) key_fp_ = DigestCache::key_fingerprint(key_);
}

const Digest* Measurement::cached(std::size_t block, std::uint64_t generation,
                                  sim::Time now) {
  const Digest* hit = cache_->lookup(block, generation, hash_, mac_, key_fp_);
  if (observer_ != nullptr) {
    observer_->emit(now,
                    hit != nullptr ? obs::JournalEventKind::kCacheHit
                                   : obs::JournalEventKind::kCacheMiss,
                    {context_.device_id, &journal_actor_}, {}, 0, block, generation);
  }
  return hit;
}

void Measurement::visit_block(std::size_t block, sim::Time now) {
  visit_block(block, now, memory_.block_view(block));
}

void Measurement::visit_block(std::size_t block, sim::Time now,
                              support::ByteView content) {
  if (block < coverage_.first_block ||
      block >= coverage_.first_block + block_digests_.size()) {
    throw std::out_of_range("visit_block outside coverage");
  }
  const std::size_t rel = block - coverage_.first_block;
  if (!visit_times_[rel]) ++visited_count_;
  visit_times_[rel] = now;

  // The cache is keyed on live-memory generations, so it only applies
  // when the content being digested IS the live block (snapshot-based
  // lock policies redirect reads to their copy and bypass it here).
  const bool live = cache_ != nullptr && content.size() == memory_.block_size() &&
                    content.data() == memory_.block_view(block).data();
  if (live) {
    const std::uint64_t generation = memory_.block_generation(block);
    if (const Digest* hit = cached(block, generation, now)) {
      block_digests_[rel] = *hit;
      return;
    }
    digester_.digest(content, block_digests_[rel]);
    cache_->store(block, generation, hash_, mac_, key_fp_, block_digests_[rel]);
    return;
  }
  digester_.digest(content, block_digests_[rel]);
}

void Measurement::visit_blocks(std::span<const std::size_t> blocks, sim::Time now) {
  visit_blocks_impl(blocks, now, {});
}

void Measurement::visit_blocks(std::span<const std::size_t> blocks, sim::Time now,
                               std::span<const support::ByteView> contents) {
  if (contents.size() != blocks.size()) {
    throw std::invalid_argument("visit_blocks: blocks/contents size mismatch");
  }
  visit_blocks_impl(blocks, now, contents);
}

void Measurement::visit_blocks_impl(std::span<const std::size_t> blocks, sim::Time now,
                                    std::span<const support::ByteView> contents) {
  batch_contents_.clear();
  batch_outs_.clear();
  batch_stores_.clear();
  batch_contents_.reserve(blocks.size());
  batch_outs_.reserve(blocks.size());
  batch_stores_.reserve(blocks.size());

  // Classification pass in caller order: bookkeeping, cache lookups and
  // journal events happen here, exactly as the scalar loop would emit
  // them; only the digesting of the misses is deferred into the batch.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t block = blocks[i];
    if (block < coverage_.first_block ||
        block >= coverage_.first_block + block_digests_.size()) {
      throw std::out_of_range("visit_block outside coverage");
    }
    const support::ByteView content =
        contents.empty() ? memory_.block_view(block) : contents[i];
    const std::size_t rel = block - coverage_.first_block;
    if (!visit_times_[rel]) ++visited_count_;
    visit_times_[rel] = now;

    const bool live = cache_ != nullptr && content.size() == memory_.block_size() &&
                      content.data() == memory_.block_view(block).data();
    if (live) {
      const std::uint64_t generation = memory_.block_generation(block);
      if (const Digest* hit = cached(block, generation, now)) {
        block_digests_[rel] = *hit;
        continue;
      }
      batch_contents_.push_back(content);
      batch_outs_.push_back(&block_digests_[rel]);
      batch_stores_.push_back({block, generation, true});
      continue;
    }
    batch_contents_.push_back(content);
    batch_outs_.push_back(&block_digests_[rel]);
    batch_stores_.push_back({block, 0, false});
  }

  digester_.digest_batch(batch_contents_, batch_outs_);

  for (std::size_t i = 0; i < batch_stores_.size(); ++i) {
    const PendingStore& ps = batch_stores_[i];
    if (ps.store) {
      cache_->store(ps.block, ps.generation, hash_, mac_, key_fp_, *batch_outs_[i]);
    }
  }
}

support::Bytes Measurement::block_digest(MacKind mac, crypto::HashKind hash,
                                         support::ByteView key,
                                         support::ByteView block) {
  BlockDigester digester(mac, hash, key);
  Digest out;
  digester.digest(block, out);
  return out.to_bytes();
}

namespace {

/// Context header shared by both combiners.
support::Bytes combine_header(const MeasurementContext& context) {
  support::Bytes header;
  support::append(header, support::to_bytes(context.device_id));
  support::append_u32_be(header, static_cast<std::uint32_t>(context.challenge.size()));
  support::append(header, context.challenge);
  support::append_u64_be(header, context.counter);
  return header;
}

}  // namespace

support::Bytes Measurement::combine(const std::vector<Digest>& digests,
                                    crypto::HashKind hash, support::ByteView key,
                                    const MeasurementContext& context, MacKind mac_kind) {
  MacEngine mac(mac_kind, hash, key);
  support::Bytes header = combine_header(context);
  support::append_u64_be(header, digests.size());
  mac.update(header);
  for (const auto& d : digests) mac.update(d.view());
  return mac.finalize();
}

support::Bytes Measurement::combine_root(support::ByteView tree_root,
                                         crypto::HashKind hash, support::ByteView key,
                                         const MeasurementContext& context,
                                         MacKind mac_kind) {
  MacEngine mac(mac_kind, hash, key);
  mac.update(support::to_bytes("mtree-root/v1"));
  mac.update(combine_header(context));
  mac.update(tree_root);
  return mac.finalize();
}

support::Bytes Measurement::finalize() const {
  if (!complete()) throw std::logic_error("Measurement::finalize before all blocks visited");
  return combine(block_digests_, hash_, key_, context_, mac_);
}

support::Bytes Measurement::expected(support::ByteView image, std::size_t block_size,
                                     crypto::HashKind hash, support::ByteView key,
                                     const MeasurementContext& context, MacKind mac) {
  if (block_size == 0 || image.size() % block_size != 0) {
    throw std::invalid_argument("golden image size must be a multiple of block_size");
  }
  const std::size_t n = image.size() / block_size;
  BlockDigester digester(mac, hash, key);
  std::vector<Digest> digests(n);
  std::vector<support::ByteView> views;
  std::vector<Digest*> outs;
  views.reserve(n);
  outs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    views.push_back(image.subspan(i * block_size, block_size));
    outs.push_back(&digests[i]);
  }
  digester.digest_batch(views, outs);
  return combine(digests, hash, key, context, mac);
}

}  // namespace rasc::attest
