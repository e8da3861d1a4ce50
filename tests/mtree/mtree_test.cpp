#include "src/mtree/mtree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/support/rng.hpp"

namespace rasc::mtree {
namespace {

Digest digest_of(std::uint64_t tag) {
  support::Bytes bytes(32);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((tag >> (8 * (i % 8))) ^ i);
  }
  return Digest(support::ByteView(bytes));
}

MerkleTree make_tree(std::size_t leaves, std::uint64_t salt = 0) {
  MerkleTree tree(leaves, crypto::HashKind::kSha256);
  for (std::size_t i = 0; i < leaves; ++i) tree.set_leaf(i, digest_of(salt + i));
  tree.flush();
  return tree;
}

TEST(MerkleTree, RootThrowsWhileDirty) {
  MerkleTree tree(4, crypto::HashKind::kSha256);
  tree.set_leaf(0, digest_of(1));
  EXPECT_TRUE(tree.dirty());
  EXPECT_THROW(tree.root(), std::logic_error);
  tree.flush();
  EXPECT_FALSE(tree.dirty());
  EXPECT_NO_THROW(tree.root());
}

TEST(MerkleTree, SingleLeafTreeHasARoot) {
  const MerkleTree tree = make_tree(1);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_FALSE(tree.root_bytes().empty());
}

TEST(MerkleTree, RootDependsOnEveryLeaf) {
  for (std::size_t leaves : {2u, 3u, 5u, 8u, 13u}) {
    const MerkleTree base = make_tree(leaves);
    for (std::size_t changed = 0; changed < leaves; ++changed) {
      MerkleTree tree = make_tree(leaves);
      tree.set_leaf(changed, digest_of(0x9999 + changed));
      tree.flush();
      EXPECT_NE(tree.root(), base.root()) << leaves << " leaves, leaf " << changed;
    }
  }
}

TEST(MerkleTree, WidthIsDomainSeparated) {
  // Same leaves, different tree width -> different root (padding leaves
  // hash differently from absent ones).
  MerkleTree narrow(3, crypto::HashKind::kSha256);
  MerkleTree wide(4, crypto::HashKind::kSha256);
  for (std::size_t i = 0; i < 3; ++i) {
    narrow.set_leaf(i, digest_of(i));
    wide.set_leaf(i, digest_of(i));
  }
  wide.set_leaf(3, Digest());
  narrow.flush();
  wide.flush();
  EXPECT_NE(narrow.root(), wide.root());
}

TEST(MerkleTree, IncrementalFlushEqualsRebuild) {
  support::Xoshiro256 rng(42);
  MerkleTree tree = make_tree(11);
  for (int round = 0; round < 20; ++round) {
    const std::size_t dirty = 1 + static_cast<std::size_t>(rng.below(4));
    for (std::size_t d = 0; d < dirty; ++d) {
      tree.set_leaf(static_cast<std::size_t>(rng.below(11)),
                    digest_of(rng()));
    }
    tree.flush();
    // Reference: fresh tree over the same leaf digests.
    MerkleTree reference(11, crypto::HashKind::kSha256);
    for (std::size_t i = 0; i < 11; ++i) reference.set_leaf(i, tree.leaf_digest(i));
    reference.rebuild();
    ASSERT_EQ(tree.root(), reference.root()) << "round " << round;
  }
}

TEST(MerkleTree, FlushCountsAreSubLinearForOneDirtyLeaf) {
  MerkleTree tree = make_tree(256);
  tree.set_leaf(17, digest_of(0xfeed));
  const RehashStats stats = tree.flush();
  EXPECT_EQ(stats.dirty_leaves, 1u);
  // Leaf + path to root of a 256-leaf tree: 9 nodes.
  EXPECT_EQ(stats.nodes_rehashed, 9u);
}

TEST(MerkleTree, RedundantSetLeafIsOneFlushPath) {
  MerkleTree tree = make_tree(64);
  tree.set_leaf(5, digest_of(1000));
  tree.set_leaf(5, digest_of(1001));
  const RehashStats stats = tree.flush();
  EXPECT_EQ(stats.dirty_leaves, 1u);
  EXPECT_EQ(stats.nodes_rehashed, 7u);  // log2(64) + 1
}

TEST(MerkleTree, PlanRehashPredictsFlush) {
  support::Xoshiro256 rng(7);
  for (int round = 0; round < 10; ++round) {
    MerkleTree tree = make_tree(37, /*salt=*/round);
    std::vector<std::size_t> leaves;
    const std::size_t dirty = 1 + static_cast<std::size_t>(rng.below(8));
    for (std::size_t d = 0; d < dirty; ++d) {
      leaves.push_back(static_cast<std::size_t>(rng.below(37)));
    }
    const std::size_t planned = tree.plan_rehash(leaves);
    for (const std::size_t leaf : leaves) tree.set_leaf(leaf, digest_of(rng()));
    const RehashStats stats = tree.flush();
    EXPECT_EQ(planned, stats.nodes_rehashed) << "round " << round;
  }
}

TEST(MerkleTree, PlanRehashRejectsOutOfRangeLeaf) {
  const MerkleTree tree = make_tree(8);
  EXPECT_THROW(tree.plan_rehash({8}), std::out_of_range);
}

TEST(MerkleTree, CombineRootsIsOrderSensitive) {
  const Digest a = digest_of(1), b = digest_of(2);
  const Digest ab = MerkleTree::combine_roots({a, b}, crypto::HashKind::kSha256);
  const Digest ba = MerkleTree::combine_roots({b, a}, crypto::HashKind::kSha256);
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, MerkleTree::combine_roots({a, b}, crypto::HashKind::kSha256));
}

TEST(MerkleTree, MemoryBytesGrowsWithLeafCount) {
  const MerkleTree small = make_tree(8);
  const MerkleTree large = make_tree(256);
  EXPECT_GT(small.memory_bytes(), 0u);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

TEST(MtreeProof, VerifiesAndRoundTripsWire) {
  const MerkleTree tree = make_tree(29);
  const support::Bytes root = tree.root_bytes();
  for (const auto& [first, count] :
       {std::pair<std::size_t, std::size_t>{0, 1}, {28, 1}, {3, 7}, {0, 29}}) {
    const MtreeProof proof = tree.prove_range(first, count);
    EXPECT_TRUE(proof.verify(root)) << first << "+" << count;

    const support::Bytes wire = proof.serialize();
    std::size_t pos = 0;
    const auto parsed = MtreeProof::parse(wire, pos);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(pos, wire.size());
    EXPECT_EQ(parsed->first_leaf, proof.first_leaf);
    EXPECT_EQ(parsed->leaf_count, proof.leaf_count);
    EXPECT_EQ(parsed->total_leaves, proof.total_leaves);
    EXPECT_EQ(parsed->leaves, proof.leaves);
    EXPECT_EQ(parsed->siblings, proof.siblings);
    EXPECT_EQ(parsed->generations, proof.generations);
    EXPECT_TRUE(parsed->verify(root));
  }
}

TEST(MtreeProof, CarriesGenerationSnapshot) {
  const MerkleTree tree = make_tree(8);
  std::vector<std::uint64_t> generations{10, 11, 12, 13, 14, 15, 16, 17};
  const MtreeProof proof = tree.prove_range(2, 3, &generations);
  ASSERT_EQ(proof.generations.size(), 3u);
  EXPECT_EQ(proof.generations[0], 12u);
  EXPECT_EQ(proof.generations[2], 14u);
}

TEST(MtreeProof, RejectsWrongRootAndStructuralNonsense) {
  const MerkleTree tree = make_tree(16);
  MtreeProof proof = tree.prove_range(4, 4);
  support::Bytes other_root = tree.root_bytes();
  other_root[0] ^= 0x01;
  EXPECT_FALSE(proof.verify(other_root));
  EXPECT_FALSE(proof.verify(support::Bytes{}));

  MtreeProof empty = proof;
  empty.leaf_count = 0;
  empty.leaves.clear();
  empty.generations.clear();
  EXPECT_FALSE(empty.verify(tree.root_bytes()));

  MtreeProof outside = proof;
  outside.first_leaf = 15;  // 15 + 4 > 16
  EXPECT_FALSE(outside.verify(tree.root_bytes()));
}

TEST(MtreeProof, ParseRejectsTruncation) {
  const MerkleTree tree = make_tree(8);
  const support::Bytes wire = tree.prove_range(1, 3).serialize();
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    std::size_t pos = 0;
    const auto parsed =
        MtreeProof::parse(support::ByteView(wire.data(), cut), pos);
    EXPECT_FALSE(parsed.has_value()) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace rasc::mtree
