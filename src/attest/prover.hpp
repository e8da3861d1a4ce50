#pragma once
/// \file prover.hpp
/// The measurement process MP as a schedulable CPU process, covering the
/// paper's execution modalities:
///
///  - ExecutionMode::kAtomic       — SMART/HYDRA style: the entire
///    measurement (plus finalization) is one non-preemptible segment;
///    nothing else runs between t_s and t_e.
///  - ExecutionMode::kInterruptible — TrustLite/SMARM style: one segment
///    per memory block; higher-priority tasks run between blocks.
///
///  - TraversalOrder::kSequential     — blocks 0..n-1 in order.
///  - TraversalOrder::kShuffledSecret — SMARM: a fresh secret permutation
///    per measurement, derived from the attestation key and counter via
///    HMAC-DRBG (malware can observe *progress* but not the order).
///
/// A LockPolicy receives the Figure 4 timeline hooks (t_s, per-block, t_e,
/// t_r).  An observer callback reports per-block progress — that is the
/// only measurement-internal information the adversary models receive.

#include <functional>
#include <optional>

#include "src/attest/lock_policy.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/report.hpp"
#include "src/crypto/drbg.hpp"
#include "src/mtree/incremental.hpp"
#include "src/sim/device.hpp"

namespace rasc::attest {

enum class ExecutionMode { kAtomic, kInterruptible };
enum class TraversalOrder { kSequential, kShuffledSecret };

std::string execution_mode_name(ExecutionMode mode);
std::string traversal_order_name(TraversalOrder order);

struct ProverConfig {
  crypto::HashKind hash = crypto::HashKind::kSha256;
  /// Hash-based (HMAC) or encryption-based (AES-CBC-MAC) F (Section 2.4).
  MacKind mac = MacKind::kHmac;
  ExecutionMode mode = ExecutionMode::kAtomic;
  TraversalOrder order = TraversalOrder::kSequential;
  int priority = 10;
  Coverage coverage{};
  /// Optional signature scheme for non-repudiation; adds sign_time to the
  /// finalization segment and attaches a signature when a Signer is set.
  std::optional<crypto::SigKind> signature;
  /// Section 2.3 policy for high-entropy data regions: zero the given
  /// blocks at t_s so malware cannot hide in them and the verifier can
  /// expect zeros instead of enumerating volatile states.
  std::optional<Coverage> zero_region;
  /// Consult the generation-keyed digest cache for unmodified blocks.
  /// Accelerates host wall-clock only — simulated timing and results are
  /// identical either way (cache hits are bit-identical by construction).
  bool use_digest_cache = true;
  /// Merkle-tree incremental measurement (ROADMAP item 2).  The process
  /// maintains an IncrementalTree across rounds: each round visits only
  /// the blocks written since the last one, re-hashes O(dirty * log n)
  /// tree nodes, MACs the *root* (Measurement::combine_root) and attaches
  /// subtree proofs for the re-measured ranges so the verifier can
  /// localize divergent blocks.  Requires full coverage and rejects
  /// snapshotting lock policies and zero_region (both would decouple the
  /// measured bytes from the generation counters the tree keys on).
  /// Changing this changes the report wire format — see report.hpp.
  bool use_merkle_tree = false;
  /// Leaves carried per subtree proof; longer dirty runs are split (the
  /// verifier re-merges adjacent localized ranges).
  std::size_t max_proof_leaves = 64;
};

struct AttestationResult {
  Report report;
  sim::Time t_s = 0;  ///< measurement start (lock engaged)
  sim::Time t_e = 0;  ///< measurement end (report ready)
  sim::Time t_r = 0;  ///< lock release (== t_e without an -Ext policy)
  std::vector<std::size_t> order;                    ///< traversal actually used
  std::vector<std::optional<sim::Time>> visit_times;  ///< per covered block
};

class AttestationProcess final : public sim::Process {
 public:
  /// `policy` may be nullptr (No-Lock).  The device, policy and signer
  /// must outlive the process.
  AttestationProcess(sim::Device& device, ProverConfig config,
                     LockPolicy* policy = nullptr);

  /// Per-block progress hook: called as (blocks_done, total_blocks) after
  /// every visited block in interruptible mode, and once with (n, n) after
  /// an atomic measurement completes.
  void set_observer(std::function<void(std::size_t, std::size_t)> observer) {
    observer_ = std::move(observer);
  }

  void set_signer(crypto::Signer* signer) { signer_ = signer; }

  /// The process-owned digest cache (persists across measurements, so a
  /// second ERASMUS round only rehashes blocks written since the first).
  /// Its hits()/misses()/stores() count every lookup; each hit and miss
  /// is also a journal fact about this device.
  DigestCache& digest_cache() noexcept { return digest_cache_; }

  /// Use an externally owned digest cache instead of the process-owned
  /// one (nullptr reverts).  The fleet verifier shares one cache across
  /// every prover of a shard whose provisioned content is identical —
  /// generation-per-content must hold for all sharers, which a shard
  /// guarantees by construction (same image, same key, same infection
  /// patch).  The cache must outlive the process; it is resized to this
  /// device's block count on the next start().
  void set_shared_digest_cache(DigestCache* cache) noexcept {
    shared_digest_cache_ = cache;
  }

  /// Begin a measurement; `done` fires at t_e with the full result.
  /// Throws std::logic_error if a measurement is already in flight.
  void start(MeasurementContext context, std::function<void(AttestationResult)> done);

  /// Tree mode only: build the tree from current memory host-side (a
  /// provisioning step, outside simulated time), wire the memory's
  /// generation observer to it, and switch dirty discovery to observed
  /// mode.  After priming, a round with no intervening writes visits zero
  /// blocks.  Claims the device memory's single observer slot.
  void prime_tree();

  /// As prime_tree(), but seed the leaves from externally computed digests
  /// (one per block, block order) instead of re-digesting memory — the
  /// fleet verifier primes a whole shard wave from the shard's golden
  /// digests in one multi-lane batch.  The caller must guarantee
  /// leaves[b] digests block b's *current* content under this prover's
  /// (mac, hash, key) configuration.
  void prime_tree_from(std::span<const Digest> leaves);

  /// The incremental tree (tree mode, after the first round or
  /// prime_tree(); nullptr otherwise) — exposed for benches and the fleet
  /// aggregation layer.
  const mtree::IncrementalTree* tree() const noexcept {
    return tree_ ? &*tree_ : nullptr;
  }

  /// Tree mode: drop the proof backlog.  Reports prove every block dirtied
  /// since this was last called — not just since the previous report — so
  /// a report lost in transit cannot lose localization; the session calls
  /// this once a round resolves decisively (some report reached Vrf).
  void clear_proof_backlog() noexcept;

  bool busy() const noexcept { return stage_ != Stage::kIdle; }

  /// Lifetime totals across all measurements this process completed —
  /// the session layer diffs these around a round to price retries
  /// (prover CPU time spent on measurements whose reports never decided
  /// anything).
  std::size_t measurements_completed() const noexcept { return measurements_completed_; }
  sim::Duration total_measure_time() const noexcept { return total_measure_time_; }

  /// Cross-round process state for hibernation: the lifetime totals the
  /// session layer diffs, plus the unacknowledged proof backlog (tree
  /// mode).  Capture only while idle; restore into a freshly constructed
  /// process after re-provisioning (and, in tree mode, after the tree is
  /// re-primed from the rebuilt memory).
  struct ProcessState {
    std::size_t measurements_completed = 0;
    sim::Duration total_measure_time = 0;
    std::vector<std::uint32_t> proof_backlog;
  };

  ProcessState save_process_state() const;
  void restore_process_state(const ProcessState& s);

  /// Cost of measuring one block / finalizing, from the device model
  /// (exposed so benches can report the theoretical interrupt latency).
  sim::Duration block_cost() const;
  sim::Duration finalize_cost() const;

  /// Trace row for this prover's session/measure spans and the t_s, t_e,
  /// t_r instants: "attest/<device-id>".
  const std::string& trace_track() const noexcept { return trace_track_; }

  // sim::Process
  std::optional<sim::Segment> next_segment() override;

 private:
  enum class Stage { kIdle, kLock, kBlocks, kCombine };

  void complete_lock();
  void complete_atomic();
  void complete_block();
  void complete_combine();
  void finish();
  std::vector<std::size_t> make_order();
  void ensure_tree();
  void visit_one(std::size_t block, sim::Time visit_time);

  sim::Device& device_;
  ProverConfig config_;
  LockPolicy* policy_;
  DigestCache digest_cache_;
  DigestCache* shared_digest_cache_ = nullptr;
  std::string trace_track_;
  crypto::Signer* signer_ = nullptr;
  std::function<void(std::size_t, std::size_t)> observer_;

  Stage stage_ = Stage::kIdle;
  std::size_t measurements_completed_ = 0;
  sim::Duration total_measure_time_ = 0;
  std::optional<Measurement> measurement_;
  std::optional<mtree::IncrementalTree> tree_;     ///< persists across rounds
  std::optional<BlockDigester> tree_digester_;     ///< host-side priming path
  std::size_t planned_nodes_ = 0;  ///< tree nodes this round will re-hash
  sim::Time tree_now_ = 0;         ///< visit time plumbed into the leaf fn
  std::vector<bool> proof_backlog_flag_;       ///< block -> in backlog
  std::vector<std::uint32_t> proof_backlog_;   ///< unacknowledged dirty blocks
  std::vector<std::size_t> order_;
  std::vector<support::ByteView> batch_contents_;  ///< complete_atomic scratch
  std::size_t next_index_ = 0;
  AttestationResult result_;
  std::function<void(AttestationResult)> done_;
};

}  // namespace rasc::attest
