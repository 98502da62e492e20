#pragma once

// End-to-end sort certificates against *silent* faults.
//
// Every detector built so far is loud: a dropped packet retries, a
// crashed node throws, an overloaded backend times out.  A silently
// faulty comparator (FaultConfig::comparator_schedule) defeats them
// all — it emits the wrong min/max and nothing else changes — so the
// sort returns, on time and without complaint, with wrong output.  The
// paper's building blocks supply the cheap antidote this layer
// implements:
//
//  * an order-invariant multiset fingerprint (a commutative combine of
//    splitmix-mixed keys, core/hashing.hpp) taken over the input before
//    sorting and over the snake read-out after — any lost, duplicated,
//    or corrupted key changes it almost surely;
//  * a parallel snake-adjacency scan — by the 0-1 principle a sequence
//    is sorted iff no adjacent pair inverts, so sortedness is O(n)
//    verifiable, embarrassingly parallel, and needs no reference copy.
//
// Together they split every wrong output into the two classes that
// matter for recovery: kWrongOrder (right keys, wrong permutation —
// repairable in place by more compare-exchange passes) versus
// kKeysCorrupted (the multiset itself changed — only re-ingesting the
// input can help).  certify_and_repair() closes the loop on the first
// class: bounded alternating-parity odd-even transposition passes over
// the certified dirty window (the Lemma 1 witness), re-certifying
// after each pass, executed through the machine's own primitives so
// repair is honestly charged and itself subject to the attached
// faults; block_certify_and_repair() is the same loop lifted to
// merge-splits.  See docs/FAULTS.md, "Silent faults".

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/multiway_merge.hpp"  // Key
#include "network/block_machine.hpp"
#include "network/machine.hpp"

namespace prodsort {

/// Order-invariant summary of a key multiset: equal multisets give equal
/// fingerprints in any order; differing multisets collide with
/// probability ~2^-64.  The checksum values are pinned by certifier_test
/// (they feed job records, report hashes and the journal).
struct MultisetFingerprint {
  std::uint64_t checksum = 0;
  std::uint64_t count = 0;
  friend bool operator==(const MultisetFingerprint&,
                         const MultisetFingerprint&) = default;
};

/// Fingerprints `keys` by folding per-chunk FingerprintAccumulators;
/// uses `executor` for the chunks when non-null (same result for any
/// thread count).
[[nodiscard]] MultisetFingerprint fingerprint_sequence(
    std::span<const Key> keys, ParallelExecutor* executor = nullptr);

/// Incremental multiset fingerprinting for chained certificates
/// (docs/STREAMING.md, "Certificate chaining") and the only place a key
/// is hashed.  Holds the *raw* pre-finalization accumulators of the
/// combine (wrapping sum + xor of per-key splitmix hashes, plus the
/// count), so disjoint key sets fingerprinted separately can be merged
/// with absorb() and finalized once: finalize() over absorbed pieces
/// equals fingerprint_sequence() over their concatenation, in any order
/// (a pinned equivalence — see certifier_test).  This is what lets the
/// streaming pipeline prove "sealed output == ingested input" without
/// ever holding both sides in memory: each batch and each sealed range
/// contributes its accumulator, and only the two stream-level
/// accumulators are compared at the end.
/// Raw, pre-finalization state of a FingerprintAccumulator — the three
/// words the commutative combine carries.  Serializable (the durability
/// journal persists it, docs/DURABILITY.md) and restorable: an
/// accumulator rebuilt with from_state() continues absorbing exactly
/// where the journaled one stopped, so a crash-restarted stream can
/// extend its ingest/sealed fingerprints instead of recomputing them.
struct FingerprintState {
  std::uint64_t sum = 0;
  std::uint64_t xor_mix = 0;
  std::uint64_t count = 0;
  friend bool operator==(const FingerprintState&,
                         const FingerprintState&) = default;
};

class FingerprintAccumulator {
 public:
  /// Absorbs one key.
  void absorb(Key key) noexcept;
  /// Absorbs every key of `keys`.
  void absorb(std::span<const Key> keys) noexcept;
  /// Merges another accumulator's keys into this one (disjoint-union
  /// semantics: both multisets are now represented).
  void absorb(const FingerprintAccumulator& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// The finalized fingerprint of everything absorbed so far.  Pure —
  /// the accumulator can keep absorbing afterwards.
  [[nodiscard]] MultisetFingerprint finalize() const noexcept;

  /// Snapshot of the raw accumulator words (journal serialization).
  [[nodiscard]] FingerprintState state() const noexcept;
  /// Rebuilds an accumulator from a journaled snapshot; state() and
  /// finalize() of the result equal the original's (pinned by test).
  [[nodiscard]] static FingerprintAccumulator from_state(
      const FingerprintState& state) noexcept;

  friend bool operator==(const FingerprintAccumulator&,
                         const FingerprintAccumulator&) = default;

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t xor_ = 0;
  std::uint64_t count_ = 0;
};

enum class CertVerdict {
  kPass,           ///< sorted permutation of the expected multiset
  kWrongOrder,     ///< right keys, wrong permutation: repairable in place
  kKeysCorrupted,  ///< multiset changed: re-sorting can never fix it
};

[[nodiscard]] std::string to_string(CertVerdict verdict);

// --- graduated certification levels (the risk dial; docs/FAULTS.md) ------
//
// Full certification scans every adjacent pair and fingerprints every
// read-out.  The sampled levels trade detection probability for virtual
// time: a seeded deterministic subset of the adjacency pairs is scanned
// (a single misplaced adjacent pair escapes with probability exactly
// 1 - coverage, the analytic bound the mutation tests pin), and the
// fingerprint is taken only every k-th certification.  Samples are
// *nested*: for one sample seed, the pairs scanned at lower coverage
// are a prefix of those scanned at higher coverage, so detection
// probability is monotone in coverage trial by trial, not just in
// expectation.

enum class CertLevel : int {
  kSpot = 0,     ///< low-coverage scan, fingerprint every k-th job
  kSampled = 1,  ///< half-coverage scan, frequent fingerprints
  kFull = 2,     ///< every pair scanned, fingerprint always
};

[[nodiscard]] std::string to_string(CertLevel level);
/// Inverse of to_string; throws std::invalid_argument on junk.
[[nodiscard]] CertLevel parse_cert_level(const std::string& name);

/// One certification's execution plan: which fraction of the adjacency
/// pairs to scan, whether to take the multiset fingerprint this time,
/// and the seed of the deterministic pair sample.
struct CertPlan {
  CertLevel level = CertLevel::kFull;
  double coverage = 1.0;     ///< fraction of adjacent pairs scanned (0, 1]
  bool fingerprint = true;   ///< take the multiset fingerprint this time
  std::uint64_t sample_seed = 1;
};

/// The adjacency-pair indices a sampled certification at `seed` scans:
/// the first `scanned` entries of a seeded uniform permutation of
/// [0, pairs).  Nested by construction — a larger `scanned` extends the
/// same prefix.  Exposed for the mutation tests and the bench.
[[nodiscard]] std::vector<std::int64_t> sampled_pair_indices(
    std::int64_t pairs, std::int64_t scanned, std::uint64_t seed);

/// Pairs scanned at `coverage` over a sequence of `n` keys:
/// ceil(coverage * (n-1)), clamped to [1, n-1] (0 when n < 2).
[[nodiscard]] std::int64_t scanned_pairs_for(std::int64_t n, double coverage);

/// Virtual-time charge of one certification: the scanned pairs stream
/// through kCertLanes parallel verification lanes (ceil(scanned/lanes)
/// steps), and a fingerprint adds one hashing step plus a combine tree
/// of depth ceil(log2 n).  Strictly monotone in the scanned-pair count
/// at the coverage grid the levels use, so sampled certification is
/// strictly cheaper than full on the virtual clock.
inline constexpr std::int64_t kCertLanes = 8;
[[nodiscard]] std::int64_t certificate_steps(std::int64_t n,
                                             std::int64_t scanned,
                                             bool fingerprint);

struct EndToEndCertificate {
  CertVerdict verdict = CertVerdict::kPass;
  bool sorted = false;
  std::int64_t adjacency_violations = 0;  ///< inverted adjacent pairs
  PNode first_violation = -1;  ///< rank of first inversion (-1 if none)
  /// The Lemma 1 dirty window: the smallest rank interval whose
  /// contents differ from their own sorted copy (empty when sorted).
  /// Found by one O(n) scan, no copy: dirty_lo is the first rank whose
  /// key exceeds the minimum after it, dirty_hi the last rank whose key
  /// is below the maximum before it.
  PNode dirty_lo = 0;
  PNode dirty_hi = -1;
  MultisetFingerprint expected;
  MultisetFingerprint observed;
  CertLevel level = CertLevel::kFull;  ///< level this certificate ran at
  std::int64_t scanned_pairs = 0;      ///< adjacency pairs actually scanned
  /// False when the plan skipped the fingerprint (observed == expected
  /// then holds trivially, not as evidence).
  bool fingerprint_checked = true;

  [[nodiscard]] bool pass() const noexcept {
    return verdict == CertVerdict::kPass;
  }
};

/// Issues end-to-end certificates against the fingerprint of the
/// *input* (taken at construction, before any faulty phase can run).
class Certifier {
 public:
  /// Fingerprints `input` as the expected multiset.
  explicit Certifier(std::span<const Key> input,
                     ParallelExecutor* executor = nullptr);
  /// Re-certify against a fingerprint recorded earlier (e.g. a service
  /// job's admission-time checksum).
  explicit Certifier(MultisetFingerprint expected,
                     ParallelExecutor* executor = nullptr);

  [[nodiscard]] const MultisetFingerprint& expected() const noexcept {
    return expected_;
  }

  /// Certifies an explicit sequence at full strength: O(n), the dirty
  /// window included.  Equal to certify_sampled() at a full CertPlan.
  [[nodiscard]] EndToEndCertificate certify(std::span<const Key> seq) const;

  /// Certifies the snake read-out of `view`.
  [[nodiscard]] EndToEndCertificate certify(const Machine& machine,
                                            const ViewSpec& view) const;

  /// Certifies `seq` at `plan`: only the plan's seeded pair sample is
  /// scanned, and the fingerprint is taken only when the plan says so.
  /// A full-level plan is bit-identical to certify().  A sampled pass
  /// is *evidence*, not proof — an inversion outside the sample escapes
  /// (probability at most 1 - coverage for a single misplaced pair);
  /// the dirty window on a failure is still exact over the whole
  /// sequence, so escalation and repair work from the true window.
  [[nodiscard]] EndToEndCertificate certify_sampled(
      std::span<const Key> seq, const CertPlan& plan) const;

 private:
  MultisetFingerprint expected_;
  ParallelExecutor* executor_;
};

/// Certifies the snake read-out of `view` at `plan` and prices the
/// certificate into the machine's side ledger (certificate_steps into
/// CostModel::cert_steps, one CostModel::certificates tick).  The
/// charge is kept off exec_steps so sort/service timing is unchanged by
/// certification level — cert_steps is the overhead axis the adaptive
/// dial and bench_adaptive_cert compare levels on.  The plain
/// Certifier::certify stays free for host-side checks; every in-fabric
/// certification the recovery ladder runs goes through here.  The block
/// overload certifies the key-granular read-out (b keys per node).
[[nodiscard]] EndToEndCertificate certify_charged(Machine& machine,
                                                  const ViewSpec& view,
                                                  const Certifier& certifier,
                                                  const CertPlan& plan);
[[nodiscard]] EndToEndCertificate certify_charged(BlockMachine& machine,
                                                  const ViewSpec& view,
                                                  const Certifier& certifier,
                                                  const CertPlan& plan);

/// One odd-even transposition pass (single parity: 0 pairs even ranks
/// with their right neighbor, 1 pairs odd ranks) over the snake ranks
/// [lo, hi] of `view`, executed through the machine's compare-exchange
/// primitive — charged to the cost model and subject to any attached
/// faults.  Returns the exchanges performed, so cleanup loops can
/// detect quiescence.  The unit pass of certify_and_repair.
std::int64_t oet_window_pass(Machine& machine, const ViewSpec& view, PNode lo,
                             PNode hi, int parity);

enum class RepairOutcome {
  kCertified,       ///< passed on entry, no repair needed
  kRepaired,        ///< wrong order repaired; exit certificate passes
  kKeysCorrupted,   ///< fingerprint mismatch: repair cannot help
  kBudgetExhausted, ///< still failing after max_passes repair passes
};

[[nodiscard]] std::string to_string(RepairOutcome outcome);

struct RepairOptions {
  /// Odd-even transposition passes the repair loop may spend.  A dirty
  /// window of width w needs at most w passes when repair itself runs
  /// fault-free (0-1 principle), so any budget >= the view size is
  /// "repair or prove the faults are still live"; the default covers
  /// the k-fault windows the stress soak produces (see docs/FAULTS.md,
  /// pass-budget guidance, and the bound test in silent_fault_test).
  int max_passes = 32;
};

struct RepairReport {
  RepairOutcome outcome = RepairOutcome::kCertified;
  int passes = 0;                 ///< repair passes executed
  std::int64_t repair_steps = 0;  ///< exec_steps charged to repair
  EndToEndCertificate before;     ///< key-granular certificate on entry
  EndToEndCertificate after;      ///< key-granular certificate on exit
};

/// Certifies `view` and, while the verdict is kWrongOrder, runs
/// alternating-parity OET passes over the certified dirty window (+-1
/// rank, the Lemma 1 cleanup) through the machine's own primitives,
/// re-certifying after each pass, until the certificate passes or the
/// pass budget is exhausted.  Charged to exec_steps, recovery_steps,
/// and CostModel::repair_passes; subject to the attached faults (a
/// still-active comparator fault can corrupt keys mid-repair, which
/// the re-certification reports as kKeysCorrupted).
RepairReport certify_and_repair(Machine& machine, const ViewSpec& view,
                                const Certifier& certifier,
                                const RepairOptions& options = {});

/// Block variant of certify_and_repair — the same loop with each pass
/// lifted to merge-splits (Schiller's agglomeration law): certifies the
/// key-granular snake read-out (b keys per node), converts the dirty
/// key window to the covering block window +-1 block (the agglomerated
/// Lemma 1 argument — a misplaced key can sit at most one merge-split
/// partner away from its sorted block once the fault window closes),
/// re-sorts any internally unsorted block in that window, and runs one
/// alternating-parity merge-split pass over it.  Charged through the
/// BlockMachine's own primitives, so repair is subject to any still
/// attached block-mode comparator faults.
RepairReport block_certify_and_repair(BlockMachine& machine,
                                      const ViewSpec& view,
                                      const Certifier& certifier,
                                      const RepairOptions& options = {});

}  // namespace prodsort
