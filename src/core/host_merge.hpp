#pragma once

// Measured host-side sorting and multiway merging (docs/STREAMING.md,
// "Measured host merge").
//
// Two places run sorts on the *host* rather than on a simulated
// machine: the service's last-resort fallback (every breaker open) and
// the streaming pipeline's egress merge.  The host paths below *count*
// every comparison and key move they perform, and convert that work to
// virtual steps with the same lane discipline the certifier uses
// (kCertLanes = 8 parallel lanes; see certificate_steps in
// core/certifier.hpp), so host latency and backend latency sit on one
// commensurable clock.
//
// The conversion is steps = ceil((comparisons + moves) / kHostMergeLanes):
// comparisons and moves are the two unit operations the simulated
// machine also charges (CostModel::comparisons / exchanges), and the
// lane count models the same modest host parallelism the certificate
// scan assumes.  Both host paths run one in-tree loser tree, whose
// comparison count is a closed formula of its shape (run count and key
// count, stated at measured_multiway_merge) — the code defines the
// count, not a library's heap or sort routine.

#include <cstdint>
#include <span>
#include <vector>

#include "core/multiway_merge.hpp"  // Key

namespace prodsort {

/// Parallel lanes the host work is spread over when converting counted
/// operations to virtual steps.  Deliberately equal to kCertLanes so
/// host sorting, host merging, and certification all price host work
/// with one constant (pinned by a test).
inline constexpr std::int64_t kHostMergeLanes = 8;

/// Operation counts of a measured host sort or merge.  Accumulating:
/// pass the same stats object through several calls to price a whole
/// pipeline stage.
struct HostMergeStats {
  std::int64_t comparisons = 0;  ///< tree comparisons played
  std::int64_t moves = 0;        ///< keys written to an output buffer
  std::int64_t runs = 0;         ///< sorted runs consumed or produced

  /// Virtual-step price of the counted work:
  /// ceil((comparisons + moves) / kHostMergeLanes), never negative.
  [[nodiscard]] std::int64_t steps() const noexcept {
    const std::int64_t ops = comparisons + moves;
    return (ops + kHostMergeLanes - 1) / kHostMergeLanes;
  }

  HostMergeStats& operator+=(const HostMergeStats& other) noexcept {
    comparisons += other.comparisons;
    moves += other.moves;
    runs += other.runs;
    return *this;
  }
};

/// K-way merges `runs` (each individually sorted ascending; empty runs
/// legal, any run count >= 0) and appends the result to `out`, counting
/// every tree comparison and every emitted key into `stats`.  Unlike
/// multiway_merge (core/multiway_merge.hpp) the runs need not share a
/// length, which is what the streaming egress needs — skewed splitters
/// produce wildly unequal runs.  Equal keys leave in run-index order.
///
/// The merge is a loser tree over the k non-empty runs, its leaves
/// padded to 2^ceil(log2 k), so with n keys in all it makes exactly
///
///   comparisons = (k - 1) + (n - 1) * ceil(log2 k)      (0 when k = 0)
///
/// k - 1 to build (a padding leaf loses its match unplayed), then one
/// leaf-to-root replay of ceil(log2 k) comparisons per output after
/// the first; an exhausted run plays on as a sentinel.  The count
/// depends only on k and n, never on the key values.  The runs must
/// not view `out`, which grows.  Throws std::invalid_argument, with
/// `out` and `stats` untouched, if any run is not sorted.
void measured_multiway_merge(std::span<const std::span<const Key>> runs,
                             HostMergeStats& stats, std::vector<Key>& out);

/// The same merge over owned runs, returned as a new vector.
[[nodiscard]] std::vector<Key> measured_multiway_merge(
    std::span<const std::vector<Key>> runs, HostMergeStats& stats);

/// Sorts `keys` the way an external sample-sort's host stage would:
/// cut into ceil(n / run_keys) runs of at most `run_keys` keys, sort
/// each run of m keys as a loser-tree tournament of m one-key runs
/// ((m - 1) + (m - 1) * ceil(log2 m) comparisons, m moves), then
/// measured_multiway_merge the runs.  Throws std::invalid_argument on
/// run_keys < 1.
[[nodiscard]] std::vector<Key> measured_host_sort(std::span<const Key> keys,
                                                  std::int64_t run_keys,
                                                  HostMergeStats& stats);

}  // namespace prodsort
