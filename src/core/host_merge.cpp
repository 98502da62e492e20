#include "core/host_merge.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace prodsort {

namespace {

/// A loser-tree slot: a run's head key and its leaf (run) index packed
/// into one unsigned 128-bit word — the key, sign bit flipped, in the
/// high half, the leaf in the low half — so one unsigned comparison
/// orders keys and breaks ties by run index, without a branch.  An
/// exhausted run, and every padding leaf, holds (Key max, leaf +
/// leaves): real leaves are below `leaves`, so the sentinel loses every
/// tie, a tie with a real Key-max key included.
__extension__ typedef unsigned __int128 Slot;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr Key kMaxKey = std::numeric_limits<Key>::max();

[[nodiscard]] inline Slot make_slot(Key key, std::size_t leaf) {
  return (Slot{static_cast<std::uint64_t>(key) ^ kSignBit} << 64) | leaf;
}
[[nodiscard]] inline Key key_of(Slot slot) {
  return static_cast<Key>(static_cast<std::uint64_t>(slot >> 64) ^ kSignBit);
}
[[nodiscard]] inline std::size_t leaf_of(Slot slot) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(slot));
}

/// Loser tree over the non-empty runs, leaves padded to a power of two.
/// The buffers are reused across merge() calls.
class LoserTree {
 public:
  /// Writes the merge of `runs` (each sorted; `total` keys in all) to
  /// `dst` and returns the comparisons made: k - 1 to build, then
  /// ceil(log2 k) per output after the first (k = non-empty runs).
  std::int64_t merge(std::span<const std::span<const Key>> runs,
                     std::size_t total, Key* dst) {
    pos_.clear();
    end_.clear();
    pos_.reserve(runs.size());
    end_.reserve(runs.size());
    for (const std::span<const Key> run : runs) {
      if (run.empty()) continue;
      pos_.push_back(run.data());
      end_.push_back(run.data() + run.size());
    }
    const std::size_t k = pos_.size();
    if (k == 0) return 0;
    const std::size_t leaves = std::bit_ceil(k);

    // Build bottom-up: win_[node] is the winner of node's subtree,
    // loser_[node] keeps the match's loser.  A padding leaf loses its
    // match unplayed, so the k real leaves play k - 1 comparisons.
    win_.resize(2 * leaves);
    loser_.resize(leaves);
    for (std::size_t i = 0; i < leaves; ++i)
      win_[leaves + i] =
          i < k ? make_slot(*pos_[i], i) : make_slot(kMaxKey, leaves + i);
    std::int64_t comparisons = 0;
    for (std::size_t node = leaves - 1; node >= 1; --node) {
      const Slot a = win_[2 * node];
      const Slot b = win_[2 * node + 1];
      bool a_wins = leaf_of(b) >= leaves;  // a padding leaf b loses unplayed
      if (leaf_of(a) < leaves && leaf_of(b) < leaves) {
        ++comparisons;
        a_wins = a < b;
      }
      win_[node] = a_wins ? a : b;
      loser_[node] = a_wins ? b : a;
    }

    // Replay: emit the winner, advance its run (an exhausted run turns
    // into its sentinel), and play the new head up its leaf-to-root
    // path: one comparison per level, log2(leaves) in all.
    Slot w = win_[1];
    for (std::size_t out = 0;;) {
      dst[out] = key_of(w);
      if (++out == total) break;
      const std::size_t r = leaf_of(w);
      w = ++pos_[r] != end_[r] ? make_slot(*pos_[r], r)
                               : make_slot(kMaxKey, r + leaves);
      for (std::size_t node = (leaves + r) >> 1; node != 0; node >>= 1) {
        ++comparisons;
        const Slot held = loser_[node];
        const bool keep = w < held;
        loser_[node] = keep ? held : w;
        w = keep ? w : held;
      }
    }
    return comparisons;
  }

 private:
  std::vector<const Key*> pos_;
  std::vector<const Key*> end_;
  std::vector<Slot> win_;
  std::vector<Slot> loser_;
};

}  // namespace

void measured_multiway_merge(std::span<const std::span<const Key>> runs,
                             HostMergeStats& stats, std::vector<Key>& out) {
  std::size_t total = 0;
  std::int64_t live = 0;
  for (const std::span<const Key> run : runs) {
    if (!std::is_sorted(run.begin(), run.end()))
      throw std::invalid_argument("measured_multiway_merge: run not sorted");
    total += run.size();
    if (!run.empty()) ++live;
  }
  const std::size_t base = out.size();
  out.resize(base + total);
  LoserTree tree;
  stats.comparisons += tree.merge(runs, total, out.data() + base);
  stats.moves += static_cast<std::int64_t>(total);
  stats.runs += live;
}

std::vector<Key> measured_multiway_merge(
    std::span<const std::vector<Key>> runs, HostMergeStats& stats) {
  const std::vector<std::span<const Key>> views(runs.begin(), runs.end());
  std::vector<Key> out;
  measured_multiway_merge(views, stats, out);
  return out;
}

std::vector<Key> measured_host_sort(std::span<const Key> keys,
                                    std::int64_t run_keys,
                                    HostMergeStats& stats) {
  if (run_keys < 1)
    throw std::invalid_argument("measured_host_sort: run_keys < 1");
  const std::size_t n = keys.size();
  const auto step = static_cast<std::size_t>(run_keys);
  // Each run is a tournament over its keys, every key a run of one.
  LoserTree tree;
  std::vector<Key> sorted(n);
  std::vector<std::span<const Key>> singles;
  singles.reserve(std::min(n, step));
  std::vector<std::span<const Key>> runs;
  for (std::size_t lo = 0; lo < n; lo += step) {
    const std::size_t hi = std::min(n, lo + step);
    singles.clear();
    for (std::size_t i = lo; i < hi; ++i) singles.push_back(keys.subspan(i, 1));
    stats.comparisons += tree.merge(singles, hi - lo, sorted.data() + lo);
    stats.moves += static_cast<std::int64_t>(hi - lo);
    runs.emplace_back(sorted.data() + lo, hi - lo);
  }
  if (runs.size() <= 1) {
    stats.runs += static_cast<std::int64_t>(runs.size());
    return sorted;
  }
  std::vector<Key> out;
  measured_multiway_merge(runs, stats, out);
  return out;
}

}  // namespace prodsort
