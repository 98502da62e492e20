#include "core/fast_sequence_sort.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/sequence_sort.hpp"  // power_arity
#include "product/gray_code.hpp"   // pow_int

namespace prodsort {

namespace {

// Runs body(begin, end) over [0, count), on the executor when available.
template <typename Body>
void maybe_parallel(ParallelExecutor* exec, std::int64_t count, Body&& body) {
  if (exec != nullptr)
    exec->parallel_for(count, body);
  else
    body(0, count);
}

// Merges sorted [a, a_end) and [b, b_end) into `out`.  Each step selects
// the smaller head and bumps one pointer by a comparison result, so the
// loop body has no data-dependent branch.
void merge_into(const Key* a, const Key* a_end, const Key* b,
                const Key* b_end, Key* out) {
  while (a != a_end && b != b_end) {
    const Key x = *a;
    const Key y = *b;
    const bool take_b = y < x;
    *out++ = take_b ? y : x;
    a += !take_b;
    b += take_b;
  }
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
}

// Sorts `data`, which holds sorted runs of length `run`, by merging
// adjacent runs pairwise through `scratch` (same extent).
void merge_runs(std::span<Key> data, std::int64_t run, std::span<Key> scratch) {
  const std::int64_t size = static_cast<std::int64_t>(data.size());
  Key* src = data.data();
  Key* dst = scratch.data();
  for (std::int64_t width = run; width < size; width *= 2) {
    for (std::int64_t lo = 0; lo < size; lo += 2 * width) {
      const std::int64_t mid = std::min(lo + width, size);
      const std::int64_t hi = std::min(lo + 2 * width, size);
      merge_into(src + lo, src + mid, src + mid, src + hi, dst + lo);
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy(src, src + size, data.data());
}

// Insertion sort: close to one pass on the nearly sorted Step 4 blocks.
void insertion_sort(Key* first, Key* last) {
  for (Key* i = first + 1; i < last; ++i) {
    const Key key = *i;
    Key* j = i;
    for (; j != first && key < j[-1]; --j) *j = j[-1];
    *j = key;
  }
}

// Merge-split of the adjacent ascending blocks at `low` and `low + block`:
// afterwards the low block holds the smaller half.  `scratch` has room
// for both blocks.
void merge_split(Key* low, std::int64_t block, Key* scratch) {
  Key* high = low + block;
  if (low[block - 1] <= high[0]) return;
  merge_into(low, high, high, high + block, scratch);
  std::copy(scratch, scratch + 2 * block, low);
}

// Merges the N sorted length-m segments of `data` in place; `scratch`
// has the same extent.  `exec`, when non-null, parallelizes this merge's
// own N columns and its cleanup blocks (deeper recursion runs serial —
// ParallelExecutor is not reentrant).
void merge_fast(std::span<Key> data, std::int64_t n, std::span<Key> scratch,
                ParallelExecutor* exec) {
  const std::int64_t m = static_cast<std::int64_t>(data.size()) / n;
  if (m == n) {  // base: N sorted runs of N keys (each B_{u,v} is sorted)
    merge_runs(data, n, scratch);
    return;
  }
  const std::int64_t rows = m / n;
  const std::int64_t per_sub = rows;  // |B_{u,v}|

  // Step 1: gather every B_{u,v} so column v is contiguous in scratch.
  maybe_parallel(exec, n, [&](std::int64_t v_begin, std::int64_t v_end) {
    for (std::int64_t v = v_begin; v < v_end; ++v) {
      Key* out = scratch.data() + v * m;
      for (std::int64_t u = 0; u < n; ++u) {
        const Key* seg = data.data() + u * m;
        Key* dst = out + u * per_sub;
        for (std::int64_t i = 0; i < rows; ++i) {
          const std::int64_t col = (i % 2 == 0) ? v : n - 1 - v;
          dst[i] = seg[i * n + col];
        }
      }
    }
  });

  // Step 2: merge each column (recursion serial; columns parallel).
  maybe_parallel(exec, n, [&](std::int64_t v_begin, std::int64_t v_end) {
    for (std::int64_t v = v_begin; v < v_end; ++v)
      merge_fast(scratch.subspan(static_cast<std::size_t>(v * m),
                                 static_cast<std::size_t>(m)),
                 n,
                 data.subspan(static_cast<std::size_t>(v * m),
                              static_cast<std::size_t>(m)),
                 nullptr);
  });

  // Step 3: interleave columns back into data (D).
  maybe_parallel(exec, n, [&](std::int64_t v_begin, std::int64_t v_end) {
    for (std::int64_t v = v_begin; v < v_end; ++v) {
      const Key* col = scratch.data() + v * m;
      for (std::int64_t i = 0; i < m; ++i) data[static_cast<std::size_t>(i * n + v)] = col[i];
    }
  });

  // Step 4 (Lemma 2): by Lemma 1 every key now lies within N^2 of its
  // place, so a 0-1 input's dirty window meets at most two adjacent
  // N^2-key blocks.
  // Sort each block, then merge-split adjacent blocks in one even and
  // one odd transposition step; one of the two merges that pair.  Each
  // pair merges through its own slice of scratch, which Step 3 freed.
  const std::int64_t block = n * n;
  const std::int64_t nblocks = (n * m) / block;
  maybe_parallel(exec, nblocks, [&](std::int64_t z_begin, std::int64_t z_end) {
    for (std::int64_t z = z_begin; z < z_end; ++z)
      insertion_sort(data.data() + z * block, data.data() + (z + 1) * block);
  });
  for (const std::int64_t parity : {std::int64_t{0}, std::int64_t{1}}) {
    maybe_parallel(exec, (nblocks - parity) / 2,
                   [&](std::int64_t j_begin, std::int64_t j_end) {
                     for (std::int64_t j = j_begin; j < j_end; ++j) {
                       const std::int64_t z = parity + 2 * j;
                       merge_split(data.data() + z * block, block,
                                   scratch.data() + z * block);
                     }
                   });
  }
}

}  // namespace

void multiway_merge_sort_fast(std::vector<Key>& keys, NodeId n,
                              ParallelExecutor* executor) {
  int r = 0;
  if (!power_arity(static_cast<std::int64_t>(keys.size()), n, r))
    throw std::invalid_argument("key count must be N^r");
  if (r == 1) {
    std::sort(keys.begin(), keys.end());
    return;
  }

  const std::int64_t total = static_cast<std::int64_t>(keys.size());
  const std::int64_t base = static_cast<std::int64_t>(n) * n;
  maybe_parallel(executor, total / base,
                 [&](std::int64_t b_begin, std::int64_t b_end) {
                   for (std::int64_t b = b_begin; b < b_end; ++b)
                     std::sort(keys.begin() + static_cast<std::ptrdiff_t>(b * base),
                               keys.begin() + static_cast<std::ptrdiff_t>((b + 1) * base));
                 });

  std::vector<Key> scratch(keys.size());
  for (int k = 3; k <= r; ++k) {
    const std::int64_t group = pow_int(n, k);
    const std::int64_t groups = total / group;
    if (groups > 1) {
      // Parallelize across independent groups, serial inside.
      maybe_parallel(executor, groups,
                     [&](std::int64_t g_begin, std::int64_t g_end) {
                       for (std::int64_t g = g_begin; g < g_end; ++g)
                         merge_fast(
                             std::span<Key>(keys).subspan(
                                 static_cast<std::size_t>(g * group),
                                 static_cast<std::size_t>(group)),
                             n,
                             std::span<Key>(scratch).subspan(
                                 static_cast<std::size_t>(g * group),
                                 static_cast<std::size_t>(group)),
                             nullptr);
                     });
    } else {
      merge_fast(keys, n, scratch, executor);
    }
  }
}

void multiway_sort_any(std::vector<Key>& keys, NodeId n,
                       ParallelExecutor* executor) {
  if (n < 2) throw std::invalid_argument("need N >= 2");
  const std::size_t original = keys.size();
  if (original < static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::size_t padded = 1;
  while (padded < original) padded *= static_cast<std::size_t>(n);
  keys.resize(padded, std::numeric_limits<Key>::max());
  multiway_merge_sort_fast(keys, n, executor);
  keys.resize(original);
}

}  // namespace prodsort
