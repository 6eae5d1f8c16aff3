#include "core/outlier_detection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "util/thread_pool.hpp"

namespace uwp::core {

namespace {

// In-place lexicographic advance of a k-subset of [0, n) (k >= 1). Visits
// subsets in exactly the order subsets_of_size materializes them.
bool advance_subset(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t k = idx.size();
  std::size_t i = k;
  while (i-- > 0) {
    if (idx[i] != i + n - k) {
      ++idx[i];
      for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
    if (i == 0) return false;
  }
  return false;
}

// Scratch for one candidate solve.
struct SearchLane {
  SmacofWorkspace smacof;
  SmacofResult result;
  Matrix w;
  Rng rng{0};  // never drawn from (warm solves have no restarts)
};

struct SearchPool {
  std::unique_ptr<ThreadPool> pool;  // none until a search asks for > 1 thread
  std::vector<SearchLane> lanes;     // one per lane; lane 0 is the caller
};

// The calling thread's fan-out for a search at `threads` (resolved, >= 1):
// the caller runs lane 0 and a pool of threads - 1 runs the rest. The pool
// is recreated only when a search asks for a different count above one, so
// search threads stay bounded by localizing threads x search_threads.
SearchPool& search_pool(std::size_t threads) {
  thread_local SearchPool sp;
  if (threads > 1 && (sp.pool == nullptr || sp.pool->size() != threads - 1))
    sp.pool = std::make_unique<ThreadPool>(threads - 1);
  if (sp.lanes.size() < threads) sp.lanes.resize(threads);
  return sp;
}

}  // namespace

void TriangleStressBound::reset(const Matrix& dist, const Matrix& weights,
                                const std::vector<Edge>& links) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = dist.rows();
  num_links_ = links.size();
  link_id_.assign(n * n, kNone);
  for (std::size_t li = 0; li < links.size(); ++li)
    link_id_[links[li].first * n + links[li].second] = li;
  triangles_.clear();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t ab = link_id_[a * n + b];
      if (ab == kNone) continue;
      for (std::size_t c = b + 1; c < n; ++c) {
        const std::size_t ac = link_id_[a * n + c];
        const std::size_t bc = link_id_[b * n + c];
        if (ac == kNone || bc == kNone) continue;
        const double dab = dist(a, b), dac = dist(a, c), dbc = dist(b, c);
        const double v = std::max({dab - dac - dbc, dac - dab - dbc, dbc - dab - dac});
        const double contribution =
            v * v / (1.0 / weights(a, b) + 1.0 / weights(a, c) + 1.0 / weights(b, c));
        // NaN compares false and an Inf side gives an Inf or NaN
        // contribution: either way the triangle contributes nothing.
        if (!(v > 0.0) || !std::isfinite(contribution) || !(contribution > 0.0))
          continue;
        triangles_.push_back({contribution, {ab, ac, bc}});
      }
    }
  // Largest first, ties in enumeration order (link ids break them uniquely).
  std::sort(triangles_.begin(), triangles_.end(),
            [](const Triangle& x, const Triangle& y) {
              if (x.contribution != y.contribution)
                return x.contribution > y.contribution;
              return std::lexicographical_compare(x.link, x.link + 3, y.link,
                                                  y.link + 3);
            });
}

double TriangleStressBound::bound(std::span<const std::size_t> dropped) {
  if (triangles_.empty() || dropped.size() >= num_links_) return 0.0;
  used_.assign(num_links_, 0);
  for (std::size_t li : dropped) used_[li] = 1;
  double raw = 0.0;
  for (const Triangle& t : triangles_) {
    if (used_[t.link[0]] || used_[t.link[1]] || used_[t.link[2]]) continue;
    used_[t.link[0]] = used_[t.link[1]] = used_[t.link[2]] = 1;
    raw += t.contribution;
  }
  // Finite positive terms: the sum is finite or +Inf, never NaN.
  const double remaining = static_cast<double>(num_links_ - dropped.size());
  return std::sqrt(raw * (1.0 - 1e-9) / remaining);
}

std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  // Built on the same advance the search loops use in place, so the
  // enumeration order cannot drift apart.
  do {
    out.push_back(idx);
  } while (advance_subset(idx, n));
  return out;
}

OutlierResult localize_with_outlier_detection(const Matrix& dist, const Matrix& weights,
                                              const OutlierOptions& opts, uwp::Rng& rng,
                                              const std::vector<Vec2>* init) {
  OutlierWorkspace ws;
  OutlierResult out;
  localize_with_outlier_detection_into(out, dist, weights, opts, rng, ws, init);
  return out;
}

void localize_with_outlier_detection_into(OutlierResult& out, const Matrix& dist,
                                          const Matrix& weights,
                                          const OutlierOptions& opts, uwp::Rng& rng,
                                          OutlierWorkspace& ws,
                                          const std::vector<Vec2>* init) {
  const std::size_t n = dist.rows();
  std::vector<Edge>& links = ws.links;
  links.clear();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (weights(i, j) > 0.0) links.emplace_back(i, j);

  out.weights = weights;
  out.dropped_links.clear();
  out.outliers_suspected = false;

  SmacofOptions warm = opts.smacof;
  warm.random_restarts = 0;

  // Initial solve on all links. A caller-provided init (tracker-predicted
  // geometry) replaces the cold classical-MDS seed and skips the random
  // restarts — and with them every rng draw of the solve.
  SmacofResult& base = ws.base;
  if (init != nullptr)
    smacof_2d_into(base, dist, weights, warm, rng, init, ws.smacof_base);
  else
    smacof_2d_into(base, dist, weights, opts.smacof, rng, nullptr, ws.smacof_base);
  out.positions.assign(base.positions.begin(), base.positions.end());
  out.normalized_stress = base.normalized_stress;
  out.iterations = base.iterations;
  out.candidate_solves = 0;
  out.candidates_pruned = 0;
  if (base.normalized_stress < opts.stress_threshold) return;

  out.outliers_suspected = true;
  double e0 = base.normalized_stress;
  ws.bound.reset(dist, weights, links);
  // A candidate whose stress bound already fails the acceptance test cannot
  // be accepted, whatever its solve would return (see the header). The test
  // does not depend on the other candidates, so the same ones are skipped at
  // any search_threads.
  const auto hopeless = [&](const std::vector<std::size_t>& subset) {
    const double lb = ws.bound.bound(subset);
    return !(e0 - lb > opts.drop_ratio * e0);
  };
  std::vector<Vec2>& p0 = ws.p0;
  p0.assign(base.positions.begin(), base.positions.end());
  std::vector<std::size_t>& dropped_so_far = ws.dropped_so_far;  // links[] indices
  dropped_so_far.clear();

  // Candidate pool: all links while the subset enumeration stays cheap;
  // past max_suspect_links, only the worst-fitting links of the initial
  // solve are eligible (see OutlierOptions::max_suspect_links). Every
  // candidate solve is a warm start from the current best layout (no random
  // restarts, no rng draws) with the realizability check deferred until a
  // candidate actually improves — a warm solve is cheaper than the check.
  const bool pruned = links.size() > opts.max_suspect_links;
  std::vector<std::size_t>& pool = ws.pool;
  pool.resize(links.size());
  for (std::size_t li = 0; li < links.size(); ++li) pool[li] = li;
  if (pruned) {
    std::vector<double>& residual = ws.residual;
    residual.resize(links.size());
    for (std::size_t li = 0; li < links.size(); ++li) {
      const auto [a, b] = links[li];
      residual[li] = std::abs(distance(base.positions[a], base.positions[b]) -
                              dist(a, b));
    }
    std::sort(pool.begin(), pool.end(), [&](std::size_t x, std::size_t y) {
      if (residual[x] != residual[y]) return residual[x] > residual[y];
      return x < y;  // deterministic tie-break
    });
    pool.resize(opts.max_suspect_links);
    std::sort(pool.begin(), pool.end());  // keep enumeration order stable
  }
  // Warm candidate solves draw nothing from `rng`, so they can fan out over
  // the calling thread's pool; the reduction below walks candidates in
  // enumeration order, making the result bit-identical at any thread count.
  const std::size_t threads = ThreadPool::resolve_thread_count(opts.search_threads);
  SearchPool& sp = search_pool(threads);
  std::vector<std::size_t>& flat = ws.flat_subsets;
  std::vector<std::size_t>& subset = ws.subset;
  std::vector<Edge>& remaining = ws.remaining;
  std::vector<Vec2>& p_min = ws.p_min;

  for (int ndrop = 1; ndrop <= opts.max_outliers; ++ndrop) {
    double e_min = e0;
    p_min.assign(p0.begin(), p0.end());
    std::vector<std::size_t>& best_subset = ws.best_subset;
    best_subset.clear();

    const std::size_t k = static_cast<std::size_t>(ndrop);
    if (k > pool.size()) continue;
    std::vector<std::size_t>& slots = ws.subset_slots;
    slots.resize(k);
    for (std::size_t i = 0; i < k; ++i) slots[i] = i;

    // 1. This level's candidate subsets that the bound does not rule out
    // (link indices, flattened k at a time, in enumeration order).
    flat.clear();
    bool more = true;
    while (more) {
      subset.resize(k);
      for (std::size_t i = 0; i < k; ++i) subset[i] = pool[slots[i]];
      more = advance_subset(slots, pool.size());
      if (hopeless(subset)) {
        ++out.candidates_pruned;
        continue;
      }
      flat.insert(flat.end(), subset.begin(), subset.end());
    }
    const std::size_t m = flat.size() / k;

    // 2. Solve each one with its subset removed, warm from the best layout.
    ws.cand_stress.resize(m);
    ws.cand_iters.resize(m);
    const auto solve = [&](SearchLane& lane, std::size_t ci) {
      lane.w = weights;
      for (std::size_t t = 0; t < k; ++t) {
        const Edge& e = links[flat[ci * k + t]];
        lane.w(e.first, e.second) = 0.0;
        lane.w(e.second, e.first) = 0.0;
      }
      smacof_2d_into(lane.result, dist, lane.w, warm, lane.rng, &p0, lane.smacof);
      ws.cand_stress[ci] = lane.result.normalized_stress;
      ws.cand_iters[ci] = lane.result.iterations;
    };
    if (threads == 1) {
      for (std::size_t ci = 0; ci < m; ++ci) solve(sp.lanes[0], ci);
    } else {
      sp.pool->parallel_for_lanes(
          m, [&](std::size_t lane, std::size_t ci) { solve(sp.lanes[lane], ci); });
    }
    // Integer sum in enumeration order: thread-count invariant.
    for (std::size_t ci = 0; ci < m; ++ci) out.iterations += ws.cand_iters[ci];
    out.candidate_solves += static_cast<std::int64_t>(m);

    // 3. Reduce in enumeration order: the lowest significant stress wins, if
    // the remaining graph is still uniquely realizable — otherwise the
    // "improvement" is just the looser problem. Checking is pricier than a
    // warm-started solve, so it waits for candidates that actually improve.
    std::size_t best_ci = m;
    for (std::size_t ci = 0; ci < m; ++ci) {
      const double ns = ws.cand_stress[ci];
      const bool significant = e0 - ns > opts.drop_ratio * e0;
      if (!significant || ns >= e_min) continue;
      const std::size_t* cand = &flat[ci * k];
      remaining.clear();
      for (std::size_t li = 0; li < links.size(); ++li)
        if (std::find(cand, cand + k, li) == cand + k) remaining.push_back(links[li]);
      if (!is_uniquely_realizable_2d(n, remaining)) continue;
      e_min = ns;
      best_ci = ci;
    }
    if (best_ci != m) {
      best_subset.assign(&flat[best_ci * k], &flat[best_ci * k] + k);
      // Re-solve the winner to recover its layout; the warm solve is
      // deterministic, so this reproduces its result exactly (and its
      // iterations are already counted).
      solve(sp.lanes[0], best_ci);
      p_min.assign(sp.lanes[0].result.positions.begin(),
                   sp.lanes[0].result.positions.end());
    }

    if (e_min < opts.stress_threshold) {
      out.positions.assign(p_min.begin(), p_min.end());
      out.normalized_stress = e_min;
      for (std::size_t li : best_subset) {
        out.dropped_links.push_back(links[li]);
        out.weights(links[li].first, links[li].second) = 0.0;
        out.weights(links[li].second, links[li].first) = 0.0;
      }
      return;
    }
    // Keep the best found so far and try dropping a larger subset.
    if (!best_subset.empty()) {
      e0 = e_min;
      p0.assign(p_min.begin(), p_min.end());
      dropped_so_far = best_subset;
    }
  }

  out.positions.assign(p0.begin(), p0.end());
  out.normalized_stress = e0;
  for (std::size_t li : dropped_so_far) {
    out.dropped_links.push_back(links[li]);
    out.weights(links[li].first, links[li].second) = 0.0;
    out.weights(links[li].second, links[li].first) = 0.0;
  }
}

}  // namespace uwp::core
