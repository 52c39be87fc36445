//! Exact k-stroll: branch-and-bound depth-first search per target, and an
//! all-targets relaxation for `k = 4` and `k = 5`.

use crate::{Metric, Stroll};
use sof_graph::Cost;

/// Upper bound on the DFS search-space estimate accepted by
/// [`estimated_work`]-guarded callers (the `Auto` solver).
pub const AUTO_EXACT_WORK_LIMIT: f64 = 5e6;

/// Estimates the unpruned DFS node count for an instance.
pub fn estimated_work(n: usize, k: usize) -> f64 {
    if k < 2 {
        return 1.0;
    }
    let interior = k - 2;
    let mut work = 1.0f64;
    for i in 0..interior {
        work *= (n.saturating_sub(2 + i)) as f64;
    }
    work
}

/// Finds the **minimum-cost** simple path from `source` to `target` visiting
/// exactly `k` distinct nodes, by exhaustive search with cost pruning.
///
/// Returns `None` when no such path exists (`k > n`, or `k != 1` with
/// `source == target`, or `k < 2` with distinct endpoints).
///
/// # Examples
///
/// ```
/// use sof_kstroll::{exact_stroll, DenseMetric};
/// use sof_graph::Cost;
///
/// let m = DenseMetric::from_fn(4, |i, j| Cost::new((i as f64 - j as f64).abs()));
/// let s = exact_stroll(&m, 0, 3, 4).unwrap();
/// assert_eq!(s.nodes, vec![0, 1, 2, 3]);
/// assert_eq!(s.cost, Cost::new(3.0));
/// ```
pub fn exact_stroll<M: Metric + ?Sized>(
    metric: &M,
    source: usize,
    target: usize,
    k: usize,
) -> Option<Stroll> {
    let mut ws = ExactWorkspace::new(metric.len());
    exact_stroll_with(metric, source, target, k, &mut ws)
}

/// Exact k-strolls from `source` to **every** target.
///
/// Entry `t` equals `exact_stroll(metric, source, t, k)` bit for bit: the
/// same node sequence and the same cost. Both return the exhaustive
/// search's *first* floating-point minimum, where paths are ordered by
/// the nearest-first DFS order: interior node `i + 1` ranked by
/// `(cost(v_i, ·), index)` from interior node `i`, the source first.
///
/// * **`k = 4` and `k = 5`: one relaxation per source.** For `k = 4`
///   (`s, a, b, t`) every `b` keeps the two best `a`, ranked by
///   `(cost(s, a) + cost(a, b), cost(s, a), a)`, which is O(n²); each
///   target then takes the best over `b` of the first kept `a ≠ t`, plus
///   `cost(b, t)`, which is O(n²) again. `k = 5` runs the same relaxation
///   once per first interior node `p`, visiting the `p` nearest-first and
///   keeping a target's incumbent unless a later `p` is strictly cheaper:
///   O(n³). Sums keep the DFS association, `((c(s,a) + c(a,b)) + c(b,t))`,
///   and ties in the final `f64` sum go to the nearest-first key
///   `((c(s,a), a), (c(a,b), b))`. The last addition can round two
///   different partial sums to one total; when the next-ranked `a` could
///   tie that way, the pair `(b, t)` rescans every `a`.
/// * **Other `k`: one branch-and-bound search per target** on a shared
///   workspace (sorted candidate rows plus DFS buffers). At `k ≥ 6` a
///   relaxation would cost O(n^(k−2)) per source with no pruning.
pub fn exact_all_targets<M: Metric + ?Sized>(
    metric: &M,
    source: usize,
    k: usize,
) -> Vec<Option<Stroll>> {
    let n = metric.len();
    if source < n && (k == 4 || k == 5) && k <= n {
        return relax_all_targets(metric, source, k);
    }
    let mut out: Vec<Option<Stroll>> = vec![None; n];
    if source >= n {
        return out;
    }
    let mut ws = ExactWorkspace::new(n);
    for (t, slot) in out.iter_mut().enumerate() {
        *slot = exact_stroll_with(metric, source, t, k, &mut ws);
    }
    out
}

/// Marks an empty slot in the relaxation's index arrays.
const NONE: usize = usize::MAX;

/// The per-target search prunes a branch only when its lower bound reaches
/// `best × PRUNE_MARGIN`. The bound and every leaf are `f64` sums of at
/// most `k` non-negative terms, added in different orders, so each may
/// round up to `k·ε/2` away from its exact value: a bound that is
/// admissible in exact arithmetic can still exceed a leaf that rounds
/// below the incumbent. `64·ε` covers that for every `k < 60`.
const PRUNE_MARGIN: f64 = 1.0 + 64.0 * f64::EPSILON;

/// Row `i` of the metric: borrowed when the metric exposes rows, copied
/// into `buf` through [`Metric::cost`] otherwise (capped lazy metrics).
fn row_of<'a, M: Metric + ?Sized>(metric: &'a M, i: usize, buf: &'a mut Vec<Cost>) -> &'a [Cost] {
    match metric.row(i) {
        Some(row) => row,
        None => {
            buf.clear();
            buf.extend((0..metric.len()).map(|j| metric.cost(i, j)));
            buf
        }
    }
}

/// All nodes stably sorted by `cost(v, ·)`: the order in which the DFS
/// visits the successors of `v`.
fn nearest_first<M: Metric + ?Sized>(metric: &M, v: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..metric.len()).collect();
    match metric.row(v) {
        Some(costs) => order.sort_by_key(|&w| costs[w]),
        None => order.sort_by_key(|&w| metric.cost(v, w)),
    }
    order
}

/// The k = 4 / k = 5 all-targets relaxation (see [`exact_all_targets`]).
fn relax_all_targets<M: Metric + ?Sized>(
    metric: &M,
    source: usize,
    k: usize,
) -> Vec<Option<Stroll>> {
    let n = metric.len();
    let mut relax = Relaxation::new(n);
    let from_source = nearest_first(metric, source);
    // The winning prefix node `p` (k = 5), interior pair and cost per target.
    let mut best_p = vec![NONE; n];
    let mut best_a = vec![NONE; n];
    let mut best_b = vec![NONE; n];
    let mut best_cost = vec![Cost::INFINITY; n];
    if k == 4 {
        relax.run(metric, source, &from_source, &[source], Cost::ZERO);
        best_a.copy_from_slice(&relax.cur_a);
        best_b.copy_from_slice(&relax.cur_b);
    } else {
        for &p in from_source.iter().filter(|&&p| p != source) {
            let from_p = nearest_first(metric, p);
            relax.run(metric, p, &from_p, &[source, p], metric.cost(source, p));
            for t in 0..n {
                // `p` is visited nearest-first, so an equal cost found
                // under a later `p` loses the tie.
                if relax.cur_a[t] != NONE && (best_a[t] == NONE || relax.cur_cost[t] < best_cost[t])
                {
                    best_p[t] = p;
                    best_a[t] = relax.cur_a[t];
                    best_b[t] = relax.cur_b[t];
                    best_cost[t] = relax.cur_cost[t];
                }
            }
        }
    }
    (0..n)
        .map(|t| {
            (best_a[t] != NONE).then(|| {
                let mut nodes = Vec::with_capacity(k);
                nodes.push(source);
                if best_p[t] != NONE {
                    nodes.push(best_p[t]);
                }
                nodes.extend([best_a[t], best_b[t], t]);
                Stroll::from_nodes(metric, nodes)
            })
        })
        .collect()
}

/// Buffers for one two-interior-hop relaxation: a fixed prefix ending at
/// `last`, then `a`, `b` and the target. Reused across prefixes.
struct Relaxation {
    /// `y[a]` = prefix cost + `cost(last, a)`.
    y: Vec<Cost>,
    /// `rank[a]` = position of `a` in `last`'s nearest-first order.
    rank: Vec<usize>,
    excluded: Vec<bool>,
    /// Per `b`: the two best `a` by `(y[a] + cost(a, b), rank[a])` with
    /// their sums `z1 <= z2`, and the two smallest sums strictly above
    /// `z1` (`v2 < v3`), which bound every other `a`.
    a1: Vec<usize>,
    a2: Vec<usize>,
    z1: Vec<Cost>,
    z2: Vec<Cost>,
    v2: Vec<Cost>,
    v3: Vec<Cost>,
    /// Per target: the best `(a, b)` of this relaxation and its cost.
    cur_a: Vec<usize>,
    cur_b: Vec<usize>,
    cur_cost: Vec<Cost>,
}

impl Relaxation {
    fn new(n: usize) -> Relaxation {
        Relaxation {
            y: vec![Cost::INFINITY; n],
            rank: vec![0; n],
            excluded: vec![false; n],
            a1: vec![NONE; n],
            a2: vec![NONE; n],
            z1: vec![Cost::INFINITY; n],
            z2: vec![Cost::INFINITY; n],
            v2: vec![Cost::INFINITY; n],
            v3: vec![Cost::INFINITY; n],
            cur_a: vec![NONE; n],
            cur_b: vec![NONE; n],
            cur_cost: vec![Cost::INFINITY; n],
        }
    }

    /// Finds, for every target `t` outside `prefix`, the first minimum of
    /// `((offset + cost(last, a)) + cost(a, b)) + cost(b, t)` over distinct
    /// `a, b` outside `prefix ∪ {t}`, in nearest-first order (`order` is
    /// `last`'s). Results land in `cur_*`.
    fn run<M: Metric + ?Sized>(
        &mut self,
        metric: &M,
        last: usize,
        order: &[usize],
        prefix: &[usize],
        offset: Cost,
    ) {
        let n = metric.len();
        self.excluded.fill(false);
        for &v in prefix {
            self.excluded[v] = true;
        }
        // Row copies for metrics without borrowable rows.
        let mut buf = Vec::new();
        let last_row = row_of(metric, last, &mut buf);
        for (i, &a) in order.iter().enumerate() {
            self.rank[a] = i;
            self.y[a] = offset + last_row[a];
        }
        self.a1.fill(NONE);
        self.a2.fill(NONE);
        for v in [&mut self.z1, &mut self.z2, &mut self.v2, &mut self.v3] {
            v.fill(Cost::INFINITY);
        }
        // Pass 1, O(n²): `a` in nearest-first order, so a strict `<` keeps
        // the nearer `a` on equal sums.
        for &a in order.iter().filter(|&&a| !self.excluded[a]) {
            let ya = self.y[a];
            let row = row_of(metric, a, &mut buf);
            for (b, &hop) in row.iter().enumerate() {
                let z = ya + hop;
                // `z2 <= v3` whenever `z2` is finite: most pairs stop here.
                if z >= self.v3[b] || b == a {
                    continue;
                }
                let z1 = self.z1[b];
                if z < z1 {
                    self.v3[b] = self.v2[b];
                    self.v2[b] = z1;
                } else if z > z1 && z < self.v2[b] {
                    self.v3[b] = self.v2[b];
                    self.v2[b] = z;
                } else if z > self.v2[b] {
                    self.v3[b] = z;
                }
                if z < z1 {
                    self.z2[b] = z1;
                    self.a2[b] = self.a1[b];
                    self.z1[b] = z;
                    self.a1[b] = a;
                } else if z < self.z2[b] {
                    self.z2[b] = z;
                    self.a2[b] = a;
                }
            }
        }
        // Pass 2, O(n²): close every `b` into every target.
        self.cur_a.fill(NONE);
        self.cur_b.fill(NONE);
        self.cur_cost.fill(Cost::INFINITY);
        for b in (0..n).filter(|&b| !self.excluded[b]) {
            let row = row_of(metric, b, &mut buf);
            for (t, &close) in row.iter().enumerate() {
                if t == b || self.excluded[t] {
                    continue;
                }
                let (mut a, z) = if self.a1[b] != t {
                    (self.a1[b], self.z1[b])
                } else {
                    (self.a2[b], self.z2[b])
                };
                let mut cost = z + close;
                if cost > self.cur_cost[t] {
                    continue;
                }
                if !cost.is_finite() {
                    // Every `a` totals infinity here: the nearest one wins.
                    a = *order
                        .iter()
                        .find(|&&a| !self.excluded[a] && a != b && a != t)
                        .expect("k <= n leaves an interior node");
                    cost = Cost::INFINITY;
                } else {
                    // The smallest sum above `z` bounds every other `a`;
                    // if it rounds to the same total, rescan.
                    let next = if z == self.z1[b] {
                        self.v2[b]
                    } else {
                        self.v3[b]
                    };
                    if next + close <= cost {
                        (a, cost) = self.rescan(metric, order, b, t, close);
                    }
                }
                if self.beats(metric, t, cost, a, b) {
                    self.cur_a[t] = a;
                    self.cur_b[t] = b;
                    self.cur_cost[t] = cost;
                }
            }
        }
    }

    /// The first minimum over every `a` for one `(b, t)` pair.
    fn rescan<M: Metric + ?Sized>(
        &self,
        metric: &M,
        order: &[usize],
        b: usize,
        t: usize,
        close: Cost,
    ) -> (usize, Cost) {
        let mut best = (NONE, Cost::INFINITY);
        for &a in order {
            if self.excluded[a] || a == b || a == t {
                continue;
            }
            let cost = (self.y[a] + metric.cost(a, b)) + close;
            if best.0 == NONE || cost < best.1 {
                best = (a, cost);
            }
        }
        best
    }

    /// Whether `(a, b)` at `cost` beats target `t`'s incumbent: cheaper,
    /// or as cheap and first in nearest-first order.
    fn beats<M: Metric + ?Sized>(
        &self,
        metric: &M,
        t: usize,
        cost: Cost,
        a: usize,
        b: usize,
    ) -> bool {
        let (ca, cb) = (self.cur_a[t], self.cur_b[t]);
        if ca == NONE || cost < self.cur_cost[t] {
            return true;
        }
        if cost > self.cur_cost[t] {
            return false;
        }
        if a != ca {
            return self.rank[a] < self.rank[ca];
        }
        // `b` runs upward, so on equal hops the earlier `cb` stays.
        metric.cost(a, b) < metric.cost(a, cb)
    }
}

/// Reusable state shared by every target of one `(metric, source)` search:
/// per-node candidate orderings plus the DFS scratch buffers.
struct ExactWorkspace {
    /// `rows[v]` = all nodes stably sorted by `cost(v, ·)` ascending
    /// (computed lazily, once per `v`). Skipping `used` nodes while
    /// scanning such a row reproduces the nearest-first order the search
    /// previously obtained by filtering and re-sorting per DFS node.
    rows: Vec<Vec<usize>>,
    used: Vec<bool>,
    path: Vec<usize>,
    /// `cheap[r]` = sum of the `r` globally smallest hop costs — an
    /// admissible lower bound on any `r` distinct remaining hops. Built
    /// once per workspace for `k >= 4` searches (empty otherwise); any
    /// admissible bound prunes only branches that cannot *strictly* beat
    /// the incumbent, so strengthening it never changes which stroll is
    /// returned, tie-breaks included.
    cheap: Vec<Cost>,
    /// Cheapest incoming hop per node: `min_in[t]` bounds the closing hop
    /// into target `t`. Built together with `cheap`.
    min_in: Vec<Cost>,
}

impl ExactWorkspace {
    fn new(n: usize) -> ExactWorkspace {
        ExactWorkspace {
            rows: vec![Vec::new(); n],
            used: vec![false; n],
            path: Vec::with_capacity(8),
            cheap: Vec::new(),
            min_in: Vec::new(),
        }
    }

    fn ensure_row<M: Metric + ?Sized>(&mut self, metric: &M, v: usize) {
        if self.rows[v].is_empty() {
            self.rows[v] = nearest_first(metric, v);
        }
    }

    /// Builds the pruning tables (`cheap` prefix sums up to `k - 1` hops
    /// plus per-node cheapest incoming hop) from one O(n²) scan. Only
    /// worthwhile when the DFS has at least two interior levels to prune
    /// (`k >= 4`); the scan amortizes over the `n × n^(k-2)` search nodes
    /// it guards.
    fn ensure_bounds<M: Metric + ?Sized>(&mut self, metric: &M, k: usize) {
        if self.cheap.len() >= k {
            return;
        }
        let n = metric.len();
        let mut all: Vec<Cost> = Vec::with_capacity(n * n.saturating_sub(1));
        self.min_in.clear();
        self.min_in.resize(n, Cost::INFINITY);
        for i in 0..n {
            let row = metric.row(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let c = match row {
                    Some(r) => r[j],
                    None => metric.cost(i, j),
                };
                all.push(c);
                if c < self.min_in[j] {
                    self.min_in[j] = c;
                }
            }
        }
        all.sort_unstable();
        self.cheap.clear();
        self.cheap.push(Cost::ZERO);
        for r in 1..k {
            let prev = self.cheap[r - 1];
            self.cheap.push(match all.get(r - 1) {
                Some(&c) => prev + c,
                None => Cost::INFINITY,
            });
        }
    }
}

fn exact_stroll_with<M: Metric + ?Sized>(
    metric: &M,
    source: usize,
    target: usize,
    k: usize,
    ws: &mut ExactWorkspace,
) -> Option<Stroll> {
    let n = metric.len();
    if source >= n || target >= n || k > n {
        return None;
    }
    if source == target {
        return (k == 1).then(|| Stroll::from_nodes(metric, vec![source]));
    }
    if k < 2 {
        return None;
    }
    if k == 2 {
        return Some(Stroll::from_nodes(metric, vec![source, target]));
    }

    // Admissible per-hop lower bound supplied by the metric (the cheapest
    // off-diagonal hop for dense instances, zero for lazy ones).
    let min_edge = metric.hop_lower_bound();

    // With two or more interior levels the search is deep enough that the
    // stronger distinct-hops + closing-hop tables pay for their O(n²)
    // build; below that the flat `min_edge` bound stays.
    if k >= 4 {
        ws.ensure_bounds(metric, k);
    }

    // Borrow every row once up front: the DFS below visits up to millions
    // of nodes, and fetching the row inside the recursion (one virtual call
    // plus a once-cell check per node) is measurably slower than indexing
    // this table. Metrics without borrowable rows yield `None` entries and
    // keep the pointwise fallback.
    let rows: Vec<Option<&[Cost]>> = (0..n).map(|v| metric.row(v)).collect();

    let interior = k - 2;
    ws.used[source] = true;
    ws.used[target] = true;
    ws.path.clear();
    ws.path.push(source);
    let mut best: Option<(Cost, Vec<usize>)> = None;

    #[allow(clippy::too_many_arguments)] // recursion state threaded explicitly
    fn dfs<M: Metric + ?Sized>(
        metric: &M,
        rows: &[Option<&[Cost]>],
        ws: &mut ExactWorkspace,
        target: usize,
        remaining: usize,
        min_edge: Cost,
        cur_cost: Cost,
        best: &mut Option<(Cost, Vec<usize>)>,
    ) {
        let cur = *ws.path.last().expect("path never empty");
        // Rows were borrowed once before the search started; dense and
        // pinned-lazy metrics make every hop read below a plain indexed
        // load, capped metrics fall back to the pointwise call.
        let row = rows[cur];
        let hop = |w: usize| match row {
            Some(r) => r[w],
            None => metric.cost(cur, w),
        };
        if remaining == 0 {
            let total = cur_cost + hop(target);
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                let mut nodes = ws.path.clone();
                nodes.push(target);
                *best = Some((total, nodes));
            }
            return;
        }
        // Lower bound on the remaining hops. With the pruning tables
        // built: the `remaining` interior hops are distinct, so they sum
        // to at least `cheap[remaining]`, and the closing hop into the
        // target costs at least its cheapest incoming edge — take the
        // best of that and `cheap[remaining + 1]` (all hops counted as
        // distinct). Without them: every hop costs at least `min_edge`.
        // Both are admissible, and the incumbent is only ever replaced on
        // a *strict* improvement, so the choice affects how many branches
        // are explored but never which stroll is returned. The cut waits
        // for the bound to clear `best` by `PRUNE_MARGIN`: admissible in
        // exact arithmetic is not enough once both sums are rounded.
        if let Some((b, _)) = best {
            let bound = if ws.cheap.is_empty() {
                cur_cost + min_edge * (remaining as f64 + 1.0)
            } else {
                let with_close = ws.cheap[remaining] + ws.min_in[target];
                cur_cost + with_close.max(ws.cheap[remaining + 1])
            };
            if bound.value() >= b.value() * PRUNE_MARGIN {
                return;
            }
        }
        // Visit nearest-first for stronger pruning, scanning the memoized
        // stable ordering and skipping nodes already on the path (plus the
        // endpoints, marked used for the whole search).
        ws.ensure_row(metric, cur);
        for i in 0..ws.rows[cur].len() {
            let v = ws.rows[cur][i];
            if ws.used[v] {
                continue;
            }
            ws.used[v] = true;
            ws.path.push(v);
            dfs(
                metric,
                rows,
                ws,
                target,
                remaining - 1,
                min_edge,
                cur_cost + hop(v),
                best,
            );
            ws.path.pop();
            ws.used[v] = false;
        }
    }

    dfs(
        metric,
        &rows,
        ws,
        target,
        interior,
        min_edge,
        Cost::ZERO,
        &mut best,
    );
    ws.used[source] = false;
    ws.used[target] = false;
    best.map(|(_, nodes)| Stroll::from_nodes(metric, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMetric;
    use sof_graph::Rng64;

    fn line(n: usize) -> DenseMetric {
        DenseMetric::from_fn(n, |i, j| Cost::new((i as f64 - j as f64).abs()))
    }

    #[test]
    fn shortest_with_all_nodes_is_monotone_line() {
        let m = line(5);
        let s = exact_stroll(&m, 0, 4, 5).unwrap();
        assert_eq!(s.nodes, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.cost, Cost::new(4.0));
    }

    #[test]
    fn k_two_is_direct_edge() {
        let m = line(5);
        let s = exact_stroll(&m, 1, 3, 2).unwrap();
        assert_eq!(s.nodes, vec![1, 3]);
        assert_eq!(s.cost, Cost::new(2.0));
    }

    #[test]
    fn detour_forced_by_k() {
        // Visiting 4 distinct nodes on the line from 0 to 1 forces a detour.
        let m = line(4);
        let s = exact_stroll(&m, 0, 1, 4).unwrap();
        s.validate(&m, 0, 1, 4).unwrap();
        // Best: 0,3,2,1 -> 3 + 1 + 1 = 5 or 0,2,3,1: 2+1+2=5.
        assert_eq!(s.cost, Cost::new(5.0));
    }

    #[test]
    fn infeasible_cases() {
        let m = line(3);
        assert!(exact_stroll(&m, 0, 2, 4).is_none()); // k > n
        assert!(exact_stroll(&m, 0, 0, 2).is_none()); // s == t, k != 1
        assert!(exact_stroll(&m, 0, 2, 1).is_none()); // k < 2, s != t
        assert_eq!(exact_stroll(&m, 1, 1, 1).unwrap().nodes, vec![1]);
    }

    #[test]
    fn work_estimate_grows() {
        assert_eq!(estimated_work(10, 2), 1.0);
        assert_eq!(estimated_work(10, 3), 8.0);
        assert_eq!(estimated_work(10, 4), 8.0 * 7.0);
    }

    #[test]
    fn all_targets_bit_identical_to_per_target_calls() {
        // Unit-ish integer costs maximize tie-break stress: the shared
        // workspace must reproduce not just the optimal cost but the exact
        // node sequence the standalone search picks among equal optima.
        let m = DenseMetric::symmetric_from_fn(12, |i, j| {
            Cost::new(1.0 + ((i * 7 + j * 3) % 4) as f64)
        });
        for k in 1..=5 {
            let all = exact_all_targets(&m, 2, k);
            for (t, entry) in all.iter().enumerate() {
                let single = exact_stroll(&m, 2, t, k);
                assert_eq!(
                    entry.as_ref().map(|s| (&s.nodes, s.cost)),
                    single.as_ref().map(|s| (&s.nodes, s.cost)),
                    "k={k} t={t}"
                );
            }
        }
    }

    /// Every simple `k`-node path from `source`, enumerated in the
    /// nearest-first order (successors ranked by `(cost, index)`, built
    /// here independently of the search), keeping each endpoint's first
    /// strict minimum. Costs accumulate hop by hop from zero, as the DFS
    /// adds them.
    fn oracle(m: &DenseMetric, source: usize, k: usize) -> Vec<Option<Stroll>> {
        fn walk(
            m: &DenseMetric,
            orders: &[Vec<usize>],
            path: &mut Vec<usize>,
            cost: Cost,
            k: usize,
            best: &mut [Option<(Cost, Vec<usize>)>],
        ) {
            let last = *path.last().unwrap();
            if path.len() == k {
                if best[last].as_ref().is_none_or(|(b, _)| cost < *b) {
                    best[last] = Some((cost, path.clone()));
                }
                return;
            }
            for &v in &orders[last] {
                if !path.contains(&v) {
                    path.push(v);
                    walk(m, orders, path, cost + m.cost(last, v), k, best);
                    path.pop();
                }
            }
        }
        let n = m.len();
        let mut best = vec![None; n];
        if k >= 1 && k <= n {
            let orders: Vec<Vec<usize>> = (0..n)
                .map(|v| {
                    let mut row: Vec<usize> = (0..n).collect();
                    row.sort_by(|&x, &y| m.cost(v, x).cmp(&m.cost(v, y)).then(x.cmp(&y)));
                    row
                })
                .collect();
            walk(m, &orders, &mut vec![source], Cost::ZERO, k, &mut best);
        }
        best.into_iter()
            .map(|b| b.map(|(_, nodes)| Stroll::from_nodes(m, nodes)))
            .collect()
    }

    /// Random instances whose sums round: uniform reals, tenths (many
    /// one-ulp near ties), small integers with zero-cost hops (exact ties)
    /// and integers with unreachable pairs. Asymmetric except the tenths.
    fn oracle_metric(family: usize, n: usize, rng: &mut Rng64) -> DenseMetric {
        match family {
            0 => DenseMetric::from_fn(n, |_, _| Cost::new(rng.range_f64(0.0, 10.0))),
            1 => {
                DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((1 + rng.below(9)) as f64 * 0.1))
            }
            2 => DenseMetric::from_fn(n, |_, _| Cost::new(rng.below(3) as f64)),
            _ => DenseMetric::from_fn(n, |_, _| {
                if rng.below(4) == 0 {
                    Cost::INFINITY
                } else {
                    Cost::new((1 + rng.below(4)) as f64)
                }
            }),
        }
    }

    #[test]
    fn all_targets_and_per_target_match_exhaustive_oracle() {
        // Full size in release; the debug test profile runs a reduced one.
        let (max_n, max_k, draws) = if cfg!(debug_assertions) {
            (10, 7, 2)
        } else {
            (14, 7, 8)
        };
        let bits = |s: &Option<Stroll>| {
            s.as_ref()
                .map(|s| (s.nodes.clone(), s.cost.value().to_bits()))
        };
        let mut rng = Rng64::seed_from(0x5eed);
        let mut checked = 0usize;
        for n in 3..=max_n {
            for family in (0..4).flat_map(|f| std::iter::repeat_n(f, draws)) {
                let m = oracle_metric(family, n, &mut rng);
                for source in [0, n / 2] {
                    for k in 1..=max_k {
                        let expect = oracle(&m, source, k);
                        let all = exact_all_targets(&m, source, k);
                        for t in 0..n {
                            let single = exact_stroll(&m, source, t, k);
                            assert_eq!(
                                bits(&all[t]),
                                bits(&expect[t]),
                                "all n={n} f={family} s={source} k={k} t={t}"
                            );
                            assert_eq!(
                                bits(&single),
                                bits(&expect[t]),
                                "single n={n} f={family} s={source} k={k} t={t}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        eprintln!("oracle: {checked} (source, target, k) triples matched");
    }

    #[test]
    fn min_hop_is_memoized_correctly() {
        let m = DenseMetric::from_fn(5, |i, j| Cost::new((i * 5 + j) as f64 + 1.0));
        let mut expect = Cost::INFINITY;
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    expect = expect.min(m.cost(i, j));
                }
            }
        }
        assert_eq!(m.min_hop(), expect);
    }
}
