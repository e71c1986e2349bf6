//! Sparse linear algebra for the MNA solve path: a compressed-sparse-column
//! pattern fixed per [`crate::netlist::Netlist`], and an LU factorization
//! that separates the expensive, pattern-discovering *first* factorization
//! from cheap numeric *refactorizations* that reuse the pivot order and the
//! fill pattern.
//!
//! Crossbar-slice MNA matrices are > 90 % zeros, and the Newton/transient
//! loops solve the *same structure* thousands of times with only the MOSFET
//! entries changing. The first factorization therefore runs left-looking
//! Gilbert–Peierls LU with threshold partial pivoting (pattern + pivot
//! sequence discovered once); every subsequent solve replays the stored
//! elimination sequence on the new values in O(factor-flops) — no pivot
//! search, no pattern work, no allocation. A stability monitor falls back to
//! a fresh pivoting factorization when the cached pivot sequence degrades.
//!
//! Below [`DENSE_SPARSE_CROSSOVER`] unknowns the dense kernel in
//! [`crate::linear`] wins (less indexing overhead); the automatic solver
//! selection in [`crate::dc`] uses that threshold.

use crate::error::CircuitError;

/// System dimension below which the dense LU path is used by the automatic
/// solver selection. Determined empirically with
/// `cargo bench --bench circuit_engine` (`lu/*` group): around this size the
/// dense factorization's tight loops beat the sparse kernel's indirect
/// indexing. Tune here if a different host disagrees — correctness is
/// unaffected either way.
pub const DENSE_SPARSE_CROSSOVER: usize = 20;

/// Threshold-pivoting preference: the structural diagonal is kept as the
/// pivot when it is within this factor of the column maximum, which keeps
/// fill low and the pivot sequence stable across refactorizations.
const PIVOT_TOL: f64 = 0.1;

/// A refactorization pivot must stay within this factor of its column
/// maximum, or the cached pivot sequence is declared stale.
const REFACTOR_TOL: f64 = 1.0e-3;

/// Magnitude below which a pivot is singular to working precision (matches
/// the dense kernel's threshold).
const PIVOT_FLOOR: f64 = 1.0e-300;

/// An immutable compressed-sparse-column nonzero pattern.
///
/// Built once per netlist from the set of structurally-nonzero positions;
/// value arrays are stored separately (see [`crate::assemble::Assembler`])
/// so one pattern can serve many matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl CscPattern {
    /// Builds a pattern from `(row, col)` positions (duplicates are fine).
    ///
    /// # Panics
    ///
    /// Panics if any position is out of `n × n` range.
    pub fn from_positions(n: usize, positions: &[(usize, usize)]) -> Self {
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in positions {
            assert!(r < n && c < n, "position ({r}, {c}) outside {n}×{n}");
            cols[c].push(r);
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for col in &mut cols {
            col.sort_unstable();
            col.dedup();
            row_idx.extend_from_slice(col);
            col_ptr.push(row_idx.len());
        }
        CscPattern {
            n,
            col_ptr,
            row_idx,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The value-array slot of position `(row, col)`, if structural.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let range = self.col_ptr[col]..self.col_ptr[col + 1];
        self.row_idx[range.clone()]
            .binary_search(&row)
            .ok()
            .map(|off| range.start + off)
    }

    /// Slot range of one column.
    #[inline]
    pub fn col_range(&self, col: usize) -> std::ops::Range<usize> {
        self.col_ptr[col]..self.col_ptr[col + 1]
    }

    /// Row indices of one column.
    #[inline]
    pub fn col_rows(&self, col: usize) -> &[usize] {
        &self.row_idx[self.col_range(col)]
    }

    /// Dense `y = A·x` with the given value array (used for residuals).
    ///
    /// # Panics
    ///
    /// Debug-asserts matching dimensions.
    pub fn mul_vec_into(&self, values: &[f64], x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(values.len(), self.nnz());
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (col, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for k in self.col_range(col) {
                y[self.row_idx[k]] += values[k] * xj;
            }
        }
    }

    /// Expands `(pattern, values)` into a dense [`crate::linear::Matrix`]
    /// (oracle/test helper).
    pub fn to_dense(&self, values: &[f64]) -> crate::linear::Matrix {
        let mut m = crate::linear::Matrix::zeros(self.n);
        for col in 0..self.n {
            for k in self.col_range(col) {
                m.add(self.row_idx[k], col, values[k]);
            }
        }
        m
    }
}

/// Sentinel for "row not yet pivotal" during factorization.
const UNPIVOTED: usize = usize::MAX;

/// Reverse Cuthill–McKee ordering of the symmetrized pattern `A + Aᵀ`:
/// a bandwidth-reducing permutation that keeps LU fill low for the
/// wire-ladder-plus-branch-row structure of MNA matrices (measured ≈ 2–3×
/// fewer factor nonzeros than natural order on crossbar slices).
fn rcm_order(pattern: &CscPattern) -> Vec<usize> {
    let n = pattern.dim();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for col in 0..n {
        for &row in pattern.col_rows(col) {
            if row != col {
                adj[row].push(col);
                adj[col].push(row);
            }
        }
    }
    for l in adj.iter_mut() {
        l.sort_unstable();
        l.dedup();
    }
    let deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Components are entered from their minimum-degree node (a cheap
    // stand-in for a pseudo-peripheral search; fine at these sizes).
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_unstable_by_key(|&i| deg[i]);
    let mut queue = std::collections::VecDeque::new();
    let mut neighbours = Vec::new();
    for &start in &seeds {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            neighbours.clear();
            neighbours.extend(adj[u].iter().copied().filter(|&v| !visited[v]));
            neighbours.sort_unstable_by_key(|&v| deg[v]);
            for &v in &neighbours {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Sparse LU factors with a reusable pivot sequence.
///
/// Lifecycle: [`SparseLu::factorize`] discovers pattern + pivots (call once
/// per structure); [`SparseLu::refactorize`] replays them on new values
/// (call per Newton iteration / transient step); [`SparseLu::solve_in_place`]
/// applies the factors. `refactorize` transparently falls back to a full
/// factorization when its stability monitor trips, so callers can treat it
/// as "factorize, but usually much cheaper".
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    // L: unit lower triangular, one column per pivot step. Row indices are
    // *original* (unpermuted) rows; the first entry of each column is the
    // pivot row with value 1.0.
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    // U: upper triangular in pivot-position space; the diagonal entry is
    // stored *last* in each column, preceding entries keep the exact
    // (topological) order the factorization eliminated in, which is what
    // makes the refactorization replay correct.
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<f64>,
    /// `pinv[orig_row] = pivot position` (UNPIVOTED while factoring).
    pinv: Vec<usize>,
    /// `piv_row[pivot position] = orig_row`.
    piv_row: Vec<usize>,
    /// Fill-reducing column order: pivot step `k` factors original column
    /// `q[k]` (RCM of the symmetrized pattern).
    q: Vec<usize>,
    /// Dense numeric scratch.
    x: Vec<f64>,
    /// DFS visit stamps (generation-tagged to avoid clearing).
    visited: Vec<usize>,
    /// DFS scratch: output pattern, node stack, per-node child cursors.
    xi: Vec<usize>,
    stack_nodes: Vec<usize>,
    stack_ptrs: Vec<usize>,
    factored: bool,
    /// Count of full (pivot-searching) factorizations performed.
    full_factorizations: usize,
}

impl SparseLu {
    /// Creates an engine for `n × n` systems (no factors yet).
    pub fn new(n: usize) -> Self {
        SparseLu {
            n,
            lp: Vec::new(),
            li: Vec::new(),
            lx: Vec::new(),
            up: Vec::new(),
            ui: Vec::new(),
            ux: Vec::new(),
            pinv: vec![UNPIVOTED; n],
            piv_row: vec![0; n],
            q: Vec::new(),
            x: vec![0.0; n],
            visited: vec![0; n],
            xi: vec![0; n],
            stack_nodes: vec![0; n],
            stack_ptrs: vec![0; n],
            factored: false,
            full_factorizations: 0,
        }
    }

    /// How many times the full pivot-searching factorization ran (1 after
    /// the first factorize; grows only when the stability fallback trips).
    pub fn full_factorization_count(&self) -> usize {
        self.full_factorizations
    }

    /// Full left-looking LU with threshold partial pivoting. Discovers the
    /// fill pattern and pivot sequence; call once per structure (or let
    /// [`SparseLu::refactorize`] fall back here on demand).
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularMatrix`] when a column has no usable pivot.
    ///
    /// # Panics
    ///
    /// Panics if `pattern`/`values` dimensions disagree with `n`.
    pub fn factorize(&mut self, pattern: &CscPattern, values: &[f64]) -> Result<(), CircuitError> {
        let n = self.n;
        assert_eq!(pattern.dim(), n);
        assert_eq!(values.len(), pattern.nnz());
        self.full_factorizations += 1;
        self.factored = false;
        self.lp.clear();
        self.li.clear();
        self.lx.clear();
        self.up.clear();
        self.ui.clear();
        self.ux.clear();
        self.lp.push(0);
        self.up.push(0);
        self.pinv.fill(UNPIVOTED);
        self.x.fill(0.0);
        self.visited.fill(0);
        self.q = rcm_order(pattern);

        for k in 0..n {
            let col = self.q[k];
            // --- Symbolic: pattern of x = L \ A(:,col) via DFS reach.
            let gen = k + 1;
            let mut top = n;
            for &row in pattern.col_rows(col) {
                if self.visited[row] != gen {
                    top = self.dfs(row, gen, top);
                }
            }

            // --- Numeric sparse triangular solve over the reach, which the
            // DFS emitted in topological order.
            for p in top..n {
                self.x[self.xi[p]] = 0.0;
            }
            for slot in pattern.col_range(col) {
                self.x[pattern.col_rows(col)[slot - pattern.col_range(col).start]] = values[slot];
            }
            for p in top..n {
                let i = self.xi[p];
                let jcol = self.pinv[i];
                if jcol == UNPIVOTED {
                    continue;
                }
                let xj = self.x[i];
                if xj != 0.0 {
                    for q in (self.lp[jcol] + 1)..self.lp[jcol + 1] {
                        self.x[self.li[q]] -= self.lx[q] * xj;
                    }
                }
            }

            // --- Pivot: column max among not-yet-pivotal rows, with a
            // preference for the structural diagonal.
            let mut ipiv = UNPIVOTED;
            let mut amax = 0.0_f64;
            for p in top..n {
                let i = self.xi[p];
                if self.pinv[i] == UNPIVOTED {
                    let t = self.x[i].abs();
                    if t > amax {
                        amax = t;
                        ipiv = i;
                    }
                }
            }
            if ipiv == UNPIVOTED || amax < PIVOT_FLOOR {
                return Err(CircuitError::SingularMatrix { row: k });
            }
            // Prefer the structural diagonal of the permuted matrix (row
            // `col`, since the column permutation is symmetric).
            if self.pinv[col] == UNPIVOTED && self.x[col].abs() >= PIVOT_TOL * amax {
                ipiv = col;
            }
            let pivot = self.x[ipiv];

            // --- Emit U column k (elimination order preserved), diagonal
            // last.
            for p in top..n {
                let i = self.xi[p];
                let pos = self.pinv[i];
                if pos != UNPIVOTED {
                    self.ui.push(pos);
                    self.ux.push(self.x[i]);
                }
            }
            self.ui.push(k);
            self.ux.push(pivot);
            self.up.push(self.ui.len());

            // --- Emit L column k: pivot row first (unit), then the rest.
            self.pinv[ipiv] = k;
            self.piv_row[k] = ipiv;
            self.li.push(ipiv);
            self.lx.push(1.0);
            for p in top..n {
                let i = self.xi[p];
                if self.pinv[i] == UNPIVOTED {
                    self.li.push(i);
                    self.lx.push(self.x[i] / pivot);
                }
            }
            self.lp.push(self.li.len());

            for p in top..n {
                self.x[self.xi[p]] = 0.0;
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Iterative DFS from `start` through the partially-built L (rows map
    /// to columns via `pinv`), emitting the reach into `xi[new_top..old_top]`
    /// in topological order. Returns the new top.
    fn dfs(&mut self, start: usize, gen: usize, mut top: usize) -> usize {
        let mut head: usize = 0;
        self.stack_nodes[0] = start;
        loop {
            let i = self.stack_nodes[head];
            let jcol = self.pinv[i];
            if self.visited[i] != gen {
                self.visited[i] = gen;
                self.stack_ptrs[head] = if jcol == UNPIVOTED {
                    0
                } else {
                    // Skip the unit-diagonal (pivot-row) leading entry.
                    self.lp[jcol] + 1
                };
            }
            let mut descended = false;
            if jcol != UNPIVOTED {
                let end = self.lp[jcol + 1];
                let mut p = self.stack_ptrs[head];
                while p < end {
                    let child = self.li[p];
                    if self.visited[child] != gen {
                        self.stack_ptrs[head] = p + 1;
                        head += 1;
                        self.stack_nodes[head] = child;
                        descended = true;
                        break;
                    }
                    p += 1;
                }
                if !descended {
                    self.stack_ptrs[head] = end;
                }
            }
            if !descended {
                top -= 1;
                self.xi[top] = i;
                if head == 0 {
                    break;
                }
                head -= 1;
            }
        }
        top
    }

    /// Numeric refactorization: replays the stored elimination sequence on
    /// new `values` (same `pattern`). Falls back to [`SparseLu::factorize`]
    /// when no factors exist yet or the stability monitor finds the cached
    /// pivot sequence degraded on the new values.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularMatrix`] if the fallback factorization also
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `pattern`/`values` dimensions disagree with `n`.
    pub fn refactorize(
        &mut self,
        pattern: &CscPattern,
        values: &[f64],
    ) -> Result<(), CircuitError> {
        if !self.factored {
            return self.factorize(pattern, values);
        }
        match self.refactor_inner(pattern, values) {
            Ok(()) => Ok(()),
            // Stale pivots: redo the full pivot search.
            Err(()) => self.factorize(pattern, values),
        }
    }

    /// The replay; `Err(())` signals a stability/singularity trip.
    fn refactor_inner(&mut self, pattern: &CscPattern, values: &[f64]) -> Result<(), ()> {
        let n = self.n;
        assert_eq!(pattern.dim(), n);
        assert_eq!(values.len(), pattern.nnz());
        // x is all-zero here: factorize and prior refactor passes clear
        // every touched entry before moving on.
        for k in 0..n {
            let col = self.q[k];
            let col_range = pattern.col_range(col);
            let rows = pattern.col_rows(col);
            for (off, slot) in col_range.enumerate() {
                self.x[rows[off]] = values[slot];
            }
            let u_start = self.up[k];
            let u_diag = self.up[k + 1] - 1;
            for p in u_start..u_diag {
                let j = self.ui[p];
                let xj = self.x[self.piv_row[j]];
                self.ux[p] = xj;
                if xj != 0.0 {
                    for q in (self.lp[j] + 1)..self.lp[j + 1] {
                        self.x[self.li[q]] -= self.lx[q] * xj;
                    }
                }
            }
            let pivot = self.x[self.piv_row[k]];
            // Stability monitor: the pivot must not be dwarfed by the
            // entries it is about to divide.
            let mut col_max = pivot.abs();
            for q in (self.lp[k] + 1)..self.lp[k + 1] {
                col_max = col_max.max(self.x[self.li[q]].abs());
            }
            if pivot.abs() < PIVOT_FLOOR || pivot.abs() < REFACTOR_TOL * col_max {
                // Clear scratch before bailing so a retry starts clean.
                for p in u_start..u_diag {
                    self.x[self.piv_row[self.ui[p]]] = 0.0;
                }
                for q in self.lp[k]..self.lp[k + 1] {
                    self.x[self.li[q]] = 0.0;
                }
                return Err(());
            }
            self.ux[u_diag] = pivot;
            self.lx[self.lp[k]] = 1.0;
            for q in (self.lp[k] + 1)..self.lp[k + 1] {
                self.lx[q] = self.x[self.li[q]] / pivot;
            }
            // Clear every touched scratch entry (the x-pattern of this
            // column is exactly: U-entry pivot rows ∪ L-column rows).
            for p in u_start..u_diag {
                self.x[self.piv_row[self.ui[p]]] = 0.0;
            }
            for q in self.lp[k]..self.lp[k + 1] {
                self.x[self.li[q]] = 0.0;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` with the current factors, overwriting `b`.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is available or `b` has the wrong length.
    pub fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve before factorize");
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Row-permute: y = P·b.
        for k in 0..n {
            self.x[k] = b[self.piv_row[k]];
        }
        // Forward solve L·z = y (unit diagonal; entries stored by original
        // row, mapped through pinv).
        for k in 0..n {
            let xk = self.x[k];
            if xk != 0.0 {
                for q in (self.lp[k] + 1)..self.lp[k + 1] {
                    self.x[self.pinv[self.li[q]]] -= self.lx[q] * xk;
                }
            }
        }
        // Backward solve U·x = z (diagonal stored last per column).
        for k in (0..n).rev() {
            let diag = self.ux[self.up[k + 1] - 1];
            let xk = self.x[k] / diag;
            self.x[k] = xk;
            if xk != 0.0 {
                for p in self.up[k]..self.up[k + 1] - 1 {
                    self.x[self.ui[p]] -= self.ux[p] * xk;
                }
            }
        }
        // Undo the fill-reducing column permutation: step k solved for
        // original unknown q[k].
        for k in 0..n {
            b[self.q[k]] = self.x[k];
        }
        self.x.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream for test matrices.
    struct Prng(u64);
    impl Prng {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// Builds a random sparse diagonally-dominant system.
    fn random_system(n: usize, seed: u64) -> (CscPattern, Vec<f64>) {
        let mut rng = Prng(seed);
        let mut positions = Vec::new();
        for i in 0..n {
            positions.push((i, i));
            // A few off-diagonal couplings per row, banded-ish like MNA.
            for d in 1..4usize {
                if i + d < n {
                    positions.push((i, i + d));
                    positions.push((i + d, i));
                }
            }
        }
        let pattern = CscPattern::from_positions(n, &positions);
        let mut values = vec![0.0; pattern.nnz()];
        for col in 0..n {
            for k in pattern.col_range(col) {
                let row = pattern.col_rows(col)[k - pattern.col_range(col).start];
                values[k] = if row == col {
                    8.0 + rng.next_f64().abs()
                } else {
                    rng.next_f64()
                };
            }
        }
        (pattern, values)
    }

    #[test]
    fn pattern_slots_and_spmv() {
        let p = CscPattern::from_positions(3, &[(0, 0), (1, 0), (2, 2), (0, 2), (1, 0)]);
        assert_eq!(p.nnz(), 4);
        assert!(p.slot(0, 0).is_some());
        assert!(p.slot(1, 0).is_some());
        assert!(p.slot(2, 1).is_none());
        let mut values = vec![0.0; p.nnz()];
        values[p.slot(0, 0).unwrap()] = 2.0;
        values[p.slot(1, 0).unwrap()] = -1.0;
        values[p.slot(0, 2).unwrap()] = 3.0;
        values[p.slot(2, 2).unwrap()] = 4.0;
        let mut y = vec![0.0; 3];
        p.mul_vec_into(&values, &[1.0, 5.0, 2.0], &mut y);
        assert_eq!(y, vec![2.0 + 6.0, -1.0, 8.0]);
    }

    #[test]
    fn sparse_matches_dense_on_random_systems() {
        for seed in 0..20 {
            let n = 5 + (seed as usize % 40);
            let (pattern, values) = random_system(n, 1000 + seed);
            let dense = pattern.to_dense(&values);
            let mut rng = Prng(seed);
            let x_true: Vec<f64> = (0..n).map(|_| rng.next_f64() * 3.0).collect();
            let b = dense.mul_vec(&x_true);

            let mut lu = SparseLu::new(n);
            lu.factorize(&pattern, &values).unwrap();
            let mut x = b.clone();
            lu.solve_in_place(&mut x);
            for (a, t) in x.iter().zip(&x_true) {
                assert!((a - t).abs() < 1e-9, "seed {seed}: {a} vs {t}");
            }
        }
    }

    #[test]
    fn refactorize_tracks_new_values() {
        let (pattern, mut values) = random_system(30, 42);
        let mut lu = SparseLu::new(30);
        lu.factorize(&pattern, &values).unwrap();
        // Perturb values (keeping dominance) and refactor several times.
        for round in 1..=5 {
            for v in values.iter_mut() {
                *v *= 1.0 + 0.01 * round as f64;
            }
            lu.refactorize(&pattern, &values).unwrap();
            let dense = pattern.to_dense(&values);
            let x_true: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut x = dense.mul_vec(&x_true);
            lu.solve_in_place(&mut x);
            for (a, t) in x.iter().zip(&x_true) {
                assert!((a - t).abs() < 1e-9, "round {round}: {a} vs {t}");
            }
        }
        assert_eq!(
            lu.full_factorization_count(),
            1,
            "replays must not re-pivot"
        );
    }

    #[test]
    fn refactorize_falls_back_when_pivots_go_stale() {
        // Factor with a dominant diagonal, then hand it a matrix whose
        // dominant entries moved off-diagonal: the monitor must trip and the
        // fallback must still solve correctly.
        let pattern = CscPattern::from_positions(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut v = vec![0.0; 4];
        let set = |v: &mut Vec<f64>, p: &CscPattern, r, c, val| {
            v[p.slot(r, c).unwrap()] = val;
        };
        set(&mut v, &pattern, 0, 0, 10.0);
        set(&mut v, &pattern, 0, 1, 1.0);
        set(&mut v, &pattern, 1, 0, 1.0);
        set(&mut v, &pattern, 1, 1, 10.0);
        let mut lu = SparseLu::new(2);
        lu.factorize(&pattern, &v).unwrap();

        set(&mut v, &pattern, 0, 0, 1.0e-9);
        set(&mut v, &pattern, 0, 1, 1.0);
        set(&mut v, &pattern, 1, 0, 1.0);
        set(&mut v, &pattern, 1, 1, 1.0e-9);
        lu.refactorize(&pattern, &v).unwrap();
        assert!(lu.full_factorization_count() >= 2, "monitor should trip");
        let mut b = vec![2.0, 7.0];
        lu.solve_in_place(&mut b);
        // x ≈ [7, 2] for the near-permutation matrix.
        assert!((b[0] - 7.0).abs() < 1e-6, "{b:?}");
        assert!((b[1] - 2.0).abs() < 1e-6, "{b:?}");
    }

    #[test]
    fn permutation_matrix_requires_pivoting() {
        let pattern = CscPattern::from_positions(2, &[(0, 1), (1, 0), (0, 0), (1, 1)]);
        let mut v = vec![0.0; pattern.nnz()];
        v[pattern.slot(0, 1).unwrap()] = 1.0;
        v[pattern.slot(1, 0).unwrap()] = 1.0;
        let mut lu = SparseLu::new(2);
        lu.factorize(&pattern, &v).unwrap();
        let mut b = vec![2.0, 7.0];
        lu.solve_in_place(&mut b);
        assert!((b[0] - 7.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let pattern = CscPattern::from_positions(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut v = vec![0.0; 4];
        v[pattern.slot(0, 0).unwrap()] = 1.0;
        v[pattern.slot(0, 1).unwrap()] = 2.0;
        v[pattern.slot(1, 0).unwrap()] = 2.0;
        v[pattern.slot(1, 1).unwrap()] = 4.0;
        let mut lu = SparseLu::new(2);
        assert!(matches!(
            lu.factorize(&pattern, &v),
            Err(CircuitError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn matches_dense_solver_exactly_enough() {
        // Same system through both kernels; compare solutions directly.
        let (pattern, values) = random_system(60, 7);
        let dense = pattern.to_dense(&values);
        let b: Vec<f64> = (0..60).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();

        let mut xd = b.clone();
        dense.clone().solve_in_place(&mut xd).unwrap();

        let mut lu = SparseLu::new(60);
        lu.factorize(&pattern, &values).unwrap();
        let mut xs = b;
        lu.solve_in_place(&mut xs);

        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-9, "{d} vs {s}");
        }
    }
}
