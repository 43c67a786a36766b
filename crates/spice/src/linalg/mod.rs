//! Linear algebra for the MNA system: a dense LU and a static-pattern
//! sparse LU.
//!
//! Latch-scale circuits produce systems of a few dozen unknowns, where a
//! dense LU factorization with partial pivoting is both the simplest and
//! a fast option (no fill-in bookkeeping, cache-friendly row access).
//! MNA matrices are nonetheless *structurally* sparse — a handful of
//! entries per row — so the dense elimination skips updates whose
//! operands are exactly zero: those are value-level no-ops, and dropping
//! them leaves every computed result unchanged while cutting most of the
//! O(n³) work.
//!
//! The sparse path ([`SparsePattern`] + [`SymbolicLu`]) goes further:
//! the structural nonzero pattern of the assembled matrix is fixed by the
//! analysis layer's stamp plan, so the symbolic work — a fill-reducing
//! minimum-degree column order, the pivot order, fill-in prediction, CSR
//! layout of `L+U` — is done once and every subsequent Newton iteration
//! runs a left-looking refactorization *in the frozen pattern* with no
//! pivot search at all. A guard compares each refactored pivot against
//! its magnitude at freeze time and transparently re-pivots from scratch
//! when values have drifted enough to make the frozen order unsafe.
//!
//! The dense LU is the sparse path's oracle: both solve the same system
//! to within rounding, but they eliminate in different orders, so their
//! results agree to a relative tolerance, not bit for bit.

use std::sync::OnceLock;

/// A dense, row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Reusable working storage for [`DenseMatrix::solve_into`] and
/// [`DenseMatrix::solve_in_place`].
///
/// Holds the factorization's working copy of the matrix and the pivot
/// row's nonzero-column index list, so repeated solves (one per Newton
/// iteration, thousands per transient) perform no heap allocation after
/// the first call.
#[derive(Debug, Clone, Default)]
pub struct LuScratch {
    lu: Vec<f64>,
    nonzero_cols: Vec<u32>,
}

impl LuScratch {
    /// Creates an empty scratch buffer; it grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch buffer pre-sized for an `n × n` system.
    #[must_use]
    pub fn for_dim(n: usize) -> Self {
        Self {
            lu: Vec::with_capacity(n * n),
            nonzero_cols: Vec::with_capacity(n),
        }
    }
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at (`row`, `col`) — the *stamp*
    /// operation every MNA device contribution uses.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Borrows the raw row-major entries.
    ///
    /// Crate-internal: lets the reference engine copy the matrix at the
    /// same cost the seed solver paid (`data.clone()`), keeping it an
    /// honest baseline.
    #[must_use]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the raw row-major entries: the storage the dense
    /// engine's stamp slots (`row·n + col`) index.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Solves `A·x = b` via LU with partial pivoting without destroying
    /// `self`.
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// This is the allocating convenience wrapper over
    /// [`DenseMatrix::solve_into`]; solver loops should hold a
    /// [`LuScratch`] and call `solve_into` (or [`DenseMatrix::solve_in_place`])
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let mut scratch = LuScratch::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut scratch, &mut x).then_some(x)
    }

    /// Solves `A·x = b` into `x`, reusing `scratch` for the factorization
    /// working copy — no allocation once the scratch buffers have grown
    /// to the system size.
    ///
    /// Returns `false` if the matrix is numerically singular (in which
    /// case the contents of `x` are unspecified). Every arithmetic
    /// operation that is actually performed — pivot selection,
    /// elimination, back substitution — matches the original allocating
    /// solver; the only difference is that updates whose pivot-row
    /// operand is exactly zero are skipped, which leaves all values
    /// unchanged (up to the sign of zero), so results are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], scratch: &mut LuScratch, x: &mut Vec<f64>) -> bool {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        scratch.lu.clear();
        scratch.lu.extend_from_slice(&self.data);
        x.clear();
        x.extend_from_slice(b);
        lu_solve_core(&mut scratch.lu, self.n, &mut scratch.nonzero_cols, x)
    }

    /// Solves `A·x = b` into `x`, factoring `self` **in place** — on
    /// return the matrix holds the (partially pivoted) elimination
    /// residue and must be re-stamped before the next use.
    ///
    /// This is the hot-loop entry point: it skips the `n²` working-copy
    /// memcpy that [`DenseMatrix::solve_into`] pays per call, which
    /// matters when the matrix is re-assembled from scratch every Newton
    /// iteration anyway. Arithmetic is identical to `solve_into`.
    ///
    /// Returns `false` if the matrix is numerically singular (in which
    /// case the contents of `x` are unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&mut self, b: &[f64], scratch: &mut LuScratch, x: &mut Vec<f64>) -> bool {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        x.clear();
        x.extend_from_slice(b);
        lu_solve_core(&mut self.data, self.n, &mut scratch.nonzero_cols, x)
    }

    /// Computes `A·x` (used by tests and residual checks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix dimension.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        (0..self.n)
            .map(|r| (0..self.n).map(|c| self.data[r * self.n + c] * x[c]).sum())
            .collect()
    }
}

/// LU-with-partial-pivoting factorization and solve, operating directly
/// on a row-major `n × n` buffer with the RHS pre-loaded into `x`.
///
/// MNA matrices carry only a handful of nonzeros per row, so before
/// eliminating below each pivot the core records the pivot row's
/// nonzero columns (right of the diagonal) in `nz` and restricts the
/// update loop to them. A skipped update would have computed
/// `a[r][j] -= factor * 0.0`, a value-level no-op, so every surviving
/// operation — and therefore every result — matches the textbook dense
/// loop. The subdiagonal residue `a[r][k]` is likewise never read again
/// (pivot searches only look at columns > k) and is left unwritten.
///
/// Back substitution stays dense: it is O(n²) and keeps non-finite
/// values flowing into the final singularity check exactly as before.
///
/// Returns `false` if the matrix is numerically singular.
fn lu_solve_core(lu: &mut [f64], n: usize, nz: &mut Vec<u32>, x: &mut [f64]) -> bool {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(x.len(), n);
    for k in 0..n {
        // Pivot selection.
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for (off, row) in lu[(k + 1) * n..].chunks_exact(n).enumerate() {
            let v = row[k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = k + 1 + off;
            }
        }
        if pivot_val < PIVOT_EPS {
            return false;
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            x.swap(k, pivot_row);
        }
        // Elimination of rows below k, RHS folded in, restricted to the
        // pivot row's nonzero columns.
        let (upper, lower) = lu.split_at_mut((k + 1) * n);
        let row_k = &upper[k * n..(k + 1) * n];
        let pivot = row_k[k];
        nz.clear();
        for (j, &v) in row_k.iter().enumerate().skip(k + 1) {
            if v != 0.0 {
                nz.push(j as u32);
            }
        }
        let (x_upper, x_lower) = x.split_at_mut(k + 1);
        let x_k = x_upper[k];
        for (row_r, x_r) in lower.chunks_exact_mut(n).zip(x_lower.iter_mut()) {
            let factor = row_r[k] / pivot;
            if factor == 0.0 {
                continue;
            }
            for &j in nz.iter() {
                let j = j as usize;
                row_r[j] -= factor * row_k[j];
            }
            *x_r -= factor * x_k;
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let row_k = &lu[k * n..(k + 1) * n];
        let mut acc = x[k];
        for (&aj, &xj) in row_k[k + 1..].iter().zip(x[k + 1..].iter()) {
            acc -= aj * xj;
        }
        x[k] = acc / row_k[k];
    }
    x.iter().all(|v| v.is_finite())
}

/// Numeric singularity threshold shared by the dense and sparse paths.
const PIVOT_EPS: f64 = 1e-30;

/// Relative decay of a frozen pivot (against its magnitude when the
/// pivot order was frozen) that triggers an automatic re-pivot. Partial
/// pivoting bounds element growth only for the ordering it chose; once a
/// pivot shrinks by many orders of magnitude relative to freeze time,
/// the frozen order may no longer be that ordering, so the factorization
/// is redone from scratch with a fresh pivot search.
const PIVOT_DECAY: f64 = 1e-6;

/// Stable counting sort of `items` by `key`, whose values lie in `0..n`.
fn counting_sort(n: usize, items: &[u32], key: impl Fn(u32) -> u32) -> Vec<u32> {
    let mut start = vec![0u32; n + 1];
    for &k in items {
        start[key(k) as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut sorted = vec![0u32; items.len()];
    for &k in items {
        let at = &mut start[key(k) as usize];
        sorted[*at as usize] = k;
        *at += 1;
    }
    sorted
}

/// Frozen structural nonzero pattern of an assembled MNA matrix, in CSR
/// form.
///
/// Built once per stamp plan from the plan's static enumeration of every
/// matrix add, which also resolves each add to its CSR slot once; the
/// value array those slots index lives in the solver workspace and is
/// re-filled every Newton iteration. The pattern also carries its
/// minimum-degree column order, computed on first use by a
/// factorization and cached for every later one.
#[derive(Debug, Clone, Default)]
pub struct SparsePattern {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    /// Lazily computed [`SparsePattern::column_order`].
    order: OnceLock<Vec<u32>>,
}

/// Two patterns are equal when their structure is; whether either has
/// computed its (structure-determined) column order yet is irrelevant.
impl PartialEq for SparsePattern {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.row_ptr == other.row_ptr && self.col_idx == other.col_idx
    }
}

impl Eq for SparsePattern {}

impl SparsePattern {
    /// Builds the pattern from structural `(row, col)` entries.
    /// Duplicates are allowed and merged.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of bounds for an `n × n` system.
    #[must_use]
    pub fn from_entries(n: usize, entries: Vec<(u32, u32)>) -> Self {
        Self::with_slots(n, &entries).0
    }

    /// [`SparsePattern::from_entries`], also returning the CSR slot that
    /// backs each entry, in input order: how the stamp plan resolves
    /// every matrix add in one pass. The entries are put in `(row, col)`
    /// order by two stable counting sorts (by column, then by row), so
    /// the cost is linear in the entries plus `n`.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of bounds for an `n × n` system.
    pub(crate) fn with_slots(n: usize, entries: &[(u32, u32)]) -> (Self, Vec<u32>) {
        for &(r, c) in entries {
            assert!(
                (r as usize) < n && (c as usize) < n,
                "pattern entry out of bounds"
            );
        }
        let all: Vec<u32> = (0..entries.len() as u32).collect();
        let by_col = counting_sort(n, &all, |k| entries[k as usize].1);
        let by_row_col = counting_sort(n, &by_col, |k| entries[k as usize].0);
        let mut row_ptr = vec![0u32; n + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut slots = vec![0u32; entries.len()];
        let mut last = None;
        for k in by_row_col {
            let (r, c) = entries[k as usize];
            if last != Some((r, c)) {
                last = Some((r, c));
                col_idx.push(c);
                row_ptr[r as usize + 1] += 1;
            }
            slots[k as usize] = (col_idx.len() - 1) as u32;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let pattern = Self {
            n,
            row_ptr,
            col_idx,
            order: OnceLock::new(),
        };
        (pattern, slots)
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The CSR slot backing `(row, col)`, or `None` for a structural
    /// zero: a binary search over the row. Test-only: the stamp plan
    /// gets its slots from [`SparsePattern::with_slots`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[cfg(test)]
    pub(crate) fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let (cols, lo) = self.row(row);
        let col = u32::try_from(col).ok()?;
        cols.binary_search(&col).ok().map(|k| lo + k)
    }

    /// The column indices of `row`, ascending, and the CSR slot of the
    /// row's first entry.
    #[inline]
    fn row(&self, row: usize) -> (&[u32], usize) {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        (&self.col_idx[lo..hi], lo)
    }

    /// The order in which [`SymbolicLu`] eliminates the columns: entry
    /// `k` is the original column eliminated `k`-th.
    ///
    /// It is the exact minimum-degree order of the graph of `A + Aᵀ`
    /// (diagonal ignored), ties broken by the lowest original index. The
    /// order depends on the structure alone, so it is computed on the
    /// first call and cached with the pattern.
    pub(crate) fn column_order(&self) -> &[u32] {
        self.order.get_or_init(|| self.minimum_degree_order())
    }

    /// Exact minimum degree on the explicit elimination graph: repeatedly
    /// eliminate the remaining vertex of fewest remaining neighbours and
    /// join those neighbours into a clique (the fill the elimination
    /// creates). A dense adjacency matrix keeps this simple: n² bytes,
    /// held only while the order is computed, once per pattern.
    fn minimum_degree_order(&self) -> Vec<u32> {
        let n = self.n;
        let mut adj = vec![false; n * n];
        for r in 0..n {
            for &c in self.row(r).0 {
                let c = c as usize;
                if c != r {
                    adj[r * n + c] = true;
                    adj[c * n + r] = true;
                }
            }
        }
        let count = |adj: &[bool], v: usize| adj[v * n..(v + 1) * n].iter().filter(|&&e| e).count();
        let mut degree: Vec<usize> = (0..n).map(|v| count(&adj, v)).collect();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut nbrs = Vec::new();
        for _ in 0..n {
            // `min_by_key` keeps the first minimum: the lowest index.
            let p = (0..n)
                .filter(|&v| !eliminated[v])
                .min_by_key(|&v| degree[v])
                .expect("each of the n passes finds a remaining vertex");
            eliminated[p] = true;
            order.push(p as u32);
            nbrs.clear();
            nbrs.extend((0..n).filter(|&v| adj[p * n + v]));
            for &u in &nbrs {
                adj[u * n + p] = false;
                for &v in &nbrs {
                    if v != u {
                        adj[u * n + v] = true;
                    }
                }
            }
            for &u in &nbrs {
                degree[u] = count(&adj, u);
            }
        }
        order
    }
}

/// Outcome of a successful [`SymbolicLu::factor_and_solve`] call,
/// reported so the solver can account for symbolic work separately from
/// the steady-state pattern-reusing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseSolveOutcome {
    /// The frozen pivot order and fill pattern were reused as-is — the
    /// steady-state fast path.
    ReusedPattern,
    /// First solve against this pattern: pivot order frozen and the
    /// symbolic factorization built.
    Built,
    /// A frozen pivot decayed below threshold mid-refactor; the pivot
    /// order and symbolic factorization were rebuilt from the current
    /// values, then the solve completed.
    Repivoted,
}

/// Static symbolic LU: columns eliminated in the pattern's minimum-degree
/// order (see [`SparsePattern`]), rows chosen by partial pivoting, and
/// the resulting pivot order and `L+U` fill pattern frozen from the
/// first factorization, then reused by a left-looking refactorization
/// for every subsequent solve.
///
/// The numeric contract has two parts. Against the dense oracle, results
/// agree to rounding: the elimination order differs, so the last bits
/// may too. Against itself, results are bit-identical: the order is a
/// pure function of the pattern, and a refactorization in the frozen
/// order performs the same multiply/subtract/divide sequence as the
/// freezing elimination, so a solve after a fresh build and one that
/// reuses the pattern give the same bits for the same values.
///
/// All buffers are retained across calls; after the first build a
/// refactor-and-solve performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SymbolicLu {
    n: usize,
    built: bool,
    /// Permuted row `i` of the factorization is original row `perm[i]`.
    perm: Vec<u32>,
    /// Original column `c` is permuted column `col_pos[c]` — the inverse
    /// of the pattern's column order.
    col_pos: Vec<u32>,
    /// CSR layout of `L + U` (unit-diagonal L implicit; factors stored
    /// in the L slots, U on and right of the diagonal), rows in pivot
    /// order, permuted columns ascending.
    lu_row_ptr: Vec<u32>,
    lu_col: Vec<u32>,
    lu_val: Vec<f64>,
    /// Slot of the diagonal entry of each permuted row.
    lu_diag: Vec<u32>,
    /// |pivot| recorded when the order was frozen — the reference for
    /// the decay guard.
    ref_pivot: Vec<f64>,
    /// Dense scratch row for the left-looking scatter/gather, and the
    /// permuted solution vector of the triangular solves.
    w: Vec<f64>,
    /// Dense n × n scratch for the pivot-freezing factorization.
    dense: Vec<f64>,
    /// Column-presence marks for the symbolic row merge.
    mark: Vec<bool>,
    nz: Vec<u32>,
}

impl SymbolicLu {
    /// Creates an empty symbolic object; it builds itself on the first
    /// [`SymbolicLu::factor_and_solve`] call.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a pivot order is currently frozen.
    #[must_use]
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Structural nonzeros of `L + U` including fill-in (0 before the
    /// first build).
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        self.lu_col.len()
    }

    /// Drops the frozen pivot order, forcing a rebuild on the next
    /// solve. Called when the pattern itself changes (plan rebuild).
    pub fn invalidate(&mut self) {
        self.built = false;
    }

    /// Factors `values` (laid out per `pattern`) and solves for `b`,
    /// writing the solution into `x`. Freezes the pivot order on first
    /// use, reuses it afterwards, and re-pivots automatically when a
    /// frozen pivot decays below threshold.
    ///
    /// Returns `None` if the matrix is numerically singular or the
    /// solution is non-finite (matching the dense solver's contract).
    ///
    /// # Panics
    ///
    /// Panics if `values`, `b` or the pattern dimensions disagree.
    pub fn factor_and_solve(
        &mut self,
        pattern: &SparsePattern,
        values: &[f64],
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Option<SparseSolveOutcome> {
        assert_eq!(values.len(), pattern.nnz(), "value/pattern mismatch");
        assert_eq!(b.len(), pattern.dim(), "rhs length mismatch");
        let mut outcome = SparseSolveOutcome::ReusedPattern;
        if !self.built || self.n != pattern.dim() {
            if !self.rebuild(pattern, values) {
                return None;
            }
            outcome = SparseSolveOutcome::Built;
        }
        if !self.refactor(pattern, values) {
            // A frozen pivot decayed (or vanished): re-pivot from the
            // current values. A fresh build's refactor reproduces the
            // build's own elimination, so a second failure means the
            // matrix is genuinely singular.
            if !self.rebuild(pattern, values) || !self.refactor(pattern, values) {
                return None;
            }
            outcome = SparseSolveOutcome::Repivoted;
        }
        self.solve_rhs(b, x).then_some(outcome)
    }

    /// Freezes the pivot order by running a dense partial-pivoted
    /// elimination over the current values with the columns in the
    /// pattern's minimum-degree order, then builds the symbolic `L+U`
    /// pattern with fill-in for that order. Returns `false` on
    /// singularity.
    fn rebuild(&mut self, pattern: &SparsePattern, values: &[f64]) -> bool {
        let n = pattern.dim();
        self.n = n;
        self.built = false;
        self.col_pos.clear();
        self.col_pos.resize(n, 0);
        for (k, &c) in pattern.column_order().iter().enumerate() {
            self.col_pos[c as usize] = k as u32;
        }
        self.perm.clear();
        self.perm.extend(0..n as u32);
        self.ref_pivot.clear();
        self.ref_pivot.resize(n, 0.0);
        // Scatter the CSR values into the dense scratch, columns permuted.
        self.dense.clear();
        self.dense.resize(n * n, 0.0);
        for r in 0..n {
            let (cols, first) = pattern.row(r);
            for (k, &c) in cols.iter().enumerate() {
                self.dense[r * n + self.col_pos[c as usize] as usize] = values[first + k];
            }
        }
        // Partial-pivoted elimination, recording the row order it
        // settles on.
        let lu = &mut self.dense;
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for (off, row) in lu[(k + 1) * n..].chunks_exact(n).enumerate() {
                let v = row[k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = k + 1 + off;
                }
            }
            if pivot_val < PIVOT_EPS {
                return false;
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                self.perm.swap(k, pivot_row);
            }
            self.ref_pivot[k] = pivot_val;
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..(k + 1) * n];
            let pivot = row_k[k];
            self.nz.clear();
            for (j, &v) in row_k.iter().enumerate().skip(k + 1) {
                if v != 0.0 {
                    self.nz.push(j as u32);
                }
            }
            for row_r in lower.chunks_exact_mut(n) {
                let factor = row_r[k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for &j in &self.nz {
                    let j = j as usize;
                    row_r[j] -= factor * row_k[j];
                }
            }
        }
        self.symbolic(pattern);
        self.built = true;
        true
    }

    /// Left-looking symbolic factorization for the frozen row order:
    /// permuted row `i`'s pattern is the union of A-row `perm[i]` (its
    /// columns mapped through `col_pos`) with the U-patterns of every
    /// L-column it touches (in ascending column order), plus the forced
    /// diagonal. Classic Gilbert–Peierls reachability, specialised to a
    /// static order.
    fn symbolic(&mut self, pattern: &SparsePattern) {
        let n = self.n;
        self.lu_row_ptr.clear();
        self.lu_row_ptr.push(0);
        self.lu_col.clear();
        self.lu_diag.clear();
        self.mark.clear();
        self.mark.resize(n, false);
        for i in 0..n {
            let row_start = self.lu_col.len();
            let (cols, _) = pattern.row(self.perm[i] as usize);
            for &c in cols {
                self.mark[self.col_pos[c as usize] as usize] = true;
            }
            self.mark[i] = true;
            // Closure: an entry in L-column k pulls in U-row k's columns
            // (all > k), which the ascending scan then revisits, so every
            // transitive fill column is reached in one pass.
            for k in 0..i {
                if self.mark[k] {
                    let k_hi = self.lu_row_ptr[k + 1] as usize;
                    for s in (self.lu_diag[k] as usize + 1)..k_hi {
                        self.mark[self.lu_col[s] as usize] = true;
                    }
                }
            }
            // Gather in ascending column order (required by the numeric
            // refactor's update sequence), clearing marks as we go.
            let mut diag = 0u32;
            for c in 0..n {
                if self.mark[c] {
                    self.mark[c] = false;
                    if c == i {
                        diag = self.lu_col.len() as u32;
                    }
                    self.lu_col.push(c as u32);
                }
            }
            debug_assert!(diag as usize >= row_start);
            self.lu_diag.push(diag);
            self.lu_row_ptr.push(self.lu_col.len() as u32);
        }
        self.lu_val.clear();
        self.lu_val.resize(self.lu_col.len(), 0.0);
        self.w.clear();
        self.w.resize(n, 0.0);
    }

    /// Numeric refactorization in the frozen pattern: for each permuted
    /// row, scatter the A-row into the dense scratch, apply the U-rows
    /// of its L-columns in ascending order (the same update sequence,
    /// element for element, as the freezing right-looking elimination),
    /// then gather back. No pivot search; the decay guard compares each
    /// pivot against its freeze-time magnitude. Returns `false` on a
    /// decayed or vanishing pivot.
    fn refactor(&mut self, pattern: &SparsePattern, values: &[f64]) -> bool {
        let n = self.n;
        for i in 0..n {
            let (lo, hi) = (self.lu_row_ptr[i] as usize, self.lu_row_ptr[i + 1] as usize);
            for &c in &self.lu_col[lo..hi] {
                self.w[c as usize] = 0.0;
            }
            let (cols, first) = pattern.row(self.perm[i] as usize);
            for (k, &c) in cols.iter().enumerate() {
                self.w[self.col_pos[c as usize] as usize] = values[first + k];
            }
            for s in lo..hi {
                let k = self.lu_col[s] as usize;
                if k >= i {
                    break;
                }
                let factor = self.w[k] / self.lu_val[self.lu_diag[k] as usize];
                self.w[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                let k_hi = self.lu_row_ptr[k + 1] as usize;
                for t in (self.lu_diag[k] as usize + 1)..k_hi {
                    self.w[self.lu_col[t] as usize] -= factor * self.lu_val[t];
                }
            }
            let pivot = self.w[i].abs();
            if pivot < PIVOT_EPS || pivot < PIVOT_DECAY * self.ref_pivot[i] {
                return false;
            }
            for s in lo..hi {
                self.lu_val[s] = self.w[self.lu_col[s] as usize];
            }
        }
        true
    }

    /// Forward substitution over unit-diagonal L (with the frozen row
    /// permutation applied to `b`), then back substitution over U, both
    /// in the permuted column space held in `w`; `x` receives the
    /// solution un-permuted to original column order. Returns `false`
    /// if the solution is non-finite.
    fn solve_rhs(&mut self, b: &[f64], x: &mut Vec<f64>) -> bool {
        let n = self.n;
        let y = &mut self.w;
        for i in 0..n {
            let mut acc = b[self.perm[i] as usize];
            let lo = self.lu_row_ptr[i] as usize;
            let diag = self.lu_diag[i] as usize;
            for s in lo..diag {
                acc -= self.lu_val[s] * y[self.lu_col[s] as usize];
            }
            y[i] = acc;
        }
        for i in (0..n).rev() {
            let diag = self.lu_diag[i] as usize;
            let hi = self.lu_row_ptr[i + 1] as usize;
            let mut acc = y[i];
            for s in (diag + 1)..hi {
                acc -= self.lu_val[s] * y[self.lu_col[s] as usize];
            }
            y[i] = acc / self.lu_val[diag];
        }
        x.clear();
        x.extend(self.col_pos.iter().map(|&k| y[k as usize]));
        x.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn identity_solve() {
        let m = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = m.solve(&[3.0, 4.0]).expect("nonsingular");
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_a_known_system() {
        let m = from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = m.solve(&[8.0, -11.0, -3.0]).expect("nonsingular");
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[5.0, 7.0]).expect("nonsingular with pivoting");
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
        let z = DenseMatrix::zeros(3);
        assert!(z.solve(&[0.0; 3]).is_none());
    }

    #[test]
    fn solve_does_not_mutate_matrix() {
        let m = from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let copy = m.clone();
        let _ = m.solve(&[10.0, 12.0]);
        assert_eq!(m, copy);
    }

    #[test]
    fn residual_is_tiny_for_ill_conditioned_scaling() {
        // Conductances in a real MNA system span ~1e-12 .. 1e-2 S.
        let m = from_rows(&[
            &[1e-2, -1e-2, 0.0],
            &[-1e-2, 1e-2 + 1e-12, -1e-12],
            &[0.0, -1e-12, 2e-12],
        ]);
        let b = [1e-3, 0.0, 1e-15];
        let x = m.solve(&b).expect("solvable");
        let r = m.mul_vec(&x);
        // The system's condition number is ~1e10; accept residuals small
        // relative to the RHS scale rather than entry-exact.
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (ri, bi) in r.iter().zip(b.iter()) {
            assert!((ri - bi).abs() < 1e-5 * scale, "{r:?}");
        }
    }

    #[test]
    fn stamp_add_accumulates() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn wrong_rhs_length_panics() {
        let m = DenseMatrix::zeros(2);
        let _ = m.solve(&[1.0]);
    }

    #[test]
    fn solve_into_matches_solve_bit_for_bit() {
        // An awkwardly scaled system that forces pivoting and a zero
        // fill-in skip, exercising every branch of the elimination.
        let m = from_rows(&[
            &[0.0, 2.0, 1.0, 0.0],
            &[1e-6, -1.0, 0.5, 0.0],
            &[3.0, 0.25, -2.0, 1e-9],
            &[0.0, 0.0, 1e3, 4.0],
        ]);
        let b = [1.0, -2.5, 3e-3, 0.7];
        let via_alloc = m.solve(&b).expect("nonsingular");
        let mut scratch = LuScratch::for_dim(4);
        let mut x = Vec::new();
        assert!(m.solve_into(&b, &mut scratch, &mut x));
        assert_eq!(via_alloc, x, "solve and solve_into must agree exactly");
        // Reuse the same scratch for a second system of the same size.
        let b2 = [0.0, 1.0, 0.0, -1.0];
        let mut x2 = Vec::new();
        assert!(m.solve_into(&b2, &mut scratch, &mut x2));
        assert_eq!(m.solve(&b2).expect("nonsingular"), x2);
    }

    #[test]
    fn solve_in_place_matches_solve_and_consumes_matrix() {
        let rows: &[&[f64]] = &[
            &[0.0, 2.0, 1.0, 0.0],
            &[1e-6, -1.0, 0.5, 0.0],
            &[3.0, 0.25, -2.0, 1e-9],
            &[0.0, 0.0, 1e3, 4.0],
        ];
        let b = [1.0, -2.5, 3e-3, 0.7];
        let pristine = from_rows(rows);
        let via_alloc = pristine.solve(&b).expect("nonsingular");
        let mut m = from_rows(rows);
        let mut scratch = LuScratch::for_dim(4);
        let mut x = Vec::new();
        assert!(m.solve_in_place(&b, &mut scratch, &mut x));
        assert_eq!(via_alloc, x, "solve and solve_in_place must agree exactly");
        // The matrix now holds elimination residue, not A.
        assert_ne!(m, pristine);
        // Singular systems are still detected.
        let mut s = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(!s.solve_in_place(&[1.0, 2.0], &mut scratch, &mut x));
    }

    #[test]
    fn solve_into_reports_singularity() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut scratch = LuScratch::new();
        let mut x = Vec::new();
        assert!(!m.solve_into(&[1.0, 2.0], &mut scratch, &mut x));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let m = DenseMatrix::zeros(2);
        let _ = m.get(2, 0);
    }

    /// Builds a pattern + CSR values from a dense row specification,
    /// treating exact zeros as structural zeros.
    fn sparse_from_rows(rows: &[&[f64]]) -> (SparsePattern, Vec<f64>) {
        let n = rows.len();
        let mut entries = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    entries.push((r as u32, c as u32));
                }
            }
        }
        let pattern = SparsePattern::from_entries(n, entries);
        let mut values = vec![0.0; pattern.nnz()];
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    values[pattern.slot(r, c).expect("entry in pattern")] += v;
                }
            }
        }
        (pattern, values)
    }

    #[test]
    fn sparse_pattern_layout_and_stamping() {
        let pattern = SparsePattern::from_entries(3, vec![(2, 0), (0, 0), (0, 2), (1, 1), (0, 0)]);
        assert_eq!(pattern.dim(), 3);
        assert_eq!(pattern.nnz(), 4, "duplicates merge");
        // CSR order: (0,0), (0,2), (1,1), (2,0).
        assert_eq!(pattern.slot(0, 0), Some(0));
        assert_eq!(pattern.slot(0, 2), Some(1));
        assert_eq!(pattern.slot(1, 1), Some(2));
        assert_eq!(pattern.slot(2, 0), Some(3));
        let (same, slots) = SparsePattern::with_slots(3, &[(2, 0), (0, 0), (0, 2), (1, 1), (0, 0)]);
        assert_eq!(same, pattern);
        assert_eq!(
            slots,
            vec![3, 0, 1, 2, 0],
            "one slot per entry, in input order"
        );
    }

    #[test]
    fn sparse_slot_is_none_outside_the_pattern() {
        let pattern = SparsePattern::from_entries(2, vec![(0, 0), (1, 1)]);
        assert_eq!(pattern.slot(0, 1), None);
        assert_eq!(pattern.slot(1, 0), None);
        assert_eq!(pattern.slot(1, usize::MAX), None);
    }

    /// The relative bound `sparse_equivalence` holds the sparse engine
    /// to against the dense oracle.
    const REL_TOL: f64 = 1e-9;

    fn assert_close(x: &[f64], want: &[f64]) {
        for (s, d) in x.iter().zip(want.iter()) {
            assert!(
                (s - d).abs() <= REL_TOL * d.abs().max(1.0),
                "sparse {x:?} vs dense {want:?}"
            );
        }
    }

    /// The awkward system the dense tests use: forces pivoting, fill-in,
    /// and zero-skip branches.
    const AWKWARD: &[&[f64]] = &[
        &[0.0, 2.0, 1.0, 0.0],
        &[1e-6, -1.0, 0.5, 0.0],
        &[3.0, 0.25, -2.0, 1e-9],
        &[0.0, 0.0, 1e3, 4.0],
    ];

    #[test]
    fn sparse_first_solve_matches_dense_within_tolerance() {
        let b = [1.0, -2.5, 3e-3, 0.7];
        let dense = from_rows(AWKWARD).solve(&b).expect("nonsingular");
        let (pattern, values) = sparse_from_rows(AWKWARD);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let outcome = sym
            .factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("nonsingular");
        assert_eq!(outcome, SparseSolveOutcome::Built);
        assert!(sym.lu_nnz() >= pattern.nnz());
        assert_close(&x, &dense);
    }

    #[test]
    fn sparse_built_and_reused_solves_are_bit_identical() {
        let b = [1.0, -2.5, 3e-3, 0.7];
        let (pattern, values) = sparse_from_rows(AWKWARD);
        let mut sym = SymbolicLu::new();
        let (mut built, mut reused) = (Vec::new(), Vec::new());
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut built),
            Some(SparseSolveOutcome::Built)
        );
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut reused),
            Some(SparseSolveOutcome::ReusedPattern)
        );
        for (r, f) in reused.iter().zip(built.iter()) {
            assert_eq!(r.to_bits(), f.to_bits(), "{reused:?} vs {built:?}");
        }
    }

    #[test]
    fn same_pattern_gives_the_same_column_order() {
        // Hub 0 with leaf 1; 2 and 3 joined to the hub and (one way
        // only, so through Aᵀ) to each other.
        let entries = vec![
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 2),
            (3, 2),
            (3, 3),
        ];
        let mut shuffled = entries.clone();
        shuffled.reverse();
        shuffled.push((3, 2));
        let a = SparsePattern::from_entries(4, entries.clone());
        let b = SparsePattern::from_entries(4, shuffled);
        let fresh = SparsePattern::from_entries(4, entries);
        assert_eq!(a, b);
        // Leaf 1 goes first; then 0, 2 and 3 all have degree 2 and the
        // tie breaks to the lowest index.
        assert_eq!(a.column_order(), [1, 0, 2, 3]);
        assert_eq!(b.column_order(), a.column_order());
        assert_eq!(a.column_order(), [1, 0, 2, 3], "the cached order is stable");
        // Computing the order does not change equality.
        assert_eq!(a, fresh);
    }

    #[test]
    fn arrowhead_factors_without_fill() {
        // Row and column 0 are full and dominate the diagonal: natural
        // order eliminates the hub first and fills L+U to n², while the
        // minimum-degree order leaves the hub for last and adds nothing.
        let n = 8;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[0] = 1.0;
            row[i] = 4.0;
        }
        rows[0].fill(1.0);
        rows[0][0] = 2.0 * n as f64;
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let (pattern, values) = sparse_from_rows(&rows);
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        assert!(sym
            .factor_and_solve(&pattern, &values, &b, &mut x)
            .is_some());
        assert_eq!(sym.lu_nnz(), pattern.nnz());
        // The hub ties with the last leaf at degree 1 and, being the
        // lower index, goes second to last.
        assert_eq!(pattern.column_order()[n - 2], 0);
        assert_close(&x, &from_rows(&rows).solve(&b).expect("nonsingular"));
    }

    #[test]
    fn sparse_refactor_in_pattern_matches_dense() {
        let rows: &[&[f64]] = &[
            &[4.0, -1.0, 0.0, -1.0],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 4.0, -1.0],
            &[-1.0, 0.0, -1.0, 4.0],
        ];
        let (pattern, mut values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 0.0, -2.0, 0.5];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        // Perturb values (same structure, same diagonal dominance) and
        // solve again: the pattern is reused. The minimum-degree order
        // of this 4-cycle is the natural one and the pivots stay on the
        // diagonal, so the result even matches a from-scratch dense
        // solve bit for bit.
        for (k, v) in values.iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k as f64 + 1.0);
        }
        let mut dense = DenseMatrix::zeros(4);
        for r in 0..4 {
            let (cols, first) = pattern.row(r);
            for (k, &c) in cols.iter().enumerate() {
                dense.set(r, c as usize, values[first + k]);
            }
        }
        let want = dense.solve(&b).expect("nonsingular");
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::ReusedPattern)
        );
        for (s, d) in x.iter().zip(want.iter()) {
            assert_eq!(s.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn sparse_repivots_when_frozen_pivot_decays() {
        // Freeze the order on a matrix where row 0 dominates column 0,
        // then collapse that entry by 12 orders of magnitude so the
        // frozen pivot fails the decay guard and a re-pivot kicks in.
        let rows: &[&[f64]] = &[&[1.0, 1.0], &[2e-2, 1.0]];
        let (pattern, mut values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 3.0];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        values[pattern.slot(0, 0).expect("in pattern")] += 1e-12 - 1.0;
        let outcome = sym
            .factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("still nonsingular");
        assert_eq!(outcome, SparseSolveOutcome::Repivoted);
        // Verify against a dense solve of the perturbed system.
        let mut dense = DenseMatrix::zeros(2);
        dense.set(0, 0, 1e-12);
        dense.set(0, 1, 1.0);
        dense.set(1, 0, 2e-2);
        dense.set(1, 1, 1.0);
        assert_close(&x, &dense.solve(&b).expect("nonsingular"));
    }

    #[test]
    fn sparse_detects_singularity() {
        let rows: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let (pattern, values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        assert!(sym
            .factor_and_solve(&pattern, &values, &[1.0, 2.0], &mut x)
            .is_none());
        // A singular matrix handed to an already-built symbolic object
        // (structure reused, values degenerate) is also caught: the
        // refactor fails the decay guard, the re-pivot build fails too.
        let rows_ok: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 1.0]];
        let (p2, mut v2) = sparse_from_rows(rows_ok);
        assert!(sym
            .factor_and_solve(&p2, &v2, &[1.0, 2.0], &mut x)
            .is_some());
        v2[p2.slot(1, 1).expect("in pattern")] += 3.0; // rows become [1,2],[2,4]
        assert!(sym
            .factor_and_solve(&p2, &v2, &[1.0, 2.0], &mut x)
            .is_none());
    }

    #[test]
    fn sparse_handles_empty_system() {
        let pattern = SparsePattern::from_entries(0, Vec::new());
        let mut sym = SymbolicLu::new();
        let mut x = vec![1.0];
        assert!(sym.factor_and_solve(&pattern, &[], &[], &mut x).is_some());
        assert!(x.is_empty());
    }

    #[test]
    fn sparse_invalidate_forces_rebuild() {
        let rows: &[&[f64]] = &[&[2.0, 1.0], &[1.0, 3.0]];
        let (pattern, values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 1.0];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        assert!(sym.is_built());
        sym.invalidate();
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
    }
}
