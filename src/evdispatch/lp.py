"""Bounded-variable linear programming with a revised simplex.

Self-contained minimization solver for problems with box-constrained
variables and sparse linear rows, built for the sizes this package produces
(tens to a few thousand rows). A small LP holds its basis inverse as a
dense array; a large one holds the basis as a product-form factor, so no
array of rows by columns is built unless numerical drift forces a rebuild.

A problem is given whole: ``LpProblem`` takes the variables' bounds and
costs and the rows in compressed sparse row form, which the crash, the
transforms and the residuals read directly. ``LpProblem.derive`` gives
the problem another objective and right-hand side, the way one window LP
is priced under several price series or entered with several stocks.

Algorithm notes:
- every row gets a slack variable whose bounds are the only encoding of the
  row sense (``<=`` slack in [0, inf), ``>=`` in (-inf, 0], ``=`` fixed at
  zero). There are no artificial columns: every slack starts basic at its
  row residual, even outside its bounds, and a triangular crash makes one
  structural column basic per equality row (Bixby, ORSA J. Comput. 4(3), 1992);
- the crash basis and its factor depend on the rows, senses and bounds
  alone, not on the costs or the right-hand side, so a problem and those
  derived from it share them (``_Start``): the first solve of any of them
  builds them, and each solve copies what its pivots change. Every solve
  takes the pivots that a solve of a freshly built problem takes;
- every variable has a finite bound (``LpProblem`` rejects one without, as
  no variable of a window LP lacks one), so a nonbasic variable always rests
  at a bound: at the lower one when both are finite;
- the crash needs no pivots: a pick is zero in every row taken before it,
  so in pick order the picks' square block is triangular. In a window LP
  the crash picks soe[t] for balance row t, with pivot 1 and -1 in row
  t + 1, so the picks form a unit chain: a first-order recurrence that one
  prefix sum evaluates (Blelloch, CMU-CS-90-190, 1990);
- the solver reads the basis only through its factor, one of two classes
  with the same methods: a candidate column, FTRAN, BTRAN, pricing, the
  start's candidate transforms, the pivot update and a copy. ``_crash``
  chooses the class once per problem, and the pivot loop never asks which
  it holds: a pivot returns the updated row of ``B^-1`` on the dense
  factor, from which phase 2 updates its reduced costs, and None on the
  chain, where they are derived afresh;
- an LP of more than ``_DENSE_ROWS`` rows whose crash is a unit chain
  keeps it as a ``_ChainFactor``, a product-form factor (Dantzig &
  Orchard-Hays, MTAC 8(46), 1954). The chain's sinks are its entries in rows no pick takes. FTRAN
  applies the chain as one ``cumsum`` and the sinks as one unbuffered
  subtraction; BTRAN subtracts each pick's sink terms slot by slot and
  applies the chain as a reversed ``cumsum``. Each pivot adds an eta
  ``I - u e_r^T``, kept multiplied out as ``I - U^T Z`` (a row of ``U`` and
  of ``Z`` each), so the pivots apply in two matrix-vector products.
  Columns are sparse scatters, and reduced costs are ``c - [A | I]^T y``
  summed from the sparse rows, ``y`` one BTRAN of the basic costs, derived
  afresh after every pivot;
- every other LP holds a ``_DenseFactor``: ``B^-1`` densely, with
  ``[A | I]`` on the columns that can enter. The slacks' unit columns make any basis block triangular,
  so ``B^-1`` follows from the inverse of the structural block over the
  rows no basic slack covers, for the crash basis at set-up and for any
  basis on the drift path; FTRAN and BTRAN are one product each (the
  start's, of all its candidates, too), and each pivot is one rank-1 update
  in place. Phase 2 updates its reduced costs from the pivot row,
  ``d -= d_q alpha_r / alpha_rq``, and derives them afresh once when they
  price no column, so drift in the updates cannot end a solve;
- ``_DENSE_ROWS`` is the measured crossover. Windows of ev1 at 15-minute
  steps (24 to 280 rows, at most two iterations each) solved as fast on
  either path (within 1%) from 78 to 92 rows. Below, the dense path won by
  up to 13%; above, it lost by 6% at 98 rows, 25% at 104 and 4.3x at 280,
  as its work grows with the square of the rows. Whole-day LPs with more
  pivots favour it longer (0.71x at 46-70 rows, about 10 iterations;
  0.83x at 92-140, 23);
- between the crash and phase 1 the start is priced once: each nonbasic
  column with two finite bounds whose reduced cost favours its other bound
  (``sign * d > opt_tol``) moves there, best score first with ties to the
  lower candidate column, unless the move takes a basic variable further
  outside its bounds than it already is (beyond ``pivot_tol``). The basis
  does not change, so neither do the reduced costs, from which phase 2
  starts when phase 1 makes no pivot, nor the candidates' FTRANs, which the
  dense path takes in one product and the chain path one per candidate.
  ``start_flips`` counts the moves, which are not iterations (Bixby, 1992,
  section 4);
- phase 1 is Wolfe's composite method in the same pivot loop: it minimises
  the sum of the basic variables' bound violations, prices from the
  infeasible rows only (one BTRAN of -1 above the upper bound, +1 below the
  lower bound and 0 elsewhere), and lets an infeasible basic variable block
  at the bound it violates (SIAM Rev. 7(1), 1965); it ends infeasible when
  a basic violation above ``FEAS_TOL`` remains;
- only columns that can enter are priced: fixed columns (equality slacks
  and ``lb == ub`` structurals) never enter, which on window LPs is about a
  quarter of all columns. Candidate column ``k`` is variable ``cols[k]`` and
  ``pos`` maps a variable back (-1 when fixed); everything per column
  (pricing signs, reduced costs) is indexed by candidate column, everything
  per variable (status, bounds, nonbasic values, the basis) by variable;
- pricing is Dantzig (most negative reduced cost) with a permanent switch to
  Bland's rule after a stall, which guarantees termination. Each column
  keeps its pricing sign (-1 at a lower bound, +1 at an upper bound, 0 when
  basic) and each basic variable its bounds; pivots keep both up to
  date and a refactorization rebuilds them, so pricing is one multiply and
  one argmax and the ratio test reads the basic bounds without a gather;
- a bound flip is taken when the entering variable hits its opposite bound
  before any basic variable hits one of its own;
- optimality and primal feasibility are re-verified from the original data
  before a solution is declared optimal: structurals and the implied slacks
  ``b - A x`` must be within ``FEAS_TOL`` of their bounds, and a NaN
  anywhere fails the check; on drift the factor is rebuilt as a
  ``_DenseFactor`` of the current basis, the way set-up builds one, from
  the columns that can enter alone, and both phases run again on it. Set-up and the
  rebuild both take the basic values as one FTRAN of ``b - A x_N`` summed
  from the sparse rows, since every finite slack bound is 0.

Deterministic by construction: same problem, same pivots, same answer.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

#: Largest bound or row violation of an optimal solution; a problem that phase
#: 1 cannot bring within it is infeasible. The schedule auditor uses it too.
FEAS_TOL = 1e-6

_SENSES = ("<=", ">=", "=")

# nonbasic/basic status codes
_AT_LB, _AT_UB, _BASIC = 0, 1, 2
# pricing score per unit reduced cost, indexed by status: a column at its
# lower bound gains from a negative d, one at its upper bound from a positive
# d; basic columns score 0
_SCORE_SIGN = np.array([-1.0, 1.0, 0.0])

#: The most rows of an LP that holds a dense basis inverse even when its crash
#: is a unit chain: the measured crossover, at which a window LP solves as
#: fast on either path (see the notes above).
_DENSE_ROWS = 96


class LpError(ValueError):
    """Raised by ``LpProblem`` for a malformed problem: sequences that do not
    fit together, inverted or unusable bounds, a variable with no finite
    bound, a non-finite number, an unknown row sense or variable id, or a
    row's column ids out of order."""


class LpProblem:
    """A minimization LP, given whole, or derived from another (see ``derive``).

    Variables carry bounds, at least one of them finite, and an objective
    coefficient, one name each. The
    rows are in compressed sparse row form: row ``i`` puts ``data[k]`` on
    variable ``indices[k]`` for ``k`` in ``indptr[i]:indptr[i + 1]``, and has
    a sense (``<=``, ``>=`` or ``=``), a right-hand side and a name; each
    row's columns are ascending and distinct. The inputs go through
    ``np.asarray``, so arrays of the right dtype are kept, not copied, and
    lists work. The shapes are checked first: sequences that differ in
    length or offsets that do not fit raise an LpError saying which. Then
    every variable and row is: the first faulty variable, else the first
    faulty row, raises an LpError naming it. The two name sequences are kept
    as given, and the solver reads a name only to report a fault.

    A problem's data is never changed after the checks. What a solve
    derives from the rows, senses and bounds alone (see ``_Start``) is kept
    with the problem by its first solve, for later solves of it and of every
    problem derived from it.
    """

    def __init__(self, name: str, lb, ub, cost, var_names: Sequence[str], indptr, indices, data,
                 senses, rhs, row_names: Sequence[str]):
        self.name, self._var_names, self._row_names = name, var_names, row_names
        self._lb, self._ub, self._cost = (np.asarray(a, dtype=float) for a in (lb, ub, cost))
        self._indptr, self._indices = (np.asarray(a, dtype=np.intp) for a in (indptr, indices))
        self._data, self._rhs = (np.asarray(a, dtype=float) for a in (data, rhs))
        self._senses = np.asarray(senses, dtype=str)
        self._row_of = _check_shapes(self._lb, self._ub, self._cost, var_names, self._indptr, self._indices,
                                     self._data, self._senses, self._rhs, row_names)  # row of each term
        _check_variables(self._lb, self._ub, self._cost, var_names)
        _check_rows(self._row_of, self._indptr, self._indices, self._data, self._senses, self._rhs, row_names,
                    len(self._lb))
        self._start = _Start()

    def derive(self, cost, rhs=None) -> LpProblem:
        """This problem with the objective ``cost`` and, unless None, the
        right-hand side ``rhs``: the same name, variables, bounds, rows and
        senses, and the same ``_Start``, so a solve of either reuses the
        crash basis and factor that the first solve of any of them built.
        Only the new arrays are checked, in the constructor's order and with
        its messages: a length that does not fit, then the first non-finite
        cost, then the first non-finite right-hand side."""
        cost = np.asarray(cost, dtype=float)
        rhs = self._rhs if rhs is None else np.asarray(rhs, dtype=float)
        n, m = len(self._lb), len(self._rhs)
        if len(cost) != n:
            raise LpError(f"variables: lb, ub, cost and var_names differ in length ({n}, {n}, {len(cost)}, {n})")
        if len(rhs) != m:
            raise LpError(f"rows: rhs, senses and row_names differ in length ({len(rhs)}, {m}, {m})")
        if not np.isfinite(cost).all():
            raise LpError(f"variable {self._var_names[int(np.argmin(np.isfinite(cost)))]}: unusable bounds or cost")
        if not np.isfinite(rhs).all():
            i = int(np.argmin(np.isfinite(rhs)))
            raise LpError(f"constraint {self._row_names[i]!r}: non-finite right-hand side {rhs[i]}")
        derived = copy.copy(self)
        derived._cost, derived._rhs = cost, rhs
        return derived

    @property
    def num_variables(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    @property
    def _rows(self) -> list[dict[int, float]]:
        """Each row as a {variable: coefficient} dict, for row-at-a-time readers."""
        idx, val, ptr = self._indices.tolist(), self._data.tolist(), self._indptr.tolist()
        return [dict(zip(idx[a:b], val[a:b])) for a, b in zip(ptr[:-1], ptr[1:])]


def _check_variables(lb: np.ndarray, ub: np.ndarray, cost: np.ndarray, names: Sequence[str]) -> None:
    """Raise the LpError for the first variable with inverted or unusable
    bounds, no finite bound or a non-finite cost."""
    ok = (lb <= ub) & (lb < INF) & (ub > -INF) & ((lb > -INF) | (ub < INF)) & np.isfinite(cost)
    if not ok.all():
        j = int(np.argmin(ok))
        if not lb[j] <= ub[j]:
            raise LpError(f"variable {names[j]}: inverted bounds lb={lb[j]} > ub={ub[j]}")
        if lb[j] == -INF and ub[j] == INF:
            raise LpError(f"variable {names[j]}: no finite bound")
        raise LpError(f"variable {names[j]}: unusable bounds or cost")


def _check_shapes(lb: np.ndarray, ub: np.ndarray, cost: np.ndarray, var_names: Sequence[str], indptr: np.ndarray,
                  indices: np.ndarray, data: np.ndarray, senses: np.ndarray, rhs: np.ndarray,
                  row_names: Sequence[str]) -> np.ndarray:
    """Raise an LpError when the arrays do not fit together: the variables'
    four sequences or the rows' three differ in length, or ``indptr`` is not
    ``len(rhs) + 1`` offsets that start at 0, never decrease and end at
    ``len(indices) == len(data)``. Returns the row of each term."""
    n, m, nnz = len(lb), len(rhs), len(indices)
    if not len(ub) == len(cost) == len(var_names) == n:
        raise LpError(f"variables: lb, ub, cost and var_names differ in length "
                      f"({n}, {len(ub)}, {len(cost)}, {len(var_names)})")
    if not len(senses) == len(row_names) == m:
        raise LpError(f"rows: rhs, senses and row_names differ in length ({m}, {len(senses)}, {len(row_names)})")
    if len(data) != nnz:
        raise LpError(f"terms: indices and data differ in length ({nnz}, {len(data)})")
    if len(indptr) != m + 1:
        raise LpError(f"indptr has {len(indptr)} offsets for {m} rows, not {m + 1}")
    if indptr[0] != 0 or indptr[-1] != nnz:
        raise LpError(f"indptr runs from {indptr[0]} to {indptr[-1]}, not from 0 to {nnz}")
    step = np.diff(indptr)
    if (step < 0).any():
        i = int(np.argmax(step < 0))
        raise LpError(f"constraint {row_names[i]!r}: indptr falls from {indptr[i]} to {indptr[i + 1]}")
    return np.repeat(np.arange(m), step)


def _check_rows(row_of: np.ndarray, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                senses: np.ndarray, rhs: np.ndarray, names: Sequence[str], n: int) -> None:
    """Raise the LpError for the first row with an unknown sense, a non-finite
    right-hand side or a faulty term: an unknown variable id, a non-finite
    coefficient or a column id not above the one before it. ``row_of``
    holds each term's row and ``n`` is the number of variables."""
    # offset by n per row, valid column ids rise strictly across the rows
    # exactly when they do within each; a term whose key does not rise is
    # out of order, unless a term's id is unknown, which is a fault anyway
    key = row_of * n
    key += indices
    unordered = key[1:] <= key[:-1]
    # a negative id reads as a huge unsigned one
    if (((senses == "=") | (senses == "<=") | (senses == ">=")).all() and np.isfinite(rhs).all()
            and np.isfinite(data).all() and (not indices.size or indices.view(np.uintp).max() < n)
            and not unordered.any()):
        return
    bad = ~np.isin(senses, _SENSES) | ~np.isfinite(rhs)
    bad_term = ~np.isfinite(data) | (indices < 0) | (indices >= n)
    bad_term[1:] |= unordered
    bad[row_of[bad_term]] = True
    i = int(np.argmax(bad))
    terms = slice(indptr[i], indptr[i + 1])
    _reject(names[i], str(senses[i]), rhs[i], indices[terms], data[terms], n)


def _reject(name: str, sense: str, rhs: float, var: np.ndarray, coef: np.ndarray, n: int) -> None:
    """Raise the LpError for the first fault of one row: its sense, its
    right-hand side, then its terms in the order given."""
    if sense not in _SENSES:
        raise LpError(f"constraint {name!r}: unknown sense {sense!r}")
    if not np.isfinite(rhs):
        raise LpError(f"constraint {name!r}: non-finite right-hand side {rhs}")
    prev = -1
    for j, c in zip(var.tolist(), coef.tolist()):
        if not 0 <= j < n:
            raise LpError(f"constraint {name!r}: unknown variable id {j}")
        if not np.isfinite(c):
            raise LpError(f"constraint {name!r}: non-finite coefficient {c} on variable {j}")
        if j <= prev:
            raise LpError(f"constraint {name!r}: variable id {j} "
                          + ("repeats" if j == prev else f"follows the larger id {prev}"))
        prev = j


def _crash_entries(row_of: np.ndarray, indices: np.ndarray, data: np.ndarray, fixed: np.ndarray,
                   width: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The equality rows' nonzero entries in the crash's order: by row, then
    those whose column has a nonzero bound range (the candidates), widest
    first, ties to the lowest index. ``fixed`` marks the rows whose slack
    is fixed (the equality rows) and ``width`` holds each structural's bound
    range. Returns each entry's row and column and whether it is a
    candidate."""
    eq = fixed[row_of] & (data != 0.0)
    row, col = row_of[eq], indices[eq]
    w = width[col]
    order = np.lexsort((col, -w, w <= 0.0, row))
    return row[order], col[order], w[order] > 0.0


def _crash_picks(row: np.ndarray, col: np.ndarray, cand: np.ndarray, m: int, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The triangular crash over ``_crash_entries``, in arrays: each equality
    row in order takes its first candidate that is zero in every row taken
    before it. Returns the taken rows, ascending, and their picks.

    The rule is sequential, since a row left without a pick blocks nothing,
    so it is evaluated in rounds: every row with a candidate is assumed
    taken, which decides each row's pick at once, and the first assumed row
    left without one is dropped for the next round. Up to that row the
    assumption held, so every round agrees with the sequential rule there,
    and a round that drops nothing agrees everywhere; window LPs take one
    round."""
    live = np.zeros(m, dtype=bool)  # the rows assumed taken
    live[row[cand]] = True
    while True:
        # the first live row nonzero in each column blocks it for the rows after
        first = np.full(n, m)
        held = live[row]
        np.minimum.at(first, col[held], row[held])
        free = np.flatnonzero(cand & (first[col] >= row))
        first_free = np.ones(len(free), dtype=bool)  # each row's first free candidate is its pick
        first_free[1:] = row[free[1:]] != row[free[:-1]]
        take = free[first_free]
        missing = live.copy()
        missing[row[take]] = False
        if not missing.any():
            return row[take], col[take]
        live[np.argmax(missing)] = False


def _chain(p: LpProblem, cols: np.ndarray, rows: np.ndarray, picks: np.ndarray) -> _ChainFactor | None:
    """The crash's factor on the chain path, or None when its picks do not
    form a unit chain. ``cols`` are the candidate columns, and ``rows`` and
    ``picks`` the crash's, in pick order.

    Each picked column splits into its pivot, its core entries (in rows of
    later picks) and its sink entries (in rows no pick takes, which no eta
    reads). The core is a unit chain when each pick but the last has pivot
    1 and one core entry, -1 in the next pick's row, as soe[t] has in
    bal[t + 1]. The factor then holds the columns of ``[A | I]`` in
    compressed sparse column form and the chain: the pick rows, the last
    pivot, the sink entries as (pick, row, value) arrays in pick order and,
    for BTRAN, the same entries grouped in slots: a pick's n-th sink entry
    is in slot n."""
    n, m = p.num_variables, p.num_constraints
    # the columns of [A | I], each in row order
    var = np.concatenate([p._indices, n + np.arange(m)])
    order = np.argsort(var, kind="stable")
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(var, minlength=n + m))])
    col_row, col_val = np.concatenate([p._row_of, np.arange(m)])[order], np.concatenate([p._data, np.ones(m)])[order]
    count = col_ptr[picks + 1] - col_ptr[picks]
    k = np.repeat(np.arange(len(picks)), count)  # the pick of each entry
    at = np.arange(len(k)) + np.repeat(col_ptr[picks] - np.cumsum(count) + count, count)
    e_row, e_val = col_row[at], col_val[at]
    own = e_row == rows[k]
    taken = np.zeros(m, dtype=bool)
    taken[rows] = True
    core = taken[e_row] & ~own
    pivot = e_val[own]
    link = k[core]
    if not (len(link) == len(picks) - 1 and (link == np.arange(len(link))).all()
            and (e_row[core] == rows[1:]).all() and (e_val[core] == -1.0).all() and (pivot[:-1] == 1.0).all()):
        return None
    sink = ~taken[e_row]
    k, e_row, e_val = k[sink], e_row[sink], e_val[sink]
    slot = np.arange(len(k)) - np.searchsorted(k, k)
    by_slot = np.argsort(slot, kind="stable")
    ends = np.cumsum(np.bincount(slot)).tolist()
    slots = [(k[by_slot[a:b]], e_row[by_slot[a:b]], e_val[by_slot[a:b]]) for a, b in zip([0, *ends], ends)]
    return _ChainFactor(p, cols, (col_ptr, col_row, col_val), (rows, float(pivot[-1]), k, e_row, e_val, slots))


class _DenseFactor:
    """A basis factor held densely: ``B^-1``, and the columns of ``[A | I]``
    that can enter as the rows of ``columns``, candidate column ``k``'s in
    row ``k`` (see ``_Simplex._invert``). FTRAN, BTRAN, pricing and the
    start's transforms of all its candidates are one product each, and a
    pivot is one rank-1 update in place.

    Both factor classes have the same methods; ``_Simplex`` reads its
    factor through them alone."""

    def __init__(self, columns: np.ndarray, inverse: np.ndarray):
        self.columns, self.inverse = columns, inverse

    def copy(self) -> _DenseFactor:
        """A factor whose pivots leave this one as it is; the columns never
        change, so they are shared."""
        return _DenseFactor(self.columns, self.inverse.copy())

    def column(self, k: int) -> np.ndarray:
        """Candidate column ``k`` of ``[A | I]``, dense; do not write to it."""
        return self.columns[k]

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v``."""
        return self.inverse @ v

    def ftrans(self, cand: np.ndarray) -> np.ndarray:
        """The FTRANs of the candidate columns ``cand``, as rows."""
        return self.columns[cand] @ self.inverse.T

    def btran(self, y: np.ndarray) -> np.ndarray:
        """``B^-T y``, that is ``y^T B^-1``."""
        return y @ self.inverse

    def prices(self, y: np.ndarray) -> np.ndarray:
        """``y^T [A | I]`` on the candidate columns."""
        return self.columns @ y

    def pivot(self, r: int, w: np.ndarray) -> np.ndarray:
        """Exchange basic row ``r`` for the column whose FTRAN is ``w``:
        ``B^-1`` becomes ``(I - (w - e_r) e_r^T / w_r) B^-1``. Returns its
        row ``r``, which prices the pivot row of the tableau."""
        row = self.inverse[r] / w[r]
        self.inverse -= w[:, None] * row
        self.inverse[r] = row
        return self.inverse[r]


class _ChainFactor:
    """A basis factor in product form: the crash's unit chain (see
    ``_chain``), then one eta per pivot, with the columns of ``[A | I]`` in
    compressed sparse column form. No array of rows by columns is built.

    FTRAN applies the chain as one prefix sum and its sinks as one
    unbuffered subtraction, then the pivots' etas in two products; BTRAN
    applies them the other way round. Each pivot's eta ``I - u e_r^T`` is
    kept multiplied out as ``I - U^T Z``: ``U`` and ``Z`` hold their rows
    in the first ``updates`` rows and grow when full. Columns are sparse
    scatters, and prices are summed from the problem's sparse rows."""

    def __init__(self, p: LpProblem, cols: np.ndarray, csc: tuple, chain: tuple):
        self.n, self.m, self.cols = p.num_variables, p.num_constraints, cols
        self.indices, self.data, self.row_of = p._indices, p._data, p._row_of
        self.col_ptr, self.col_row, self.col_val = csc
        self.chain = chain
        self.U, self.Z, self.updates = np.empty((0, self.m)), np.empty((0, self.m)), 0

    def copy(self) -> _ChainFactor:
        """A factor whose pivots leave this one as it is; only the etas
        change, so everything else is shared."""
        out = copy.copy(self)
        out.U, out.Z = self.U.copy(), self.Z.copy()
        return out

    def column(self, k: int) -> np.ndarray:
        """Candidate column ``k`` of ``[A | I]``, dense and new."""
        v = np.zeros(self.m)
        a, b = self.col_ptr[self.cols[k]], self.col_ptr[self.cols[k] + 1]
        v[self.col_row[a:b]] = self.col_val[a:b]
        return v

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v``, overwriting ``v``: the chain is one prefix sum and the
        sinks one unbuffered subtraction, and the pivots' etas two
        products."""
        rows, pivot, k, sink_row, sink_val, _ = self.chain
        t = v[rows].cumsum()
        t[-1] /= pivot
        v[rows] = t
        np.subtract.at(v, sink_row, sink_val * t[k])
        if self.updates:
            k = self.updates
            v -= (self.Z[:k] @ v) @ self.U[:k]
        return v

    def ftrans(self, cand: np.ndarray):
        """The FTRANs of the candidate columns ``cand``, one at a time."""
        return (self.ftran(self.column(k)) for k in cand.tolist())

    def btran(self, y: np.ndarray) -> np.ndarray:
        """``B^-T y``, that is ``y^T B^-1``: the pivots' etas in two products,
        then the chain, skipped when ``y`` is zero: each pick's sink terms
        are subtracted in its entries' order, one slot at a time, and the
        chain is one reversed prefix sum."""
        if self.updates:
            k = self.updates
            y = y - (self.U[:k] @ y) @ self.Z[:k]
        if not y.any():
            return y
        rows, pivot, _, _, _, slots = self.chain
        t = y[rows]
        for k, sink_row, sink_val in slots:
            t[k] -= sink_val * y[sink_row]
        t[-1] /= pivot
        y = y.copy()
        y[rows] = t[::-1].cumsum()[::-1]
        return y

    def prices(self, y: np.ndarray) -> np.ndarray:
        """``y^T [A | I]`` on the candidate columns, summed from the sparse
        rows."""
        yA = np.bincount(self.indices, weights=self.data * y[self.row_of], minlength=self.n)
        return np.concatenate([yA, y])[self.cols]

    def pivot(self, r: int, w: np.ndarray) -> None:
        """Exchange basic row ``r`` for the column whose FTRAN is ``w``: the
        eta ``E^-1 = I - u e_r^T``, with ``u = (w - e_r) / w_r``, joins the
        product ``P = I - U^T Z`` of the pivots' etas as a row ``u`` of ``U``
        and the row ``e_r^T P`` of ``Z``. Returns None: the chain keeps no
        row of ``B^-1`` to price the pivot row from."""
        j = self.updates
        if j == len(self.U):  # full: room for as many again and four more
            self.U, self.Z = (np.vstack([a, np.empty((j + 4, self.m))]) for a in (self.U, self.Z))
        u, z = self.U[j], self.Z[j]
        np.divide(w, w[r], out=u)
        u[r] = 1.0 - 1.0 / w[r]
        np.dot(-self.U[:j, r], self.Z[:j], out=z)
        z[r] += 1.0
        self.updates = j + 1


class _Start:
    """What a solve derives from a problem's rows, senses and bounds alone,
    built by the first solve of the problem or of one it shares this with
    (see ``LpProblem.derive``), and only read after that:

    - ``bounds``: the bounds of the structurals and slacks, the candidate
      columns and each variable's candidate column (see ``_Simplex``);
    - ``crash``: the crash basis, its nonbasic statuses and values, its
      number of picks, and its factor: a ``_DenseFactor`` or a
      ``_ChainFactor`` (see ``_Simplex._crash``).

    A solve copies what its pivots change: the basis, the statuses, the
    nonbasic values and the factor (see the factor's ``copy``)."""

    bounds = crash = None


@dataclass(frozen=True)
class SolveStats:
    """What one solve did; the crash pivots of set-up and the start's bound
    moves are not iterations, the phase-1 and phase-2 pivots and the bound
    flips are. The stage wall times (seconds) are left out of comparisons
    and of the repr, so two solves of one problem compare and print equal."""

    n: int  # structural columns
    m: int  # rows
    tableau_columns: int  # columns that can enter (ub > lb), the ones priced
    crash_columns: int
    start_flips: int  # nonbasic columns moved to their other bound before phase 1
    phase1_pivots: int
    phase2_pivots: int
    bound_flips: int
    bland_from: int | None  # iteration at which Bland's rule took over, if it did
    refactorizations: int
    max_violation: float  # worst bound or row violation of the final point
    setup_s: float = field(default=0.0, compare=False, repr=False)  # crash and factor
    start_s: float = field(default=0.0, compare=False, repr=False)  # the start's bound moves
    phase1_s: float = field(default=0.0, compare=False, repr=False)
    phase2_s: float = field(default=0.0, compare=False, repr=False)  # and the final checks


@dataclass
class LpSolution:
    """Solver outcome. ``x`` holds one value per problem variable when optimal."""

    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int
    stats: SolveStats | None = None


def solve(p: LpProblem) -> LpSolution:
    """Solve a problem to optimality, or classify it infeasible/unbounded.

    An optimal solution violates no bound or row by more than ``FEAS_TOL``;
    running out of iterations (``200 * (m + n + 20)``) reports the distinct
    iteration_limit status instead of raising.
    """
    return _Simplex(p).run()


class _Simplex:
    def __init__(self, p: LpProblem):
        self.p = p
        self.opt_tol = 1e-9
        self.pivot_tol = 1e-9
        n, m = p.num_variables, p.num_constraints
        self.n_struct = n
        self.m = m

        # the structural block stays in the problem's sparse rows; the slacks'
        # columns are the identity
        self.row_of = p._row_of  # row of each sparse entry
        self.b = p._rhs.copy()

        if p._start.bounds is None:
            # the slack bounds are the one place the row sense is encoded
            sense = p._senses
            lb = np.concatenate([p._lb, np.where(sense == ">=", -INF, 0.0)])
            ub = np.concatenate([p._ub, np.where(sense == "<=", INF, 0.0)])
            # candidate column k is variable cols[k]; fixed variables never
            # enter and have no candidate column (pos -1)
            cols = np.flatnonzero(ub - lb > 0.0)
            pos = np.full(n + m, -1, dtype=np.intp)
            pos[cols] = np.arange(len(cols))
            p._start.bounds = lb, ub, cols, pos
        self.lb, self.ub, self.cols, self.pos = p._start.bounds
        self.cost = np.concatenate([p._cost, np.zeros(m)])
        self.max_iter = 200 * (m + n + 20)
        self.iterations = 0
        self.crash_columns = self.start_flips = self.phase1_pivots = self.flips = self.refactorizations = 0
        self.bland_from: int | None = None

    # -- setup -------------------------------------------------------------

    def _setup(self) -> None:
        """The crash basis and its factor (see ``_crash``), built by the
        first solve that shares the problem's ``_Start`` and copied where
        pivots change them, then the basic values of this right-hand side."""
        start = self.p._start
        if start.crash is None:
            start.crash = self._crash()
        basis, status, nb_value, self.crash_columns, factor = start.crash
        self.basis, self.status, self.nb_value = basis.copy(), status.copy(), nb_value.copy()
        self._install(factor.copy())

    def _crash(self) -> tuple:
        """Slack basis, then a triangular crash (see ``_crash_picks``), kept
        as a ``_ChainFactor`` for an LP of more than ``_DENSE_ROWS`` rows
        when its picks form a unit chain (see ``_chain``); every other LP
        holds a ``_DenseFactor`` of its crash basis (see ``_invert``).
        Returns what ``_Start.crash`` holds."""
        n, m, p = self.n_struct, self.m, self.p
        row, col, cand = _crash_entries(self.row_of, p._indices, p._data, self.pos[n:] < 0,
                                        self.ub[:n] - self.lb[:n])
        rows, picks = _crash_picks(row, col, cand, m, n)
        basis = n + np.arange(m)
        basis[rows] = picks
        factor = _chain(p, self.cols, rows, picks) if m > _DENSE_ROWS else None
        if factor is None:
            factor = self._invert(basis, rows, picks)
        # a nonbasic variable rests at its lower bound, or at its upper one
        # when the lower is -inf (``LpProblem`` requires a finite bound)
        status = np.where(np.isfinite(self.lb), _AT_LB, _AT_UB).astype(np.int8)
        status[basis] = _BASIC
        nb_value = np.where(status == _AT_LB, self.lb, np.where(status == _AT_UB, self.ub, 0.0))
        return basis, status, nb_value, len(picks), factor

    def _install(self, factor: _DenseFactor | _ChainFactor) -> None:
        """Go on from the current basis on ``factor``: the basic values are
        one FTRAN of ``b - A x_N`` (every finite slack bound is 0, so only
        the nonbasic structurals count), and the reduced costs, the pricing
        signs and the basic bounds are derived anew."""
        self.factor = factor
        x = np.where(self.status[:self.n_struct] == _BASIC, 0.0, self.nb_value[:self.n_struct])
        self.xB = factor.ftran(self.b - self._row_products(x))
        self.d = None  # reduced costs of the current basis, once derived
        # pivots keep the pricing sign of every candidate column and the
        # bounds of the basic variables up to date
        self.sign = _SCORE_SIGN[self.status[self.cols]]
        self.lbB = self.lb[self.basis]
        self.ubB = self.ub[self.basis]

    def _place_bounds(self) -> None:
        """Move nonbasic columns with two finite bounds to the bound their
        reduced cost favours, best score first (ties to the lower candidate
        column), each unless it takes a basic variable further outside its
        bounds than it already is. The basis is unchanged, so one pass of
        reduced costs prices every move, and phase 2 starts from it when
        phase 1 makes no pivot."""
        self.d = self._reduced_costs()
        score = self.sign * self.d
        width = (self.ub - self.lb)[self.cols]
        cand = np.flatnonzero((score > self.opt_tol) & (width < INF))
        cand = cand[np.argsort(-score[cand], kind="stable")]
        tol = self.pivot_tol
        # where each basic variable may go: its bounds, widened to where it is
        lo, hi = np.minimum(self.lbB, self.xB) - tol, np.maximum(self.ubB, self.xB) + tol
        for k, w in zip(cand.tolist(), self.factor.ftrans(cand)):
            q = self.cols[k]
            sigma = -self.sign[k]  # +1 up from the lower bound, -1 down from the upper
            xB = self.xB - w * (sigma * width[k])
            if ((xB < lo) | (xB > hi)).any():
                continue
            self.xB = xB
            lo, hi = np.minimum(self.lbB, xB) - tol, np.maximum(self.ubB, xB) + tol
            self.status[q] = _AT_UB if sigma > 0.0 else _AT_LB
            self.nb_value[q] = self.ub[q] if sigma > 0.0 else self.lb[q]
            self.sign[k] = sigma
            self.start_flips += 1

    def _invert(self, basis: np.ndarray, rows: np.ndarray, picks: np.ndarray) -> _DenseFactor:
        """The dense factor of ``basis``, which holds the structural columns
        ``picks`` (in basis order, each able to enter) and the slacks of
        every row but ``rows``: the candidate columns of ``[A | I]``,
        scattered from the sparse rows, and ``B^-1``.

        A slack's column is a unit vector, so only the structural block
        ``L = P[rows]`` is inverted, with ``P`` the picks' columns: were
        each basic slack in its own row's position and ``picks[j]`` in
        ``rows[j]``'s, as in the crash basis, ``B^-1`` would be the identity
        but in columns ``rows``, which hold ``-P L^-1``, and ``L^-1`` in rows
        ``rows`` (``P``, ``L`` and ``X`` below are the transposes of these).
        Its rows are then taken in the basis's order. A basis that holds a
        column twice is singular: a structural twice makes ``L`` singular and
        a slack twice makes it not square."""
        columns = np.zeros((len(self.cols), self.m))
        j, s = self.pos[self.p._indices], self.pos[self.n_struct:]
        columns[j[j >= 0], self.row_of[j >= 0]] = self.p._data[j >= 0]
        columns[s[s >= 0], np.flatnonzero(s >= 0)] = 1.0
        P = columns[self.pos[picks]]
        try:
            L_inv = np.linalg.inv(P[:, rows])
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"singular basis in {self.p.name!r}: {exc}") from exc
        X = L_inv @ P
        np.negative(X, out=X)
        X[:, rows] = L_inv
        at = basis - self.n_struct  # the row of that inverse for each basic variable
        at[at < 0] = rows
        inverse = np.zeros((self.m, self.m))
        inverse[np.arange(self.m), at] = 1.0
        inverse[:, rows] = X.T[at]
        return _DenseFactor(columns, inverse)

    # -- helpers -----------------------------------------------------------

    def _reduced_costs(self) -> np.ndarray:
        return self.cost[self.cols] - self.factor.prices(self.factor.btran(self.cost[self.basis]))

    def _row_products(self, x: np.ndarray) -> np.ndarray:
        """``A x`` from the sparse rows, each row summed in column order."""
        p = self.p
        return np.bincount(self.row_of, weights=p._data * x[p._indices], minlength=self.m)

    def _refactorize(self) -> None:
        """Rebuild the factor and basic values from the original columns: a
        dense factor of the basis (see ``_invert``), on which the solve goes
        on."""
        self.refactorizations += 1
        slack = self.basis >= self.n_struct
        uncovered = np.bincount(self.basis[slack] - self.n_struct, minlength=self.m) == 0
        self._install(self._invert(self.basis, np.flatnonzero(uncovered), self.basis[~slack]))

    def _assemble_x(self) -> np.ndarray:
        x = self.nb_value.copy()
        x[self.basis] = self.xB
        return x

    def _violation(self, x: np.ndarray) -> float:
        """Worst bound/row violation of a candidate point, original data.

        Rows are checked through their implied slacks ``b - A x`` against the
        slack bounds; ``np.max`` propagates NaN, so a NaN point never passes.
        """
        n = self.n_struct
        xs = np.concatenate([x[:n], self.b - self._row_products(x[:n])])
        return float(np.max(np.maximum(self.lb - xs, xs - self.ub), initial=0.0))

    # -- core iteration ----------------------------------------------------

    def _price(self, d: np.ndarray, bland: bool) -> int:
        """Pick the entering candidate column, or -1 when none is eligible (optimality)."""
        score = self.sign * d
        if not score.size:
            return -1
        # the first eligible column is the one Bland's rule takes
        q = int((score > self.opt_tol if bland else score).argmax())
        return q if score[q] > self.opt_tol else -1

    def _pivot(self, r: int, k: int, w: np.ndarray, entering_val: float, leaving_status: int) -> np.ndarray | None:
        """Exchange basic row ``r`` for candidate column ``k``, whose FTRAN is
        ``w``, in the basis and in the factor; the leaver rests at a bound.
        Returns what the factor's ``pivot`` returns."""
        leaving, q = self.basis[r], self.cols[k]
        self.status[leaving] = leaving_status
        self.nb_value[leaving] = self.lb[leaving] if leaving_status == _AT_LB else self.ub[leaving]
        if self.pos[leaving] >= 0:
            self.sign[self.pos[leaving]] = _SCORE_SIGN[leaving_status]
        self.basis[r] = q
        self.status[q] = _BASIC
        self.sign[k] = 0.0
        self.lbB[r] = self.lb[q]
        self.ubB[r] = self.ub[q]
        self.xB[r] = entering_val
        return self.factor.pivot(r, w)

    def _iterate(self, phase1: bool) -> str:
        """Pivot until no column improves the phase's objective: the sum of
        bound violations in phase 1, which ends infeasible when a violation
        above ``FEAS_TOL`` remains; the cost in phase 2, whose reduced costs
        are updated or derived afresh after every pivot."""
        stall = 0
        stall_limit = 50 + 2 * (self.m + self.n_struct)
        updated = False
        while True:
            bland = self.bland_from is not None
            lbB, ubB = self.lbB, self.ubB
            if phase1:
                gap = np.maximum(lbB - self.xB, self.xB - ubB)
                out = gap > self.pivot_tol
                if not out.any():
                    return OPTIMAL
                # a basic variable costs -1 below its lower bound, +1 above its
                # upper, and blocks only at the bound it violates
                above = out & (self.xB > ubB)
                d = self.factor.prices(self.factor.btran(np.where(above, -1.0, np.where(out, 1.0, 0.0))))
                lbB, ubB = (np.where(above, ubB, np.where(out, -INF, lbB)),
                            np.where(above, INF, np.where(out, lbB, ubB)))
            else:
                if self.d is None:
                    self.d = self._reduced_costs()
                d = self.d
            k = self._price(d, bland)
            if k < 0:
                if phase1:
                    return INFEASIBLE if gap.max() > FEAS_TOL else OPTIMAL
                if updated:
                    self.d, updated = None, False
                    continue
                return OPTIMAL
            if self.iterations >= self.max_iter:
                return ITERATION_LIMIT
            self.iterations += 1

            q = self.cols[k]
            sigma = -1.0 if self.status[q] == _AT_UB else 1.0
            # ratio test: a row whose |w| exceeds pivot_tol blocks where its
            # basic variable, moving by -sigma * w per unit, meets a bound
            w = self.factor.ftran(self.factor.column(k))
            falls = w > 0.0 if sigma > 0.0 else w < 0.0  # sigma * w > 0
            aw = np.abs(w)
            room = np.where(falls, self.xB - lbB, ubB - self.xB)
            blocks = aw > self.pivot_tol
            np.maximum(room, 0.0, out=room)
            ratios = np.where(blocks, np.divide(room, aw, out=room, where=blocks), INF)
            t_rows = ratios.min() if self.m else INF
            t_flip = self.ub[q] - self.lb[q]
            delta = min(t_rows, t_flip)
            if delta == INF:
                if phase1:
                    raise ArithmeticError("phase-1 objective cannot be unbounded")
                return UNBOUNDED

            if delta <= 1e-12:
                stall += 1
                if stall > stall_limit and not bland:
                    self.bland_from = self.iterations
            else:
                stall = 0

            if t_flip <= t_rows:
                # entering variable runs to its opposite bound; basis unchanged
                self.flips += 1
                self.xB = self.xB - w * (sigma * t_flip)
                self.status[q] = _AT_UB if self.status[q] == _AT_LB else _AT_LB
                self.nb_value[q] = self.ub[q] if self.status[q] == _AT_UB else self.lb[q]
                self.sign[k] = -self.sign[k]
                continue

            blocking = ratios <= delta + 1e-9
            if bland:
                cand = np.flatnonzero(blocking)
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(np.where(blocking, aw, -1.0).argmax())

            self.phase1_pivots += phase1
            entering_val = self.nb_value[q] + sigma * delta
            self.xB = self.xB - w * (sigma * delta)
            # a feasible leaver rests at the bound it moves toward, an
            # infeasible one at the bound it violated, on the other side
            infeasible = phase1 and bool(out[r])
            row = self._pivot(r, k, w, entering_val, _AT_LB if falls[r] != infeasible else _AT_UB)
            if phase1 or row is None:
                self.d = None
            else:  # row r of the updated inverse prices alpha_r / alpha_rq
                d -= d[k] * self.factor.prices(row)
                d[k], updated = 0.0, True

    def run(self) -> LpSolution:
        t0 = perf_counter()
        self._setup()
        t1 = perf_counter()
        self._place_bounds()
        t2 = perf_counter()
        phase1_s = 0.0
        for attempt in range(4):
            t = perf_counter()
            status = self._iterate(phase1=True)
            phase1_s += perf_counter() - t
            if status == OPTIMAL:
                status = self._iterate(phase1=False)
            x = self._assemble_x()
            violation = self._violation(x)
            if status != OPTIMAL or violation <= FEAS_TOL:
                break
            self._refactorize()  # numerical drift: rebuild and keep iterating
        else:
            raise ArithmeticError(
                f"simplex failed to reach a verified solution for {self.p.name!r}"
            )
        t3 = perf_counter()
        n = self.n_struct
        stats = SolveStats(
            n, self.m, len(self.cols), self.crash_columns, self.start_flips, self.phase1_pivots,
            self.iterations - self.phase1_pivots - self.flips, self.flips,
            self.bland_from, self.refactorizations, violation,
            t1 - t0, t2 - t1, phase1_s, t3 - t2 - phase1_s,
        )
        if status != OPTIMAL:
            return LpSolution(status, None, None, self.iterations, stats)
        return LpSolution(status, float(self.cost[:n] @ x[:n]), x[:n].copy(), self.iterations, stats)
