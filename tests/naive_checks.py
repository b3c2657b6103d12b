"""Exhaustive reference checkers for family validity, used by the verifier
tests and the mutation-testing acceptance criterion, the LP feasibility
oracle of the geometry tests, and the list-filtering protocol rounds that
the bit-sliced rounds of ``bracketkit.protocols`` are compared against.

Deliberately written with frozensets and plain loops: no bitmask tricks, no
witness maps, nothing shared with the library's verifiers beyond arithmetic.
The LP reference is the textbook Fraction tableau, independent of the
library's integer simplex (``bracketkit.lp``), which the tests compare
against it.

The per-bit re-indexing of a mask into a universe and back
(``naive_compress``/``naive_expand``) is the reference for
``bracketkit.project`` and for the constructions, which build their
sub-systems in the parent's indices: ``_reference_bootstrap`` is the
bootstrap path that re-indexes each group into its member instead.
"""

import math
from fractions import Fraction

from bracketkit.constructions import small_set_container
from bracketkit.errors import InputError
from bracketkit.packing import greedy_delta_packing
from bracketkit.setsystem import SetSystem, size_band
from bracketkit.verify import find_cover


def _sets(masks, n):
    return [frozenset(i for i in range(n) if m >> i & 1) for m in masks]


def naive_compress(masks, universe):
    """Each mask's bits at the universe's set positions, packed low."""
    positions = [i for i in range(universe.bit_length()) if universe >> i & 1]
    out = []
    for mask in masks:
        local = 0
        for j, i in enumerate(positions):
            if mask >> i & 1:
                local |= 1 << j
        out.append(local)
    return out


def naive_expand(local, universe):
    """Each local mask's low bits scattered onto the universe's set positions."""
    positions = [i for i in range(universe.bit_length()) if universe >> i & 1]
    out = []
    for mask in local:
        full = 0
        for j, i in enumerate(positions):
            if mask >> j & 1:
                full |= 1 << i
        out.append(full)
    return out


def _reference_bootstrap(system, eps, delta, provider):
    """The witness map (range -> piece) of ``bootstrap_interval_mnet`` by
    re-indexing: the same band and packing, and for each group of more than
    one range the complements of its ranges re-indexed into the member P,
    a small-set container of them on (|P|, ...), and the complements of
    their covers in P expanded back.  A group of one takes its member."""
    n = system.n
    lo, hi = math.ceil(delta * n), min(n, math.floor((1 + eps) * delta * n))
    band = SetSystem(n, size_band(system.ranges, lo, hi))
    if not band.ranges:
        return {}
    packing = greedy_delta_packing(band, math.floor(eps * delta * n))
    eps_prime = 3 * eps / (2 + 2 * eps)
    witness = {}
    for member, group in zip(packing.members, packing.groups):
        if len(group) == 1:
            witness[member] = member
            continue
        p_size = member.bit_count()
        local_full = (1 << p_size) - 1
        comps = [local_full ^ local for local in naive_compress(group, member)]
        cont = small_set_container(SetSystem.from_masks(p_size, comps), eps_prime, eps, provider)
        slack_cap = math.floor(cont.eps * p_size)
        pieces = [local_full ^ find_cover(cont.covers, cont.witness.get(c), c, slack_cap) for c in comps]
        witness.update(zip(group, naive_expand(pieces, member)))
    return witness


def naive_mnet_ok(system, pieces, lam, eps):
    n = system.n
    lam = Fraction(lam)
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    piece_sets = _sets(pieces, n)
    for r in ranges:
        if Fraction(len(r)) < eps * n:
            continue
        if not any(p <= r and Fraction(len(p)) >= lam * len(r) for p in piece_sets):
            return False
    return True


def naive_container_ok(system, covers, eps):
    n = system.n
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    cover_sets = _sets(covers, n)
    for r in ranges:
        if not any(r <= c and Fraction(len(c - r)) <= eps * n for c in cover_sets):
            return False
    return True


def naive_bracket_ok(system, sets, eps):
    n = system.n
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    family = _sets(sets, n)
    for r in ranges:
        ok = False
        for lo in family:
            if not lo <= r:
                continue
            for hi in family:
                if r <= hi and Fraction(len(hi - lo)) <= eps * n:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def feasible_with_inequalities(eq_rows, eq_rhs, le_rows=(), le_rhs=()):
    """Decide {x >= 0 : A x = b, C x <= d} by adding slack variables.

    Returns True/False (no certificate; use reference_equality_feasibility
    when one is needed).
    """
    eq_rows = [list(r) for r in eq_rows]
    le_rows = [list(r) for r in le_rows]
    slacks = len(le_rows)
    rows = []
    for r in eq_rows:
        rows.append(list(r) + [Fraction(0)] * slacks)
    for i, r in enumerate(le_rows):
        slack = [Fraction(0)] * slacks
        slack[i] = Fraction(1)
        rows.append(list(r) + slack)
    rhs = list(eq_rhs) + list(le_rhs)
    if not rows:
        return True
    status, _ = reference_equality_feasibility(rows, rhs)
    return status == "feasible"


def reference_equality_feasibility(rows, rhs):
    """Decide {x >= 0 : Ax = b} by a phase-1 simplex on a Fraction tableau,
    with Bland's entering rule and ties in the ratio test broken towards the
    lower basic variable.

    Returns ("feasible", x) with x a tuple of Fractions, or
    ("infeasible", y) with y a Farkas certificate (y.A <= 0 and y.b > 0).
    It takes any rational entries; ``bracketkit.lp.solve_equality_feasibility``
    takes only ints, and the two must agree on every integer input.
    """
    m = len(rows)
    if m != len(rhs):
        raise InputError("rows/rhs length mismatch")
    if m == 0:
        return "feasible", ()
    k = len(rows[0])
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        if len(row) != k:
            raise InputError("ragged constraint matrix")
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tableau.append(row)
    total = k + m
    basis = list(range(k, k + m))
    # Objective row: reduced costs for minimizing the artificial sum.
    obj = [Fraction(0)] * (total + 1)
    for j in range(total):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = Fraction(1) if j >= k else Fraction(0)
        obj[j] = cost - col_sum
    obj[total] = -sum(tableau[i][total] for i in range(m))

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InputError("phase-1 objective unbounded; inconsistent tableau")
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [a - factor * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    optimum = -obj[total]
    if optimum == 0:
        x = [Fraction(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = tableau[i][total]
        return "feasible", tuple(x)
    y = tuple(1 - obj[k + i] for i in range(m))
    # Restore signs for rows that were negated on input.
    return "infeasible", tuple(-y[i] if Fraction(rhs[i]) < 0 else y[i] for i in range(m))


def reference_learning_rounds(n, ranges, hypotheses, cover_count, alice, bob):
    """The learning rounds over n points with the consistent ranges and
    covers kept as lists and filtered, in order, at each counterexample.

    ``ranges`` is the range family in canonical order, ``hypotheses`` the
    covers followed by the other ranges, and ``alice`` and ``bob`` the sorted
    (index, label) examples.  Each round picks the first consistent cover
    that contains a consistent range, with the first such range as its
    witness, or else the first consistent range for both; Alice then Bob
    send their lowest-index counterexample or an OK.  Returns the outcome
    ("learned" or "abort"), the picks (hypothesis index, hypothesis, witness)
    round by round, the counterexample history and the messages, each a
    (sender, kind, payload, bits) tuple.
    """
    ce_cost = max(n - 1, 0).bit_length() + 1
    consistent = list(ranges)
    covers = list(hypotheses[:cover_count])
    picks = []
    history = []
    messages = []
    for _ in range(2 * n + 2):
        if not consistent:
            return "abort", picks, history, messages
        cover, witness = next(
            ((c, r) for c in covers for r in consistent if (r & c) == r),
            (consistent[0], consistent[0]),
        )
        picks.append((hypotheses.index(cover), cover, witness))
        for sender, examples in (("alice", alice), ("bob", bob)):
            wrong = [(i, label) for i, label in examples
                     if (label > 0 and not witness >> i & 1) or (label < 0 and cover >> i & 1)]
            if wrong:
                idx, label = wrong[0]
                messages.append((sender, "counterexample", [idx, label], ce_cost))
                history.append((idx, label))
                consistent, covers = ([m for m in masks if (m >> idx & 1) == (label > 0)]
                                      for masks in (consistent, covers))
                break
            messages.append((sender, "ok", None, 1))
        else:
            return "learned", picks, history, messages
    raise AssertionError("reference rounds did not terminate within their round budget")
