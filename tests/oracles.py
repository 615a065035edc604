"""Slow, direct references that the package's fast paths are tested against."""
import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import stats
from scipy.linalg import qr

from thresholdgame import solver
from thresholdgame.data import _FORMATS, SCHEMA, Dataset, _check_units
from thresholdgame.game import DEFAULT_GAME
from thresholdgame.money import Money
from thresholdgame.preferences import NEVER_EQUILIBRIUM, EqCondition
from thresholdgame.simulator import N_NORMALS, TIE_TOL


def strictly_less(lhs, rhs):
    """lhs < rhs by more than TIE_TOL relative to their scale (at least 1)."""
    return lhs < rhs - TIE_TOL * max(abs(lhs), abs(rhs), 1.0)


def check_condition(cond, u):
    """True iff u(lhs) < k * u(rhs) holds strictly (ties are not strict)."""
    return strictly_less(u(cond.lhs_point.euros), float(cond.factor) * u(cond.rhs_point.euros))


def condition_by_deviation(curve, target_total, game=DEFAULT_GAME):
    """``preferences.condition_from_curve`` one deviation at a time, with no
    pair table: each deviation's (step value q, kept money m) is compared with
    staying's by monotonicity of u, the open ones are kept, then the maximal
    open ones (beating (q', m') beats (q, m) when q <= q' and m <= m')."""
    candidates = curve.canonical_totals()
    if target_total not in candidates:
        raise ValueError(f"total {target_total} is not a candidate equilibrium total")
    n = game.n_players
    if target_total.cents % n != 0:
        raise ValueError(f"total {target_total} not divisible across {n} players")
    c_each = Money(target_total.cents // n)
    if not game.on_grid(c_each):
        raise ValueError(f"per-player contribution {c_each} is off the grid")

    p_stay = curve.value_at(target_total)
    m_stay = game.endowment - c_each
    if p_stay == 0 or m_stay == Money(0):
        return NEVER_EQUILIBRIUM  # staying earns nothing; every deviation at least ties
    others = target_total - c_each
    open_ = []
    for c_dev in game.contribution_grid():
        q = curve.value_at(others + c_dev)
        m_dev = game.endowment - c_dev
        if c_dev == c_each or q == 0 or m_dev == Money(0):
            continue  # staying itself, or a deviation that earns nothing
        if q >= p_stay and m_dev > m_stay:
            return NEVER_EQUILIBRIUM  # deviation at least as good for every u
        if q > p_stay or m_dev > m_stay:  # a higher step, or more money kept
            open_.append((q, m_dev))
    return tuple(
        EqCondition(lhs_point=m, factor=p_stay / q, rhs_point=m_stay) for q, m in open_
        if not any(q2 >= q and m2 >= m and (q2, m2) != (q, m) for q2, m2 in open_))


def payoff_paper_totals(curve, u, game=DEFAULT_GAME):
    """The paper-mode symmetric totals from payoffs alone, with no condition:
    each canonical total whose per-player share c is on the grid, kept when
    staying, u(E - c) * p(total), strictly beats every other contribution d,
    u(E - d) * p(total - c + d).  Beating d = E, which keeps nothing, also
    makes the stay payoff positive."""
    def payoff(own, total):
        return u((game.endowment - own).euros) * float(curve.value_at(total))

    kept = []
    for total in sorted(curve.canonical_totals()):
        if total.is_multiple_of(game.grid_step * game.n_players):
            c = Money(total.cents // game.n_players)
            stay = payoff(c, total)
            if all(strictly_less(payoff(d, total - c + d), stay)
                   for d in game.contribution_grid() if d != c):
                kept.append(total)
    return kept


def nash_profiles(curve, u, game=DEFAULT_GAME):
    """Every Nash profile on the grid as (contributions, kind, zero payoff),
    from float payoffs alone and with no payoff table: no player's payoff
    u(E - c) * p(total) is strictly below a deviation's (``strictly_less``),
    a deviation that it does not strictly beat makes the profile weak, and a
    zero-payoff profile pays every player 0."""
    grid = game.contribution_grid()
    payoff = functools.lru_cache(maxsize=None)(
        lambda own, total: u((game.endowment - own).euros) * float(curve.value_at(total)))
    found = []
    for profile in itertools.product(grid, repeat=game.n_players):
        total = sum(profile, Money(0))
        stays, weak = [payoff(c, total) for c in profile], False
        for c, stay in zip(profile, stays):
            deviations = [payoff(d, total - c + d) for d in grid if d != c]
            if any(strictly_less(stay, v) for v in deviations):
                break
            weak = weak or not all(strictly_less(v, stay) for v in deviations)
        else:
            found.append((profile, "weak" if weak else "strict", all(v == 0 for v in stays)))
    return found


def classify_profile(profile, curve, u, game=DEFAULT_GAME):
    """The EquilibriumRecord of one profile if it is Nash, else None: one
    payoff table for the profile alone, then the solver's array verdict on a
    one-row matrix."""
    table = solver.PayoffTable(curve, u, game)
    gis = tuple(c // game.grid_step for c in profile.contributions)
    return next(iter(solver._records(table, [gis])), None)


def brute_force(curve, u, game=DEFAULT_GAME):
    """Every grid profile, in enumeration order, as rows of one matrix for the
    array verdict behind classify_profile; rows are judged one by one, so
    this is each profile classified alone, without the by-total search."""
    table = solver.PayoffTable(curve, u, game)
    profiles = list(itertools.product(range(len(table.grid)), repeat=game.n_players))
    return sorted(solver._records(table, profiles),
                  key=lambda r: (r.total, r.profile.contributions))


def normals(u):
    """All 14 Box-Muller normals of subject rows through libm's ``log``, ``cos``
    and ``sin``, one Python call per value: the host-independent values the
    simulator's normals and covariates must reproduce."""
    a, b = u[:, 0:N_NORMALS:2], u[:, 1:N_NORMALS:2]
    r = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - a).ravel().tolist()))))
    t = (2.0 * math.pi * b).ravel().tolist()
    z = np.empty((len(u), N_NORMALS))
    z[:, 0::2] = (r * np.array(list(map(math.cos, t)))).reshape(a.shape)
    z[:, 1::2] = (r * np.array(list(map(math.sin, t)))).reshape(a.shape)
    return z


def ols_hc1_pivoted(design):
    """(coefficients, HC1 SEs, p-values) from scipy's column-pivoted QR and
    normal tail, the way the package computed them before it dropped scipy."""
    X, y = design.X, design.y
    n, k = X.shape
    q, r, piv = qr(X, mode="economic", pivoting=True)
    beta = np.empty(k)
    beta[piv] = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    rinv = np.linalg.inv(r)
    bread = np.empty((k, k))
    bread[np.ix_(piv, piv)] = rinv @ rinv.T
    meat = (X * (resid ** 2)[:, None]).T @ X
    se = np.sqrt(np.diag(bread @ meat @ bread * (n / (n - k))))
    return beta, se, 2.0 * stats.norm.sf(np.abs(beta / se))


def exact_polarization_p(a, b):
    """P(|log var ratio| of a random split >= the observed one), summed over
    every count vector of a 2- or 3-level sample with its multivariate
    hypergeometric weight; statistics compare as Fractions, so ties are exact.
    A split with a constant arm has an infinite statistic."""
    a, b = [Fraction(str(v)) for v in a], [Fraction(str(v)) for v in b]
    levels = sorted(set(a + b))
    assert 2 <= len(levels) <= 3, "enumeration is for 2 or 3 levels"
    colors = [(a + b).count(v) for v in levels]

    def variance(counts):
        n = sum(counts)
        mean = sum(k * v for k, v in zip(counts, levels)) / n
        return sum(k * (v - mean) ** 2 for k, v in zip(counts, levels)) / (n - 1)

    def statistic(counts_a):
        var_a = variance(counts_a)
        var_b = variance([c - k for c, k in zip(colors, counts_a)])
        if var_a == 0 or var_b == 0:
            return math.inf
        return max(var_a / var_b, var_b / var_a)

    observed = statistic([a.count(v) for v in levels])
    ranges = [range(min(c, len(a)) + 1) for c in colors[:-1]]
    tail = 0
    for head in itertools.product(*ranges):
        counts = list(head) + [len(a) - sum(head)]
        if 0 <= counts[-1] <= colors[-1] and statistic(counts) >= observed:
            tail += math.prod(math.comb(c, k) for c, k in zip(colors, counts))
    return Fraction(tail, math.comb(len(a) + len(b), len(a)))


def polarization_p(data, arm_a, arm_b, permutations=999, seed=0):
    """``econometrics.polarization``'s p-value from the same draws, one split
    at a time: each split's (larger, smaller) variance on one integer scale
    as Python ints, compared with the observed split's."""
    arms = data.strings("treatment")
    values = data.numeric("contribution")
    a, b = values[arms == arm_a], values[arms == arm_b]
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    n_a, n_b = a.size, b.size
    levels, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    cents = np.rint(levels * 100).astype(np.int64)
    x = cents - cents[0]
    colors = np.bincount(inverse)
    method = "marginals" if 8 * colors.size < n_a else "count"
    draws = np.random.default_rng(seed).multivariate_hypergeometric(
        colors, n_a, size=permutations, method=method)
    draws = np.vstack([np.bincount(inverse[:n_a], minlength=colors.size), draws])
    total1, total2 = int(colors @ x), int(colors @ (x * x))

    def spread(s1, s2):
        p = (n_a * s2 - s1 * s1) * n_b * (n_b - 1)
        q = (n_b * (total2 - s2) - (total1 - s1) ** 2) * n_a * (n_a - 1)
        return max(p, q), min(p, q)

    splits = map(spread, (draws @ x).tolist(), (draws @ (x * x)).tolist())
    hi0, lo0 = next(splits)
    if lo0 == 0:
        hi0 = 1
    hits = sum(hi * lo0 >= hi0 * lo for hi, lo in splits)
    return (hits + 1) / (permutations + 1)


def read_csv(path):
    """``Dataset.read_csv`` in one shot: every row is read before any column
    is parsed, and each column is decided on its whole list of cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), fh))
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise ValueError(f"{path}: empty CSV")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in {header}")
    if bad := {len(row) for row in rows} - {len(header)}:
        raise ValueError(f"{path}: row width {min(bad)} != header {len(header)}")
    cells = list(zip(*rows)) if rows else [()] * len(header)
    return Dataset(dict(zip(header, cells)))


def _csv_cells(name, col):
    """Every cell of one column formatted on its own; NaN is a blank cell."""
    if col.dtype.kind != "f":
        return col.tolist()
    kind = SCHEMA.get(name, "float")
    if kind == "int":
        _check_units(name, kind, col)
    return [_FORMATS[kind][0](v) if v == v else "" for v in col.tolist()]


def write_csv(data, path, header_comment=None):
    """``data.write_csv`` as the csv module writes it: each cell formatted on
    its own, each row quoted and joined by ``csv.writer``.  Two departures from
    the csv module under a '\\n' line terminator make every file read back:
    a field that holds '\\r' is quoted, as the module quotes it under a '\\r\\n'
    terminator, and so is a first column name that starts with '#'."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def row_text(cells):
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    names = list(data.columns)
    header = row_text(names)
    if header.startswith("#"):
        header = f'"{names[0]}"' + header[len(names[0]):]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in (header_comment or "").splitlines()))
        fh.write(header)
        for i in range(0, len(data), 1024):
            fh.writelines(map(row_text, zip(*(_csv_cells(n, c[i:i + 1024])
                                          for n, c in data.columns.items()))))
