"""Slow, direct references that the package's fast paths are tested against."""
import itertools

import numpy as np
from scipy import stats
from scipy.linalg import qr

from thresholdgame import solver
from thresholdgame.game import DEFAULT_GAME
from thresholdgame.preferences import TIE_TOL


def check_condition(cond, u):
    """True iff u(lhs) < k * u(rhs) holds strictly (ties are not strict)."""
    lhs = u(cond.lhs_point.euros)
    rhs = float(cond.factor) * u(cond.rhs_point.euros)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs < rhs - TIE_TOL * scale


def classify_profile(profile, curve, u, game=DEFAULT_GAME):
    """The EquilibriumRecord of one profile if it is Nash, else None: one
    payoff table for the profile alone, then the solver's classification."""
    table = solver.PayoffTable(curve, u, game)
    gis = [c // game.grid_step for c in profile.contributions]
    return solver._classify(table, gis, curve, solver._canonical_indices(curve, game))


def brute_force(curve, u, game=DEFAULT_GAME):
    """Every grid profile, classified one at a time by the path behind
    classify_profile, in enumeration order.  The payoff table and the
    canonical totals are built once per game, not once per profile."""
    table = solver.PayoffTable(curve, u, game)
    canonical = solver._canonical_indices(curve, game)
    profiles = itertools.product(range(len(table.grid)), repeat=game.n_players)
    records = (solver._classify(table, gis, curve, canonical) for gis in profiles)
    return sorted((r for r in records if r is not None),
                  key=lambda r: (r.total, r.profile.contributions))


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
