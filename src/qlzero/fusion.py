"""Fusion compatibility and the two forms of E0: statement-level checks.

The fusion locus sets the (j+1)-st series variable to q^{-2} times the
j-th.  On the invariant channel of the adjacent pair this connects the
N-spinon window with the (N-2)-spinon window, with channel weights
(-q)^{N-j+(eps_j-1)/2} and the polynomial prefactors

    prod_{i<j} (z_i - q^2 z_j) prod_{i>=j+2} (q^{-2} z_j - q^2 z_i),

the j-th variable surviving as a spectator.  That identification is
`kernel.fusion_relation`, which also generates the FUS relations.
rhof_check verifies that the twisted lowering/raising generators commute
with it modulo the relation ideal - the compatibility that forces the
scale parameter to be the fourth power of q (a negative control at q^3
fails).  e0_forms_check compares the direct and S/G-chain forms of E0.
"""

from __future__ import annotations

from .kernel import KernelBasis, coefficients, fusion_relation
from .report import CheckReport, record, tally
from .scalars import RatFuncQ, qpow
from .series import expanded_e0_sym, series_e0, series_f0
from .tensor import TensorPoly, sign_strings

P_FUSION = qpow(4)


def rhof_check(N: int, kb: KernelBasis, p: RatFuncQ = P_FUSION) -> CheckReport:
    """Fusion compatibility of the twisted generators at the last pair.

    For every source string, the specialized image of the generator applied
    to the N-window must agree with the weighted, prefactor-dressed image
    of the generator on the reduced window, modulo the relation window kb
    (exchange + fusion families, read to its depth; the highest-weight
    family is structural in cone windows, so its toggle cannot change
    verdicts here).

    At p = q^4 each generator gives the check rhof.{gen}.N{N}.  At any other
    p it gives the negative control rhof.{gen}.control.N{N}, which passes
    exactly when at least one coefficient fails membership (so a control that
    compared nothing fails).
    """
    rep = CheckReport(f"fusion compatibility N={N}, p={p!r}")
    D = kb.max_degree
    j = N - 1
    for gen, series in (("e0", series_e0), ("f0", series_f0)):
        # a target of exponent sum t draws on window symbols of degree t on both sides
        n_checked, n_bad, seconds = tally(
            not kb.member(vec) for eps in sign_strings(N)
            for _expo, vec in coefficients(
                fusion_relation(eps, j, D, lambda X: series(X, p)), D))
        if p == P_FUSION:
            record(rep, f"rhof.{gen}.N{N}",
                   "specialization of the twisted generator matches the fused window",
                   n_checked, n_bad, f"{n_checked} coefficients, p={p!r}", seconds)
        else:
            record(rep, f"rhof.{gen}.control.N{N}",
                   "wrong scale parameter must break fusion compatibility",
                   n_checked, n_bad == 0, f"{n_bad}/{n_checked} coefficients fail, p={p!r}",
                   seconds)
    return rep


def e0_forms_check(N: int, kb: KernelBasis) -> CheckReport:
    """The direct Y-form of E0 at p = q^4 agrees with its S/G-chain
    expansion modulo the exchange kernel kb (exactly at one slot, where
    both collapse)."""
    rep = CheckReport(f"generator forms N={N}")
    D = kb.max_degree
    windows = (TensorPoly.window(eps, D) for eps in sign_strings(N))
    n_checked, n_bad, seconds = tally(
        not kb.member(vec) for X in windows for _expo, vec in coefficients(
            series_e0(X, P_FUSION) - expanded_e0_sym(X, P_FUSION).scale(qpow(N - 1)), D))
    record(rep, f"e0.forms.N{N}",
           "direct and chain forms of E0 agree modulo the exchange family",
           n_checked, n_bad, f"{n_checked} coefficients", seconds)
    return rep
