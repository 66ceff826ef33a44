"""Property tests of each profile node's own inverse.

Over random Gaussian, point-list, Renyi, scaled and small discretized
loss-distribution nodes and random delta targets, the eps
that `epsilon_for_delta` reads off a node is certified (the node is at
most delta there), is minimal (0, or the node is above delta a little
below it: BISECT_TOL below for a bisected node, 1e-12 relative below for
a closed form) and lies within BISECT_TOL of the bisection every node
was inverted by before it had an inverse of its own, kept here as the
reference.  Every node is non-increasing in eps, probed at its kinks
too; a loss-distribution node up to the rounding of its factored sums.
Tuned Gaussian bases under negative-binomial, binomial and
Poisson counts are checked against the exact divergence of one
neighbouring instance at the eps read off them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsel.countdist import Binomial, Poisson, TruncNegBinomial
from privsel.errors import NoAdmissibleEps1Error, UnreachableTargetError
from privsel.oracles import gaussian_pair, selection_exact_divergence
from privsel.pld import DiscretePLD, Pld
from privsel.profiles import (
    BISECT_TOL,
    EPS_CAP,
    Gaussian,
    Points,
    PrivacyProfile,
    Scaled,
    epsilon_for_delta,
    gaussian_profile,
    gaussian_rdp_curve,
    profile_from_points,
    rdp_profile,
)
from privsel.rnm import rnm_composition_profile
from privsel.selection import bound_for_count, rdp_select_negbin

PROPS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
# one oracle call takes ~15 ms
ORACLE = settings(max_examples=20, deadline=None, database=None, derandomize=True)

deltas = st.floats(-12.0, -0.5).map(lambda x: 10.0**x)


def reference_bisection(profile, delta):
    """epsilon_for_delta as it was before the nodes had inverses: bracket
    by doubling from 1 up to EPS_CAP, then bisect to BISECT_TOL."""
    if profile(0.0) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while profile(hi) > delta:
        if hi >= EPS_CAP:
            raise UnreachableTargetError("above delta at EPS_CAP")
        lo = hi
        hi = min(2 * hi, EPS_CAP)
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if profile(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def point_lists(draw):
    """3 to 6 points with eps ascending in [0, 8] and delta descending
    from 0.5 to 1e-14 or to exactly 0; sometimes one point past e^709,
    where the node takes its overflow form."""
    k = draw(st.integers(3, 6))
    eps = sorted(draw(st.lists(st.floats(0.0, 8.0), min_size=k, max_size=k)))
    dels = sorted((10.0**x for x in draw(
        st.lists(st.floats(-14.0, math.log10(0.5)), min_size=k, max_size=k))), reverse=True)
    if draw(st.booleans()):
        dels[-1] = 0.0
    if draw(st.integers(0, 4)) == 0:
        eps[-1] = draw(st.floats(710.0, 800.0))
    return list(zip(eps, dels))


@st.composite
def loss_distributions(draw):
    """A small discretized loss distribution with its grid below eps 60."""
    spacing = draw(st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    origin = draw(st.integers(int(-5 / spacing), int(20 / spacing)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    tail = draw(st.sampled_from([0.0, 1e-13, 1e-7]))
    mass = np.array(weights) + 1e-6
    return DiscretePLD(spacing, origin, mass * ((1.0 - tail) / mass.sum()), tail)


def scaled(leaves):
    return st.one_of(
        st.builds(Scaled, leaves, st.floats(1.0, 1e4), st.floats(0.0, 5.0), st.booleans()),
        st.builds(rnm_composition_profile, leaves, st.integers(1, 10**4), st.integers(1, 4)),
    )


@st.composite
def renyi_leaves(draw):
    """A Gaussian Renyi curve as a node, or its negbin baseline."""
    base = gaussian_rdp_curve(draw(st.floats(0.3, 30.0)))
    if draw(st.booleans()):
        base = rdp_select_negbin(base, draw(st.floats(-0.9, 3.0)), draw(st.floats(1e-4, 0.9)))
    return rdp_profile(base)


analytic_leaves = st.one_of(
    st.floats(0.3, 30.0).map(gaussian_profile),
    point_lists().map(profile_from_points),
    renyi_leaves(),
)
pld_leaves = st.builds(Pld, loss_distributions(), loss_distributions())
analytic_nodes = analytic_leaves | scaled(analytic_leaves)
nodes = analytic_nodes | pld_leaves | scaled(pld_leaves)


def bisected(node):
    """Whether the node's inverse goes through a bisection: a Gaussian, a
    point list past e^709, or a scaled node over one of them."""
    if isinstance(node, Scaled):
        return bisected(node.base)
    return isinstance(node, Gaussian) or (isinstance(node, Points) and node._top is None)


def just_below(node, eps):
    if bisected(node):
        # the bracket's width, and the rounding of a shift added to it
        return eps - BISECT_TOL - 4 * math.ulp(eps)
    # e^eps resolves eps no finer than ulps of 1 below eps = 1
    return eps - 1e-12 * max(eps, 1.0)


@PROPS
@given(nodes, deltas)
def test_inverse_is_certified_minimal_and_near_the_old_bisection(node, delta):
    try:
        old = reference_bisection(node, delta)
    except UnreachableTargetError:
        with pytest.raises(UnreachableTargetError):
            epsilon_for_delta(node, delta)
        return
    eps = epsilon_for_delta(node, delta)
    assert node(eps) <= delta
    assert eps == 0.0 or node(just_below(node, eps)) > delta
    assert abs(eps - old) <= BISECT_TOL + 1e-12 * max(old, 1.0)


@PROPS
@given(nodes, deltas)
def test_every_node_inverse_is_certified_on_its_own(node, delta):
    # an interior node's inverse calls its base's at another target
    eps = node.inverse(delta)
    if eps <= EPS_CAP:
        assert node(eps) <= delta
    assert node.inverse(1.0) == 0.0
    for bad in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError):
            node.inverse(bad)


def kinks(node):
    """The eps where a node has kinks: a point list's eps, shifted along
    by a scaled node over one."""
    if isinstance(node, Scaled):
        return [k + node.shift for k in kinks(node.base)]
    return node.eps.tolist() if isinstance(node, Points) else []


def assert_non_increasing(node, eps, slack=0.0):
    vals = [node(e) for e in sorted(eps + kinks(node))]
    assert all(b <= a + slack for a, b in zip(vals, vals[1:])), vals


eps_lists = st.lists(st.floats(-50.0, 60.0), min_size=2, max_size=60)


@PROPS
@given(analytic_nodes, eps_lists)
def test_analytic_nodes_are_non_increasing_in_eps(node, eps):
    assert_non_increasing(node, eps)


@PROPS
@given(pld_leaves, eps_lists)
def test_pld_nodes_are_non_increasing_up_to_rounding(node, eps):
    # s1 - e^eps s2 is formed from sums of masses at most 1, in the cell
    # on either side of a grid point; the two forms of the value there
    # may round a few ulps of 1 apart
    assert_non_increasing(node, eps, slack=1e-15)


def test_points_closed_form_by_hand():
    # only point (3, 1e-9) has its delta below the target, and it
    # certifies 1e-6 from e^eps = e^3 - (1e-6 - 1e-9) on
    prof = profile_from_points([(1.0, 1e-3), (2.0, 2e-6), (3.0, 1e-9)])
    eps = epsilon_for_delta(prof, 1e-6)
    assert eps == pytest.approx(math.log(math.exp(3.0) - (1e-6 - 1e-9)), rel=1e-14)
    assert prof(eps) <= 1e-6 < prof(eps * (1 - 1e-12))


def test_pld_closed_form_by_hand():
    # grid points 0, 1, 2 with masses 0.5, 0.3, 0.2 and no tail: between
    # points 1 and 2, delta(eps) = 0.2 (1 - e^(eps - 2))
    d = DiscretePLD(1.0, 0, np.array([0.5, 0.3, 0.2]), 0.0)
    eps = epsilon_for_delta(Pld(d, d), 0.01)
    assert eps == pytest.approx(2.0 + math.log1p(-0.01 / 0.2), rel=1e-14)
    # the tail alone stays above the target
    tailed = DiscretePLD(1.0, 0, np.array([0.5, 0.5 - 1e-6]), 1e-6)
    with pytest.raises(UnreachableTargetError):
        epsilon_for_delta(Pld(tailed, d), 1e-7)


def test_pld_answer_past_eps_500_is_bisected():
    # delta sums directly past eps 500, where the closed form is not used
    d = DiscretePLD(1.0, 600, np.array([0.5, 0.5]), 0.0)
    node = Pld(d, d)
    eps = epsilon_for_delta(node, 1e-3)
    assert 500 < eps == reference_bisection(node, 1e-3)
    assert node(eps) <= 1e-3 < node(eps - BISECT_TOL)


def test_scaled_target_below_the_normal_range_is_refused():
    # delta / candidates**rounds = 1e-312 is subnormal, where a Gaussian
    # base's value certifies nothing: the node refuses instead of
    # answering off a base that has underflowed to 0
    node = rnm_composition_profile(gaussian_profile(1.0), 10**9, 34)
    assert 0.0 < 1e-6 / node.factor < sys.float_info.min
    with pytest.raises(UnreachableTargetError):
        node.inverse(1e-6)
    with pytest.raises(UnreachableTargetError):
        epsilon_for_delta(node, 1e-6)


@dataclass(frozen=True, eq=False)
class HairAboveFlat(PrivacyProfile):
    """A point list one ulp above 0.1 wherever it is 0.1, from eps 0 to
    log(e - 0.09), about 0.97, proposing the point list's own inverse."""

    base: Points

    def _at(self, eps):
        d = self.base(eps)
        return math.nextafter(d, 1.0) if d == 0.1 else d

    def _inverse(self, delta, floor):
        return self.base.inverse(delta, floor)


def test_flat_stretch_at_delta_falls_back_to_bisection():
    # the proposal at delta 0.1 is eps 0, and the node stays above delta
    # however far it is stepped up by ulps
    node = HairAboveFlat(profile_from_points([(0.0, 0.1), (1.0, 0.01)]))
    assert node.base.inverse(0.1) == 0.0 and node(0.5) > 0.1
    eps = epsilon_for_delta(node, 0.1)
    assert eps == reference_bisection(node, 0.1)
    assert eps == pytest.approx(math.log(math.e - 0.09), abs=BISECT_TOL)


def test_scaled_inverse_is_the_base_inverse_shifted():
    base = profile_from_points([(0.5, 1e-3), (1.5, 1e-5), (3.0, 1e-9)])
    node = Scaled(base, 30.0, 1.25)
    assert epsilon_for_delta(node, 1e-6) == pytest.approx(
        1.25 + epsilon_for_delta(base, 1e-6 / 30.0), rel=1e-15)


def test_positive_eps_only_answers_above_zero():
    # the base is 0 everywhere from eps 0, yet the node is 1 at eps <= 0
    node = Scaled(profile_from_points([(0.0, 0.0)]), 5.0, 0.0, positive_eps_only=True)
    eps = epsilon_for_delta(node, 1e-6)
    assert 0.0 < eps <= BISECT_TOL and node(eps) == 0.0


@dataclass(frozen=True, eq=False)
class Step(PrivacyProfile):
    """1 below `at`, 0 from it on, with no inverse of its own; it refuses
    to be evaluated more than 5000 times, so a search that stops moving
    fails instead of spinning."""

    at: float
    calls: list

    def _at(self, eps):
        self.calls.append(eps)
        assert len(self.calls) <= 5000, "bisection stopped moving"
        return 1.0 if eps < self.at else 0.0


def test_bisection_brackets_from_a_floor_past_two_to_the_53():
    # floor + 1 rounds back to floor here, so the bracket must widen by ulps
    node = Step(5.0, [])
    eps = node.inverse(0.5, floor=-1e30)
    assert 5.0 <= eps <= 5.0 + BISECT_TOL


def test_bisection_stops_at_adjacent_floats_wider_than_its_tolerance():
    # near -1e20 adjacent floats lie 16384 apart, far above BISECT_TOL
    node = Step(-1e20, [])
    eps = node.inverse(0.5, floor=-1e21)
    assert node(eps) == 0.0 and node(math.nextafter(eps, -math.inf)) == 1.0


def counts():
    return st.one_of(
        st.builds(TruncNegBinomial, st.floats(-0.5, 2.0), st.floats(1e-3, 0.5)),
        st.builds(Binomial, st.integers(2, 300), st.floats(0.01, 0.9)),
        st.builds(Poisson, st.floats(0.5, 300.0)),
    )


@ORACLE
@given(st.floats(0.7, 10.0), counts(), st.floats(-8.0, -3.0).map(lambda x: 10.0**x))
def test_selection_eps_is_sound_against_the_exact_divergence(sigma, dist, delta):
    try:
        bound = bound_for_count(gaussian_profile(sigma), dist).profile
    except NoAdmissibleEps1Error:
        return
    eps = epsilon_for_delta(bound, delta)
    assert eps > 0.0
    assert selection_exact_divergence(gaussian_pair(0.0, 1.0, sigma), dist, eps) <= delta
