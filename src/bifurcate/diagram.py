"""Whole-picture assembly: enumerate all steady states at a parameter pair,
assemble the bifurcation diagram of a growth-rate regime, and verify the
structural claims the diagram is supposed to realize.

The five regimes are keyed off the discrete eigenvalues: below-lambda1,
at-lambda1, between-lambda1-lambda2, at-lambda2 and above-lambda2 (the
four-solution window). Assembly traces each curve of steady states once:
from its seed one trace runs to the c window edge or to the ray or
segment, the other through every fold of the curve, refining each fold
once, to the c window edge. The traces are stitched at the seed and cut at
the folds (and, at lambda2 with a zero threshold, at the origin) into the
tagged sheets, adjacent sheets sharing the refined fold. Verification
replays the regime's claims against the multistart oracle and records one
ClaimCheck per claim.

Branch tags use the ASCII names Mstar (stable sheet), Msharp and Mflat (the
index-one sheets), Mnatural (the index-two middle piece) and ray (the
degenerate ray at the first eigenvalue, clipped for display).
"""

import dataclasses
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .grid import DiscreteField, laplacian_eigenpairs
from .model import critical_cap, ramp_slope, ramp_values
from .solver import (
    COUNT_MAX_ITER,
    NEWTON_TOL,
    Diverged,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    _newton_pool,
    classify_state,
    newton_ball,
    newton_solve,
    time_march,
)
from .continuation import (
    Branch,
    DegeneratePoint,
    DegenerateSegment,
    StepCounts,
    StepUnderflow,
    WrongKind,
    branch_derivative_at_zero,
    build_degenerate_segment,
    chart_coordinate,
    closed_form_states,
    continue_branch,
    delta_window,
    fold_normal_form_checks,
    lower_index1_fold,
    solve_at_projection,
    trace_index1_degenerate_curve,
)

DEDUP_REL = 1e-4
#: First arclength step of every assembly trace but those from an edge
#: start, whose first step _edge_start sets.
ASSEMBLY_STEP0 = 0.05
REGIMES = (
    "below-lambda1",
    "at-lambda1",
    "between-lambda1-lambda2",
    "at-lambda2",
    "above-lambda2",
)


#: How a start of count_solutions ends: the first start to converge on a
#: state keeps it as a member, a later one is a duplicate; a ball exit stops
#: inside the certified ball of a member of an earlier start; the other
#: starts fail as their Newton rows do (solver._newton_pool).
OUTCOMES = ("member", "duplicate", "ball-exit", "stalled", "out-of-iterations",
            "singular-jacobian")


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated steady states found at one (a, c) by multistart Newton.

    radii holds, member by member, the certified Newton ball radius of
    solver.newton_ball (Euclidean on R^n) or the reason the member has
    none. outcomes counts the starts by how they ended, one count per
    OUTCOMES entry, summing to n_starts. exited, its ball-exit count,
    depends on the pool width and on when each member's ball went live
    (count_solutions), while the members and radii do not.
    """

    members: tuple[SolutionPoint, ...]
    a: float
    c: float
    n_starts: int
    dedup_threshold: float
    radii: tuple[float | str, ...]
    outcomes: dict[str, int]

    def __post_init__(self):
        for i in range(len(self.members)):
            for j in range(i + 1, len(self.members)):
                if _rel_distance(self.members[i].u, self.members[j].u) <= self.dedup_threshold:
                    raise ValueError(
                        f"members {i} and {j} are closer than the dedup threshold"
                    )

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def exited(self) -> int:
        return self.outcomes["ball-exit"]

    def morse_indices(self) -> tuple[int, ...]:
        return tuple(sorted(p.morse_index for p in self.members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def _rel_distance(u: DiscreteField, v: DiscreteField) -> float:
    # relative above unit norm, absolute below it: a pure ratio would keep
    # numerically distinct copies of the zero state apart forever
    dom = u.domain
    diff = u.values - v.values
    dist = np.sqrt(dom.inner(diff, diff))
    nu = np.sqrt(dom.inner(u.values, u.values))
    nv = np.sqrt(dom.inner(v.values, v.values))
    return dist / max(nu, nv, 1.0)


# Float64 elements per pool buffer in count_solutions: its starts stream
# through one pool of max(1, _STACK_ELEMENTS // n) rows (257 at n = 99, 64
# at n = 399, 15 at n = 1599), about 200 KiB per float64 buffer, allocated
# once per count. Each lockstep round of the pooled Newton pays a fixed
# interpreter cost (a Jacobian build and a gtsv call, a residual call per
# line-search trial and per admission) whatever its width, so a wider pool
# pays it fewer times. Measured against the stacks the pool replaced, on a
# 2-vCPU host (seed 9, members bit-identical): a bench oracle pass at
# n = 399 went from 737 lockstep rounds and about 38,000 minor page faults
# to 504 rounds and about 920 (25 in a later pass); the five window levels
# at n = 1599 took 1.46-1.49 s of CPU time, against 1.67-1.68 s for 32-row
# stacks holding the fixed starts and 1.87-1.97 s for the 15-row stacks
# (best of 3).
_STACK_ELEMENTS = 64 * 399


def _multistart_seeds(problem: Problem, a: float, n_starts: int, seed, finalized=None):
    """Deterministic start fields, yielded one at a time in start order as
    a pool admits them: first the five fixed starts, zero and +-span times
    each of the first two modes, then random low-frequency combinations.
    span is twice the critical cap K_a for a > 0. Given finalized, a
    callable returning how many starts have ended, the generator yields
    None, a start not ready (solver._newton_pool), until the fixed starts
    have all ended, so that their members' balls are live for every
    random start."""
    dom = problem.domain
    if a > 0:
        span = 2.0 * critical_cap(problem.nonlinearity, a)
    else:
        span = 2.0 * max(1.0, abs(a), problem.nonlinearity.M + 1.0)
    phi, psi = (p.eigenfunction.values for p in problem.modes())
    fixed = [np.zeros(dom.n_interior), span * phi, -span * phi, span * psi, -span * psi]
    yield from fixed[:n_starts]
    while finalized is not None and finalized() < len(fixed):
        yield None
    basis = np.stack([
        p.eigenfunction.values
        for p in laplacian_eigenpairs(dom, 4, harvest=problem.harvest)
    ])
    rng = np.random.default_rng(seed)
    # the draws of one call come in the order of one call per start
    for w in rng.uniform(-span, span, size=(max(n_starts - len(fixed), 0), 4)):
        # one product per start: a stacked product rounds differently
        yield w @ basis


def count_solutions(
    problem: Problem, a: float, c: float, n_starts: int = 400, seed=0
) -> SolutionSet:
    """Enumerate the steady states at (a, c) by multistart Newton.

    The starts of _multistart_seeds stream through one pool of
    max(1, _STACK_ELEMENTS // n) rows (solver._newton_pool), the damped
    Newton of newton_solve, at most COUNT_MAX_ITER iterations each; starts
    that stall, run out of iterations or meet a singular Jacobian are
    discarded. Each start is finalized in start order, once every earlier
    start has ended: a converged iterate is deduplicated at relative L2
    distance DEDUP_REL against the members kept so far, and a survivor is
    classified when it is kept, so each member carries its Morse index, and
    given the radius of its certified Newton ball (solver.newton_ball) or
    the reason it has none. A member's ball goes live when it is kept, so
    every start still in the pool comes after it in start order, and a
    start whose row enters the half ball on a step it began unpaired, its
    iterate still a float64 field, stops there: the ball holds no other
    zero and the damped Newton cannot leave it, so the start would have
    ended on that member, within half DEDUP_REL of it, or failed, and
    either way been discarded. The random starts wait until the
    five fixed starts have ended, so that the balls of the members those
    find, where most starts end, are live from their first step. The
    members, radii and every outcome but the ball exits (and the
    duplicates and failures they replace) are therefore bit-identical
    whatever the width; deterministic for a fixed seed.
    """
    if n_starts < 50:
        raise ValueError(f"need n_starts >= 50, got {n_starts}")
    dom = problem.domain
    kept: list[tuple[SolutionPoint, float | str]] = []
    balls: list[tuple[np.ndarray, float]] = []
    outcomes = dict.fromkeys(OUTCOMES, 0)
    ended: dict[int, tuple] = {}
    width = max(1, _STACK_ELEMENTS // dom.n_interior)

    def finalized() -> int:
        return sum(outcomes.values())

    starts = _multistart_seeds(problem, a, n_starts, seed, finalized)
    for i, ending, end in _newton_pool(problem, starts, a, c, COUNT_MAX_ITER, width, balls):
        ended[i] = ending, end
        while finalized() in ended:
            ending, end = ended.pop(finalized())
            if ending == "converged":
                u64, rnorm, history = end
                u = DiscreteField(dom, u64)
                ending = "duplicate"
                if all(_rel_distance(u, m.u) > DEDUP_REL for m, _ in kept):
                    ending = "member"
                    point = classify_state(problem, u, a, c, residual_history=history,
                                           rnorm=rnorm)
                    capture = (0.5 * DEDUP_REL * max(dom.l2_norm(u64), 1.0)
                               / np.sqrt(dom.spacing))
                    radius = newton_ball(problem, point, capture)
                    kept.append((point, radius))
                    if not isinstance(radius, str):
                        balls.append((u64, radius))
            outcomes[ending] += 1
    kept.sort(key=lambda m: (
        np.sqrt(dom.inner(m[0].u.values, m[0].u.values)),
        float(m[0].u.values.max()),
        m[0].morse_index,
    ))
    return SolutionSet(
        tuple(p for p, _ in kept), a, c, n_starts, DEDUP_REL,
        tuple(r for _, r in kept), outcomes,
    )


class AssemblyIncomplete(RuntimeError):
    """A branch of the diagram could not be completed; .partial holds the
    diagram assembled from the pieces that did finish."""

    def __init__(self, message: str, partial: "BifurcationDiagram"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class BifurcationDiagram:
    """All branches, junction points and (when present) the neutral segment
    of one growth-rate regime at fixed a."""

    problem: Problem
    a: float
    regime: str
    branches: tuple[Branch, ...]
    degenerate_points: tuple[DegeneratePoint, ...]
    segment: DegenerateSegment | None
    c_min: float
    complete: bool = True

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.complete:
            bad = self.unexplained_endpoints()
            if bad:
                raise ValueError("unterminated branch endpoints: " + "; ".join(bad))

    def branch(self, tag: str) -> Branch:
        for br in self.branches:
            if br.tag == tag:
                return br
        raise KeyError(f"no branch tagged {tag!r}")

    def tags(self) -> tuple[str, ...]:
        return tuple(br.tag for br in self.branches)

    def unexplained_endpoints(self) -> tuple[str, ...]:
        """Branch ends not accounted for by a c-limit, a degenerate point,
        or the segment."""
        problems = []
        for br in self.branches:
            for side, idx in (("first", 0), ("last", len(br.points) - 1)):
                if not self._end_explained(br, idx):
                    problems.append(f"{br.tag or 'branch'} {side} point")
        return tuple(problems)

    def _end_explained(self, br: Branch, idx: int) -> bool:
        pt = br.points[idx]
        near_end = (lambda e: e.point_index <= 1) if idx == 0 else (
            lambda e: e.point_index >= len(br.points) - 2
        )
        for ev in br.events:
            if not near_end(ev):
                continue
            if ev.kind == "endpoint":
                return True
            if ev.kind == "fold" and ev.degenerate_point is not None:
                return True
            if ev.kind == "degeneracy":
                return True
        if pt.degenerate:
            return True
        if abs(pt.c - self.c_min) < 1e-9 * max(1.0, abs(self.c_min)):
            return True
        return self.segment is not None and _on_segment(
            self.segment, pt.c, br.t_proj[idx]
        )


def _on_segment(segment: DegenerateSegment, c: float, t: float) -> bool:
    """Whether a branch end at (c, chart coordinate t) lies on the neutral
    segment: c within 1e-3 of zero and t within 0.1 of [t_min, t_max]."""
    return abs(c) < 1e-3 and segment.t_min - 0.1 <= t <= segment.t_max + 0.1


def _reversed(br: Branch) -> Branch:
    """The branch run backwards: an event between points i and i + 1 moves
    to m - 2 - i, an endpoint at i to m - 1 - i (m points)."""
    m = len(br.points)
    events = tuple(
        dataclasses.replace(ev, point_index=m - 1 - ev.point_index - (ev.kind != "endpoint"))
        for ev in reversed(br.events)
    )
    return dataclasses.replace(br, points=br.points[::-1], events=events)


def _stitch(down: Branch, up: Branch, tag: str) -> Branch:
    """Join two traces that started from the same point into one branch
    running from down's far end to up's far end."""
    if down.chart != up.chart:
        raise ValueError("cannot stitch branches with different charts")
    if down.points[0] is not up.points[0]:
        raise ValueError("stitched traces must share their first point")
    back = _reversed(down)
    m = len(down.points)
    events = back.events + tuple(
        dataclasses.replace(ev, point_index=m - 1 + ev.point_index) for ev in up.events
    )
    return Branch(
        back.points + up.points[1:], down.chart, events, tag, down.steps + up.steps
    )


def _cut(br: Branch, cuts, tags, chart) -> list[Branch]:
    """Cut a trace at cuts, (lo, hi) point indices, into pieces tagged tags:
    the piece before a cut ends at point hi, the one after starts at lo. A
    fold cut is the pair bracketing the fold, so both pieces carry its
    event; the origin cut is one shared point. A piece tagged Mstar is
    charted in phi, any other in chart. The first piece carries the trace's
    step counts, the others none."""
    starts = [0] + [lo for lo, _ in cuts]
    ends = [hi for _, hi in cuts] + [len(br.points) - 1]
    pieces = []
    for tag, first, last in zip(tags, starts, ends):
        pieces.append(Branch(
            br.points[first:last + 1],
            "phi" if tag == "Mstar" else chart,
            events=tuple(
                dataclasses.replace(ev, point_index=ev.point_index - first)
                for ev in br.events
                if first <= ev.point_index
                and ev.point_index + (ev.kind != "endpoint") <= last
            ),
            tag=tag,
            steps=br.steps if first == 0 else StepCounts(),
        ))
    return pieces


def _terminal_kind(br: Branch) -> str:
    return br.events[-1].kind if br.events else "none"


def _stopped_at(br: Branch, msg: str) -> NonConvergence:
    """NonConvergence naming the trace's tag, if it has one, and carrying
    its last point with that point's residual."""
    last = br.points[-1]
    name = f"{br.tag}: " if br.tag else ""
    return NonConvergence(name + msg, last.u.values, last.residual_norm)


def assemble_diagram(
    problem: Problem,
    a: float,
    c_min: float = -10.0,
    *,
    max_points: int = 4000,
) -> BifurcationDiagram:
    """Assemble the bifurcation diagram of the regime containing a.

    Each curve is traced once from its seed: the zero state below lambda1,
    the state next to the ray's edge at lambda1, the stable state at the
    critical-cap amplitude between lambda1 and lambda2 and in the window,
    and the states next to the segment's edges at lambda2. A curve with
    folds is traced through them and cut there into its sheets
    (_add_curve), so every fold is refined once, and the diagram's
    degenerate points are those folds, by c. Continuation failures, and
    traces whose events are not those of the regime's curves, raise
    AssemblyIncomplete carrying the partial diagram with the sheets
    finished so far. Every trace steps by continue_branch's chord-error
    controller from a first step of ASSEMBLY_STEP0, with no ceiling, and
    holds at most max_points points; a start next to a degenerate edge sits
    EDGE_OFFSET off it in the chart coordinate.

    The c window reaches down to c_min and is never widened. When an
    above-lambda2 assembly fails and the index-1 family puts the lower
    index-1 fold (Msharp to Mnatural) below c_min at this a, the
    AssemblyIncomplete says the trace reached c_min first and gives that
    fold's c; otherwise it says where a lies relative to lambda2 + delta.
    """
    if not a > 0:
        raise ValueError(f"need a > 0, got {a}")
    if not c_min < 0:
        raise ValueError(f"need c_min < 0, got {c_min}")
    phi, psi = problem.modes()
    lam1, lam2 = phi.eigenvalue, psi.eigenvalue
    eig_tol = 1e-8 * max(1.0, abs(a))
    if abs(a - lam1) < eig_tol:
        regime = "at-lambda1"
    elif abs(a - lam2) < eig_tol:
        regime = "at-lambda2"
    elif a < lam1:
        regime = "below-lambda1"
    elif a < lam2:
        regime = "between-lambda1-lambda2"
    else:
        regime = "above-lambda2"

    kw = dict(step0=ASSEMBLY_STEP0, max_points=max_points)
    build = {
        "below-lambda1": _assemble_below,
        "at-lambda1": _assemble_at_lambda1,
        "between-lambda1-lambda2": _assemble_between,
        "at-lambda2": _assemble_at_lambda2,
        "above-lambda2": _assemble_window,
    }[regime]
    branches: list[Branch] = []
    degenerate: list[DegeneratePoint] = []
    segment = None

    def diagram(complete=True):
        folds = tuple(sorted(degenerate, key=lambda p: p.c))
        return BifurcationDiagram(
            problem, a, regime, tuple(branches), folds, segment, c_min, complete
        )

    try:
        segment = build(problem, a, c_min, kw, branches, degenerate)
    except (StepUnderflow, NonConvergence, SingularJacobian, Diverged) as exc:
        partial = diagram(complete=False)
        where = _window_position(problem, a, c_min) if regime == "above-lambda2" else ""
        raise AssemblyIncomplete(
            f"{regime} assembly stopped early: {exc}{where}", partial
        ) from exc
    return diagram()


def _window_position(problem, a, c_min):
    """Why a failed above-lambda2 assembly may have failed: its lower
    index-1 fold lies below c_min, or else where a sits relative to the
    four-solution window lambda2 + delta. The index-1 family, and with it
    delta, is traced only here."""
    gap = a - problem.modes()[1].eigenvalue
    try:
        curve = trace_index1_degenerate_curve(problem)
        delta = delta_window(problem, curve)
    except (NonConvergence, WrongKind, ValueError) as exc:
        return f" (a - lambda2 = {gap:.6g}; the window half-width delta failed: {exc})"
    fold_c = lower_index1_fold(problem, curve, a)
    if fold_c is not None and fold_c < c_min:
        return (
            f" (the trace reached c_min = {c_min:.6g} before the lower index-1 fold, "
            f"which the index-1 family puts at c = {fold_c:.6g} at this a; "
            "a c_min below it reaches that fold)"
        )
    side = "past" if gap > delta else "within"
    return f" (a - lambda2 = {gap:.6g}, delta = {delta:.6g}: a lies {side} lambda2 + delta)"


def _both_directions(problem, start, window, chart, kw):
    plus = continue_branch(problem, start, +1, window, chart=chart, **kw)
    minus = continue_branch(problem, start, -1, window, chart=chart, **kw)
    return plus, minus


def _pick_terminal(pair, kind):
    """The one trace of the pair that ends with an event of this kind.

    Otherwise raises NonConvergence naming every trace's terminal kind and
    last c; its last_iterate is the last point of the nearest trace (the
    first of several that end with the kind, else the longest trace), with
    that point's residual.
    """
    hits = [br for br in pair if _terminal_kind(br) == kind]
    if len(hits) != 1:
        ends = ", ".join(
            f"{_terminal_kind(br)!r} at c={br.points[-1].c:.6g}" for br in pair
        )
        nearest = hits[0] if hits else max(pair, key=lambda br: len(br.points))
        raise _stopped_at(
            nearest,
            f"expected exactly one trace ending with {kind!r}, got {len(hits)} "
            f"(traces end with {ends})",
        )
    return hits[0]


#: Chart-coordinate offset of a branch start next to a degenerate edge (the
#: ray's end at lambda1, the segment's ends at lambda2), and the doublings of
#: it tried when the start still classifies as degenerate.
EDGE_OFFSET = 0.05
EDGE_START_DOUBLINGS = 4


def _edge_start(problem, a, mode, edge, offset, kw):
    """Branch start with chart coordinate <u, e> / <e, e> = edge + offset,
    e the mode's eigenfunction, at c = 0, and the trace settings kw with the
    first step its traces take.

    Next to a degenerate edge the vanishing eigenvalue grows only like
    |t - edge|^(p_f - 1), so on a steep ramp the first offset can still
    classify as degenerate, where continuation cannot start; the offset is
    then doubled, at most EDGE_START_DOUBLINGS times.

    The first step moves the chart coordinate by twice the start's distance
    from the edge, so the trace toward the edge lands about as far inside
    the ray or segment as it started outside: past the states next to the
    edge whose vanishing eigenvalue is too small to tell from zero, and far
    enough inside for probes on both sides of the landed state to stay on
    the ray or segment.
    """
    e = mode.eigenfunction
    for _ in range(EDGE_START_DOUBLINGS + 1):
        t = edge + offset
        start = solve_at_projection(problem, a, e, t, t * e.values, 0.0)
        if not start.degenerate:
            norm = np.sqrt(problem.domain.inner(e.values, e.values))
            gap = abs(problem.domain.inner(e.values, start.u.values) / norm**2 - edge)
            return start, {**kw, "step0": 2.0 * gap * norm}
        offset *= 2.0
    raise NonConvergence(
        f"every branch start up to t={t:.6g} next to the degenerate edge "
        f"t={edge:.6g} is degenerate",
        start.u.values, start.residual_norm,
    )


def _stable_seed(problem, a):
    phi = problem.modes()[0]
    amp = critical_cap(problem.nonlinearity, a)
    return newton_solve(
        problem, DiscreteField(problem.domain, amp * phi.eigenfunction.values), a, 0.0
    )


def _add_curve(problem, back, window, chart, kw, tags, branches, degenerate, *, origin=False):
    """Trace a curve through its folds in one pass, and add its sheets,
    tagged tags in order from back's far end, and their folds to the diagram.

    back is the trace from the curve's start toward decreasing c, stopped at
    its first event. The trace toward increasing c runs on through each fold
    (stop_at_events=False), refining it once, and must end at the c window
    edge after one fold between each two sheets. It is cut at its folds
    (_cut); its first piece is stitched to back, and each later piece is
    reversed to end at the fold where the trace entered it. With origin,
    back crossed the chart origin, and the stitched sheet is cut at its
    point nearest t = 0 into tags[0] and tags[1].

    If the trace stops short or sees other events, the pieces before its
    last leading fold go into the diagram with their folds, and the
    StepUnderflow, or a NonConvergence naming the trace (its sheets joined
    by '|'), its events and its last point, is raised.
    """
    sheets = tags[1:] if origin else tags
    tag = "|".join(sheets)
    failure = None
    try:
        through = continue_branch(
            problem, back.points[0], +1, window, chart=chart, stop_at_events=False, **kw
        ).with_tag(tag)
    except StepUnderflow as exc:
        through, failure = exc.partial.with_tag(tag), exc
    want = ["fold"] * (len(sheets) - 1) + ["endpoint"]
    if failure is None and [ev.kind for ev in through.events] != want:
        seen = ", ".join(
            f"{ev.kind} at c={(ev.degenerate_point or through.points[ev.point_index]).c:.6g}"
            for ev in through.events
        )
        failure = _stopped_at(
            through, f"expected the events {', '.join(want)}; the trace saw {seen or 'none'}"
        )
    folds = list(itertools.takewhile(
        lambda ev: ev.kind == "fold", through.events[: len(sheets) - 1]
    ))
    cuts = [(ev.point_index, ev.point_index + 1) for ev in folds]
    pieces = _cut(through, cuts, sheets, chart)
    if failure is not None:
        pieces.pop()
    if pieces:
        first = _stitch(back, pieces[0], pieces[0].tag)
        if origin:
            k = int(np.argmin(np.abs(first.t_values())))
            branches.extend(_cut(first, [(k, k)], tags[:2], chart))
        else:
            branches.append(first)
        branches.extend(_reversed(p) for p in pieces[1:])
    degenerate.extend(ev.degenerate_point for ev in folds)
    if failure is not None:
        raise failure


def _assemble_below(problem, a, c_min, kw, branches, degenerate):
    zero = newton_solve(problem, DiscreteField.zero(problem.domain), a, 0.0)
    window = (c_min, -c_min)
    plus, minus = _both_directions(problem, zero, window, "phi", kw)
    branches.append(_stitch(minus, plus, "Mstar"))
    return None


def _assemble_at_lambda1(problem, a, c_min, kw, branches, degenerate):
    # c = 0 carries a ray of degenerate states t*phi (t <= M); the display
    # clips it to [-M, M]. For c < 0 the stable sheet hangs off the ray's
    # upper edge.
    # The ray is built from the closed-form mode and certified as Pairs (as
    # the degenerate segment is): multiples of the float64 eigenvector miss
    # the steady-state tolerance on fine grids.
    phi = problem.modes()[0]
    M = problem.nonlinearity.M
    dom = problem.domain
    ts = np.linspace(-M, M, 41) if M > 0 else np.array([0.0])
    _, states, sups = closed_form_states(problem, 1, ts, NEWTON_TOL, "ray states")
    ray_pts = []
    # On the ray |u| <= M, so f' vanishes and every ray state has the
    # Jacobian Delta_h + a I: one classification serves them all. The check
    # is exact, and a state where f' does not vanish is classified itself.
    flat = None
    for state, r in zip(states, sups):
        u = DiscreteField(dom, state.hi)
        if np.any(ramp_slope(problem.nonlinearity, u.values)):
            point = classify_state(problem, u, a, 0.0, rnorm=r)
        elif flat is None:
            point = flat = classify_state(problem, u, a, 0.0, rnorm=r)
        else:
            point = dataclasses.replace(flat, u=u, residual_norm=r)
        ray_pts.append(point)
    branches.append(Branch(tuple(ray_pts), "phi", tag="ray"))
    start, edge_kw = _edge_start(problem, a, phi, M, EDGE_OFFSET, kw)
    pair = _both_directions(problem, start, (c_min, 1.0), "phi", edge_kw)
    toward_cmin = _pick_terminal(pair, "endpoint")
    toward_ray = _pick_terminal(pair, "degeneracy")
    branches.append(_stitch(toward_cmin, toward_ray, "Mstar"))
    # The trace stops by landing on a degenerate state of the ray; that
    # landed point is the junction marker (degeneracy events carry no
    # separately refined point). Every ray state has the same vanishing
    # normal form, which the verification checks by probes on both sides of
    # the marker; _edge_start lands it inside the ray, clear of its end.
    end = toward_ray.points[-1]
    degenerate.append(DegeneratePoint(
        a, end.c, end.u, end.spectrum.eigenfunctions[0],
        end.morse_index, "fold-index0", end.residual_norm,
    ))
    return None


def _stable_curve(problem, a, c_min, kw, chart, tags, branches, degenerate):
    """The curve through the stable seed, traced down the stable sheet to
    c_min and up it through the folds between the sheets tags to c_min."""
    window = (c_min, 1e9)
    back = continue_branch(problem, _stable_seed(problem, a), -1, window, chart="phi", **kw)
    back = _pick_terminal((back.with_tag("Mstar"),), "endpoint")
    _add_curve(problem, back, window, chart, kw, tags, branches, degenerate)


def _assemble_between(problem, a, c_min, kw, branches, degenerate):
    # Mstar up to the fold, then Msharp down to c_min
    _stable_curve(problem, a, c_min, kw, "phi", ("Mstar", "Msharp"), branches, degenerate)


def _assemble_at_lambda2(problem, a, c_min, kw, branches, degenerate):
    # Msharp runs from the segment's upper edge through the fold onto Mstar
    # and down to c_min; Mflat from c_min up to the segment's lower edge.
    # The traces toward the segment stop at their first event: traced on,
    # they would run along the segment with a degeneracy event at every step.
    psi = problem.modes()[1]
    window = (c_min, 1e9)
    segment = build_degenerate_segment(problem)
    start, edge_kw = _edge_start(problem, a, psi, segment.t_max, EDGE_OFFSET, kw)
    top_in = continue_branch(problem, start, -1, window, chart="psi", **edge_kw)
    top_in = top_in.with_tag("Msharp")
    # zero threshold: the segment is a point, and the inward trace stepped
    # across the origin and ran on to c_min along Mflat
    joined = _terminal_kind(top_in) == "endpoint"
    if not joined:
        _pick_terminal((top_in,), "degeneracy")
    _add_curve(
        problem, top_in, window, "psi", edge_kw,
        ("Mflat", "Msharp", "Mstar") if joined else ("Msharp", "Mstar"),
        branches, degenerate, origin=joined,
    )
    if not joined:
        start, edge_kw = _edge_start(problem, a, psi, segment.t_min, -EDGE_OFFSET, kw)
        bottom_pair = _both_directions(problem, start, window, "psi", edge_kw)
        branches.append(_stitch(
            _pick_terminal(bottom_pair, "endpoint"),
            _pick_terminal(bottom_pair, "degeneracy"),
            "Mflat",
        ))
    return segment


def _assemble_window(problem, a, c_min, kw, branches, degenerate):
    # Mstar up to its fold, Msharp down to p_sharp (c < 0), the middle piece
    # Mnatural up to p_flat (c > 0), then Mflat down to c_min
    tags = ("Mstar", "Msharp", "Mnatural", "Mflat")
    _stable_curve(problem, a, c_min, kw, "psi", tags, branches, degenerate)
    _, p_sharp, p_flat = degenerate
    if not p_sharp.c < 0 < p_flat.c:
        raise _stopped_at(
            branches[2], "middle piece did not terminate at folds on both sides of c=0"
        )


#: The bounds verify_structure holds its claims to, each named once. A claim
#: with a bound read off the diagram (the connectivity node count, a sheet's
#: dominant index, a level's expected count) takes it where it is made.
#: normal-form: the relative error of the FD probes against the formulas,
#: each relative to max(|formula|, NORMAL_FORM_FLOOR).
NORMAL_FORM_RTOL = 0.05
NORMAL_FORM_FLOOR = 1e-12
#: index0-degenerate-c-nonnegative: the lowest c of an index-0 fold; c = 0
#: junctions sit at roundoff-level negative values.
FOLD_C_FLOOR = -1e-9
#: stable-monotone-in-c and stable-superharmonic-small-c: the stable sheet's
#: nodewise decrease in c and its superharmonic margin, less rounding.
STABLE_SHEET_FLOOR = -1e-10
#: segment-second-eigenvalue-zero: the largest |mu2| on the segment.
SEGMENT_MU2_TOL = 1e-10
#: cusp-flat-at-origin: the index-one sheet's near over far slope of c(t).
CUSP_RATIO = 0.3
#: at-least-three: the fewest states at the window's levels next to c = 0.
WINDOW_MIN_COUNT = 3
#: Largest sup-norm distance at which verify_structure takes two states for
#: the same one (junction ends, predicted and oracle states, segment states).
MATCH_TOL = 1e-6
#: The exceptions a claim about every step or state allows: silent index
#: changes, c = 0 states breaking the static criterion or the dichotomy.
NO_EXCEPTIONS = 0
#: middle-sheet-slope-negative: the middle sheet's dc/dt at the origin lies
#: below this.
MIDDLE_SLOPE_CEILING = 0.0

_RELATIONS = {
    "==": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


@dataclass(frozen=True)
class ClaimCheck:
    """One verified claim: its id, the measured value, the relation ("==",
    "<", "<=", ">" or ">=") it must stand in to the bound, and a note with
    what the number does not say (a failed probe's message, the counts an
    equivalence matched, the raw value a correction started from). passed
    is `measured relation bound`, so a NaN measurement fails."""

    claim: str
    measured: float
    relation: str
    bound: float
    note: str = ""

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.measured, self.bound))


@dataclass(frozen=True)
class VerificationReport:
    regime: str
    a: float
    checks: tuple[ClaimCheck, ...]

    @property
    def passed(self) -> bool:
        return all(chk.passed for chk in self.checks)

    def failures(self) -> tuple[ClaimCheck, ...]:
        return tuple(chk for chk in self.checks if not chk.passed)


def _branch_crossings(branch: Branch, c: float):
    """Indices i where the branch crosses level c between points i, i+1
    (or sits exactly on it at i)."""
    cv = np.asarray(branch.c_values())
    hits = []
    for i in range(len(cv) - 1):
        d0, d1 = cv[i] - c, cv[i + 1] - c
        if d0 == 0.0:
            hits.append(i)
        elif d0 * d1 < 0:
            hits.append(i)
    if len(cv) and cv[-1] == c and (len(cv) < 2 or cv[-2] != c):
        hits.append(len(cv) - 1)
    return hits


def _refined_crossing(problem, branch: Branch, i: int, c: float):
    """Newton-polish the linear interpolant of a crossing back onto the
    solution manifold at exactly this c."""
    p, q = branch.points[i], branch.points[min(i + 1, len(branch.points) - 1)]
    if q.c != p.c:
        w = (c - p.c) / (q.c - p.c)
    else:
        w = 0.0
    u0 = (1 - w) * p.u.values + w * q.u.values
    return newton_solve(problem, DiscreteField(problem.domain, u0), branch.points[0].a, c)


def _refined_states(diagram: BifurcationDiagram, c: float):
    """The refined branch crossings at level c, deduplicated at DEDUP_REL as
    the oracle deduplicates, and the number of crossings whose Newton polish
    failed."""
    problem = diagram.problem
    found: list[SolutionPoint] = []
    failed = 0
    for br in diagram.branches:
        for i in _branch_crossings(br, c):
            try:
                pt = _refined_crossing(problem, br, i, c)
            except (NonConvergence, SingularJacobian, Diverged):
                failed += 1
                continue
            if all(_rel_distance(pt.u, m.u) > DEDUP_REL for m in found):
                found.append(pt)
    return found, failed


def diagram_solutions_at(diagram: BifurcationDiagram, c: float):
    """All solutions the diagram's branches predict at level c, refined by
    fixed-parameter Newton and deduplicated."""
    return _refined_states(diagram, c)[0]


def verify_structure(
    diagram: BifurcationDiagram, oracle_budget: int = 400, seed=0
) -> VerificationReport:
    """Replay the structural claims of the diagram's regime and record one
    ClaimCheck per claim; failures are recorded, never raised.

    Each level is solved once: one count_solutions set (at the given budget
    and seed) per count sample and at c = 0, and one refined prediction per
    sample. count@c holds the oracle count to the distinct refined states
    plus the crossings whose polish failed, so a failed refinement cannot
    lower the expectation; oracle-equivalence@c matches the two sets; the
    static-stability and dichotomy claims read the c = 0 set; the window's
    at-least-three@c claims read the sets at the two samples next to c = 0.
    The other claims read the diagram or run their own probes."""
    problem = diagram.problem
    checks: list[ClaimCheck] = []
    regime = diagram.regime

    checks.append(_check_connectivity(diagram))
    checks.extend(_check_index_sequences(diagram))
    checks.extend(_check_fold_formulas(problem, diagram))
    checks.append(_check_signc(diagram))
    checks.extend(_check_junction_agreement(diagram))

    samples = _count_samples(diagram)
    oracle = {c: count_solutions(problem, diagram.a, c, oracle_budget, seed)
              for c in (*samples, 0.0)}
    for c in samples:
        predicted, failed = _refined_states(diagram, c)
        got = oracle[c]
        checks.append(ClaimCheck(
            f"count@c={c:.6g}", got.count, "==", len(predicted) + failed
        ))
        checks.append(_check_equivalence(predicted, got))

    if regime in ("between-lambda1-lambda2", "at-lambda2", "above-lambda2"):
        checks.extend(_check_stable_sheet(diagram))

    czero = oracle[0.0]
    checks.append(_check_static_stability(czero))

    if regime == "at-lambda2":
        checks.append(_check_segment_degeneracy(diagram))
        checks.append(_check_dichotomy(diagram, czero))
        if problem.nonlinearity.M == 0.0:
            checks.append(_check_cusp(diagram))
    if regime == "above-lambda2":
        checks.extend(_check_window_claims(diagram, [oracle[c] for c in samples[:2]]))

    return VerificationReport(regime, diagram.a, tuple(checks))


def _check_connectivity(diagram) -> ClaimCheck:
    """Union of branches, degenerate points and segment is one connected
    graph component."""
    nodes = [("branch", br) for br in diagram.branches]
    nodes += [("point", dp) for dp in diagram.degenerate_points]
    if diagram.segment is not None:
        nodes.append(("segment", diagram.segment))
    n = len(nodes)
    adj = [set() for _ in range(n)]

    def close(i, j):
        kind_i, obj_i = nodes[i]
        kind_j, obj_j = nodes[j]
        if kind_i != "branch":
            return False
        ends = [obj_i.points[0], obj_i.points[-1]]
        if kind_j == "point":
            return any(
                np.max(np.abs(e.u.values - obj_j.u.values)) + abs(e.c - obj_j.c) < 2.0
                for e in ends
            )
        if kind_j == "segment":
            return any(
                _on_segment(obj_j, obj_i.points[k].c, obj_i.t_proj[k]) for k in (0, -1)
            )
        return False

    for i in range(n):
        for j in range(n):
            if i != j and (close(i, j) or close(j, i)):
                adj[i].add(j)
                adj[j].add(i)
    seen = {0} if n else set()
    stack = [0] if n else []
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return ClaimCheck("connectivity", len(seen), "==", n)


_DOMINANT_INDEX = {"Mstar": 0, "Msharp": 1, "Mflat": 1, "Mnatural": 2, "ray": 0}


def _check_index_sequences(diagram):
    out = []
    for br in diagram.branches:
        idx = br.morse_indices()
        sites = {ev.point_index for ev in br.events}
        silent = [
            i for i in range(len(idx) - 1)
            if idx[i] != idx[i + 1] and i not in sites
        ]
        out.append(ClaimCheck(
            f"index-changes-at-events[{br.tag}]", len(silent), "==", NO_EXCEPTIONS
        ))
        want = _DOMINANT_INDEX.get(br.tag)
        if want is not None and len(idx):
            dominant = int(np.bincount(idx).argmax())
            out.append(ClaimCheck(f"dominant-index[{br.tag}]", dominant, "==", want))
    return out


def _check_fold_formulas(problem, diagram):
    out = []
    for dp in diagram.degenerate_points:
        claim = f"normal-form@c={dp.c:.6g}"
        try:
            chk = fold_normal_form_checks(problem, dp)
        except (NonConvergence, SingularJacobian) as exc:
            out.append(ClaimCheck(claim, np.nan, "<", NORMAL_FORM_RTOL, str(exc)))
            continue
        worst = max(
            abs(chk[f"{q}_fd"] - chk[f"{q}_formula"])
            / max(abs(chk[f"{q}_formula"]), NORMAL_FORM_FLOOR)
            for q in ("mu_slope", "c_curvature")
        )
        out.append(ClaimCheck(claim, worst, "<", NORMAL_FORM_RTOL))
    return out


def _check_signc(diagram) -> ClaimCheck:
    cs = [dp.c for dp in diagram.degenerate_points if dp.kind == "fold-index0"]
    return ClaimCheck(
        "index0-degenerate-c-nonnegative", min(cs, default=0.0), ">=", FOLD_C_FLOOR
    )


def _check_junction_agreement(diagram):
    """Junction points reached from two branches must coincide; measures the
    uniqueness content of the degenerate-solution curves.

    Each sheet next to a fold carries the fold's event. An event is paired
    only with another branch's event on the same refined fold, the
    diagram's degenerate point nearest to both, never with another fold's
    event however close in c, nor with the other end of its own sheet.
    """
    folds = diagram.degenerate_points
    ends = []
    for b, br in enumerate(diagram.branches):
        for ev in br.events:
            dp = ev.degenerate_point
            if ev.kind == "fold" and dp is not None and folds:
                k = min(range(len(folds)), key=lambda k: _mismatch(dp, folds[k]))
                ends.append((b, br.tag, k, dp))
    out = []
    for i, (bi, ti, ki, pi) in enumerate(ends):
        for bj, tj, kj, pj in ends[i + 1:]:
            if bi != bj and ki == kj:
                out.append(ClaimCheck(
                    f"junction-match[{ti}~{tj}]", _mismatch(pi, pj), "<", MATCH_TOL
                ))
    return out


def _mismatch(p, q) -> float:
    """sup|u_p - u_q| + |c_p - c_q| of two degenerate points."""
    return float(np.max(np.abs(p.u.values - q.u.values))) + abs(p.c - q.c)


def _count_samples(diagram):
    folds = sorted(dp.c for dp in diagram.degenerate_points)
    regime = diagram.regime
    if regime in ("below-lambda1", "at-lambda1"):
        return [diagram.c_min / 2.0]
    if regime in ("between-lambda1-lambda2", "at-lambda2"):
        c_star = folds[-1]
        return [-1.0, 0.5 * c_star, c_star + 0.5]
    c_sharp, c_flat, c_star = folds
    small = 0.2 * abs(c_sharp)
    return [-small, small, 0.5 * (c_flat + c_star), c_star + 0.5]


def _check_equivalence(predicted, oracle_set) -> ClaimCheck:
    """Oracle solutions and refined branch crossings agree both ways: the
    worst sup distance from a state of either set to the nearest state of
    the other. Each set is deduplicated at relative L2 distance DEDUP_REL,
    which keeps two of its states over DEDUP_REL / sqrt(L) apart in sup
    norm on an interval of length L, far beyond 2 MATCH_TOL; so a match
    within MATCH_TOL pairs the sets one to one, and their counts agree."""
    def gap(x, others):
        return min(
            (float(np.max(np.abs(x.u.values - y.u.values))) for y in others),
            default=np.inf,
        )

    members = oracle_set.members
    worst = max(
        [gap(m, predicted) for m in members] + [gap(p, members) for p in predicted],
        default=0.0,
    )
    return ClaimCheck(
        f"oracle-equivalence@c={oracle_set.c:.6g}", worst, "<", MATCH_TOL,
        f"{len(oracle_set.members)} oracle, {len(predicted)} predicted",
    )


def _check_stable_sheet(diagram):
    """Structural facts about the stable sheet: nodewise monotone
    decrease in c and superharmonicity near c = 0."""
    problem = diagram.problem
    out = []
    star = diagram.branch("Mstar")
    stop = len(star.points)
    for ev in star.events:
        if ev.kind == "fold":
            stop = ev.point_index + 1
            break
    pts = [p for p in star.points[:stop] if p.morse_index == 0]
    order = np.argsort([p.c for p in pts])
    worst = 0.0
    for k in range(len(order) - 1):
        lo, hi = pts[order[k]], pts[order[k + 1]]
        worst = min(worst, float(np.min(lo.u.values - hi.u.values)))
    out.append(ClaimCheck("stable-monotone-in-c", worst, ">", STABLE_SHEET_FLOOR))

    def superharmonic_margin(p):
        f = ramp_values(problem.nonlinearity, p.u.values)
        return float(np.min(diagram.a * p.u.values - f - p.c * problem.harvest.values))

    near = [p for p in pts if abs(p.c) <= 0.01]
    if not near:
        near = [_refined_crossing(problem, star, _branch_crossings(star, 0.005)[0], 0.005)]
    out.append(ClaimCheck(
        "stable-superharmonic-small-c", min(superharmonic_margin(p) for p in near),
        ">", STABLE_SHEET_FLOOR,
    ))
    return out


def _violates_static_criterion(point: SolutionPoint) -> bool:
    """Whether a c=0 state breaks the static stability criterion: it is
    stable exactly when nonnegative with maximum beyond the ramp threshold.

    The comparison uses the raw sign of the first eigenvalue: within the
    degeneracy tolerance of a junction the flag-based classification cannot
    certify the strict inequality the criterion asserts, while the computed
    eigenvalue still carries the right sign at accessible points. The zero
    state is exempt when the growth rate does not exceed the principal
    eigenvalue; there it is stable with maximum zero, outside the scope of
    the criterion (whose converse needs a nontrivial state)."""
    problem = point.problem
    u = point.u.values
    lam1 = problem.modes()[0].eigenvalue
    if point.a <= lam1 + 1e-8 and float(np.max(np.abs(u))) < 1e-8:
        return False
    static = (u.min() > -1e-10) and (u.max() > problem.nonlinearity.M)
    return static != (point.spectrum.eigenvalues[0] > 0.0)


def _check_static_stability(czero_set) -> ClaimCheck:
    """Every c=0 solution the oracle finds obeys the static stability
    criterion."""
    bad = sum(_violates_static_criterion(p) for p in czero_set)
    return ClaimCheck("static-stability-criterion", bad, "==", NO_EXCEPTIONS)


def _check_segment_degeneracy(diagram) -> ClaimCheck:
    """Sampled states on the neutral segment must have a vanishing second
    eigenvalue. Each sample's residual is that of the exact state t psi as
    a Pair (closed_form_states, held to NEWTON_TOL): the float64 rounding
    of a segment state misses NEWTON_TOL on fine grids.

    Where f' is exactly zero at every sample, as it is for u <= M, each
    sample's J = Delta_h + a I has the one uniform diagonal fl(-2/h^2 + a),
    and the rounding e of that sum shifts every eigenvalue of -J by e, a
    shift that grows like n^2 eps and says nothing of the state. mu2 is
    then measured less e, which one TwoSum gives; the note records the
    largest raw |mu2| and e."""
    seg = diagram.segment
    problem = diagram.problem
    ts = np.linspace(seg.t_min, seg.t_max, 5)
    _, _, sups = closed_form_states(problem, 2, ts, NEWTON_TOL, "segment samples")
    states = [seg.state_at(float(t)) for t in ts]
    mu2 = [
        classify_state(problem, u, diagram.a, 0.0, rnorm=r).spectrum.eigenvalues[1]
        for u, r in zip(states, sups)
    ]
    e = 0.0
    if not any(ramp_slope(problem.nonlinearity, u.values).any() for u in states):
        x, y = float(problem.laplacian.diag[0]), float(diagram.a)
        s = x + y
        z = s - x
        # -J's diagonal is -s where -(x + y) = -s - e is exact
        e = (x - (s - z)) + (y - z)
    return ClaimCheck(
        "segment-second-eigenvalue-zero", max(abs(m - e) for m in mu2), "<=",
        SEGMENT_MU2_TOL,
        f"raw |mu2| {max(abs(m) for m in mu2):.4g}, diagonal rounding e {e:.4g}",
    )


def _check_dichotomy(diagram, czero_set) -> ClaimCheck:
    """At the second eigenvalue every c=0 solution is stable or sits on the
    neutral segment.

    Membership allows the projection to overshoot the segment ends by the
    p-th root of the residual tolerance: the ramp lifts off with power p, so
    a pure eigenfunction multiple a hair beyond the end still satisfies the
    equations to solver accuracy and belongs to the segment numerically."""
    seg = diagram.segment
    psi = diagram.problem.modes()[1].eigenfunction
    slack = (1e3 * NEWTON_TOL) ** (1.0 / diagram.problem.nonlinearity.p_f)
    bad = 0
    for p in czero_set:
        if p.morse_index == 0 and not p.degenerate:
            continue
        t = chart_coordinate(diagram.problem, "psi", p.u.values)
        on_segment = (
            seg is not None
            and seg.t_min - slack <= t <= seg.t_max + slack
            and float(np.max(np.abs(p.u.values - t * psi.values))) < MATCH_TOL
        )
        if not on_segment:
            bad += 1
    return ClaimCheck("czero-dichotomy", bad, "==", NO_EXCEPTIONS)


def _check_cusp(diagram) -> ClaimCheck:
    """Zero-threshold case: the index-one sheet's c(t) flattens at the
    origin (the non-differentiability of the joined graph in c).

    c(t) is sampled by fixed-projection solves rather than read off branch
    points, whose spacing near the origin is too coarse for a one-sided
    derivative estimate. The zero state solves the problem at c=0, so the
    near slope is the secant from the origin itself."""
    problem = diagram.problem
    psi = problem.modes()[1].eigenfunction

    def c_at(t):
        pt = solve_at_projection(
            problem, diagram.a, psi, t, t * psi.values, 0.0
        )
        return pt.c

    ratios = []
    for sgn in (+1.0, -1.0):
        near = abs(c_at(sgn * 0.02)) / 0.02
        far = abs(c_at(sgn * 0.15) - c_at(sgn * 0.10)) / 0.05
        ratios.append(near / max(far, 1e-30))
    return ClaimCheck("cusp-flat-at-origin", max(ratios), "<", CUSP_RATIO)


def _check_window_claims(diagram, near_zero_sets):
    out = [
        ClaimCheck(f"at-least-three@c={got.c:.6g}", got.count, ">=", WINDOW_MIN_COUNT)
        for got in near_zero_sets
    ]
    slope, _ = branch_derivative_at_zero(diagram.problem, diagram.a, "psi")
    out.append(
        ClaimCheck("middle-sheet-slope-negative", slope, "<", MIDDLE_SLOPE_CEILING)
    )
    return out


#: stability_crosscheck's kick and time march: the kick's amplitude, the seed
#: of an index-0 kick's random direction, the IMEX step and the horizon. A
#: deviation that grows CROSSCHECK_GROWTH-fold counts as repelled, one that
#: shrinks to CROSSCHECK_DECAY of the kick as attracted.
CROSSCHECK_AMPLITUDE = 1e-3
CROSSCHECK_SEED = 0
CROSSCHECK_DT = 2e-3
CROSSCHECK_T = 3.0
CROSSCHECK_GROWTH = 3.0
CROSSCHECK_DECAY = 0.3


def stability_crosscheck(point: SolutionPoint) -> str:
    """Dynamic test of the Morse classification: 'pass', 'fail' or
    'inconclusive'.

    Index zero must attract a small random perturbation back to the point:
    a combination of the two lowest eigendirections with standard normal
    weights drawn from CROSSCHECK_SEED. Positive index must repel a kick
    along the first eigendirection, with the deviation staying aligned to
    it. For c = 0 the static criterion (nonnegative with maximum beyond the
    threshold) must agree as well. Degenerate points drift too slowly along
    the neutral direction to settle either way and typically come back
    inconclusive.
    """
    problem = point.problem
    dom = problem.domain
    u, a, c = point.u.values, point.a, point.c

    def l2(v):
        return float(np.sqrt(dom.inner(v, v)))

    if abs(c) < 1e-12 and _violates_static_criterion(point):
        return "fail"

    modes = point.spectrum.eigenfunctions
    if point.morse_index == 0:
        rng = np.random.default_rng(CROSSCHECK_SEED)
        direction = sum(rng.standard_normal() * m.values for m in modes[:2])
    else:
        direction = modes[0].values.copy()
    direction /= l2(direction)

    state = DiscreteField(dom, u + CROSSCHECK_AMPLITUDE * direction)
    chunks = 10
    diverged = False
    for _ in range(chunks):
        try:
            state = time_march(
                problem, state, a, c, dt=CROSSCHECK_DT, T=CROSSCHECK_T / chunks
            )
        except Diverged:
            diverged = True
            break
        if l2(state.values - u) > CROSSCHECK_GROWTH * max(
            CROSSCHECK_AMPLITUDE, 0.1 * max(1.0, l2(u))
        ):
            break
    dev = state.values - u
    ratio = l2(dev) / CROSSCHECK_AMPLITUDE

    if point.morse_index == 0 and not point.degenerate:
        if ratio <= CROSSCHECK_DECAY:
            return "pass"
        if diverged or ratio >= CROSSCHECK_GROWTH:
            return "fail"
        return "inconclusive"

    if diverged or ratio >= CROSSCHECK_GROWTH:
        aligned = abs(dom.inner(dev, direction)) / max(l2(dev), 1e-30)
        if point.degenerate:
            return "pass" if aligned > 0.5 else "inconclusive"
        return "pass" if aligned > 0.6 else "fail"
    if point.degenerate:
        return "inconclusive"
    return "fail" if ratio <= CROSSCHECK_DECAY else "inconclusive"
