"""Whole-picture assembly: enumerate all steady states at a parameter pair,
assemble the bifurcation diagram of a growth-rate regime, and verify the
structural claims the diagram is supposed to realize.

The five regimes are keyed off the discrete eigenvalues: below-lambda1,
at-lambda1, between-lambda1-lambda2, at-lambda2 and above-lambda2 (the
four-solution window). Assembly launches branches from canonical zero-harvest
seeds, refines every fold, and stitches the pieces at degenerate points or at
the neutral segment; verification replays the regime's claims against the
multistart oracle and records one ClaimCheck per claim.

Branch tags use the ASCII names Mstar (stable sheet), Msharp and Mflat (the
index-one sheets), Mnatural (the index-two middle piece) and ray (the
degenerate ray at the first eigenvalue, clipped for display).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .grid import DiscreteField, exact_mode_longdouble, laplacian_eigenpairs
from .model import critical_cap, ramp_values
from .solver import (
    COUNT_MAX_ITER,
    NEWTON_TOL,
    Diverged,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    _newton_rows,
    classify_state,
    newton_ball,
    newton_solve,
    time_march,
)
from .continuation import (
    Branch,
    BranchEvent,
    DegeneratePoint,
    DegenerateSegment,
    StepUnderflow,
    WrongKind,
    branch_derivative_at_zero,
    build_degenerate_segment,
    continue_branch,
    delta_window,
    fold_normal_form_checks,
    solve_at_projection,
    trace_index1_degenerate_curve,
)

DEDUP_REL = 1e-4
#: Largest sup-norm distance at which verify_structure takes two states for
#: the same one (junction ends, predicted and oracle states, segment states).
MATCH_TOL = 1e-6
#: First arclength step of every assembly trace but those from an edge
#: start, whose first step _edge_pair sets.
ASSEMBLY_STEP0 = 0.05
REGIMES = (
    "below-lambda1",
    "at-lambda1",
    "between-lambda1-lambda2",
    "at-lambda2",
    "above-lambda2",
)


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated steady states found at one (a, c) by multistart Newton.

    radii holds, member by member, the certified Newton ball radius of
    solver.newton_ball (Euclidean on R^n) or the reason the member has
    none; exited counts the starts that ended inside such a ball.
    """

    members: tuple[SolutionPoint, ...]
    a: float
    c: float
    n_starts: int
    dedup_threshold: float
    radii: tuple[float | str, ...]
    exited: int

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


def _multistart_seeds(problem: Problem, a: float, n_starts: int, seed):
    """Deterministic start fields, yielded as (k, n) stacks of at most
    _CHUNK starts so that only one chunk is alive at a time: zero, +-span
    times each of the first two modes, then random low-frequency
    combinations. span is twice the critical cap K_a for a > 0. The fields
    do not depend on the chunk size."""
    dom = problem.domain
    if a > 0:
        span = 2.0 * critical_cap(problem.nonlinearity, a)
    else:
        span = 2.0 * max(1.0, abs(a), problem.nonlinearity.M + 1.0)
    phi, psi = (p.eigenfunction.values for p in problem.modes())
    fixed = [np.zeros(dom.n_interior), span * phi, -span * phi, span * psi, -span * psi]
    basis = np.stack([
        p.eigenfunction.values
        for p in laplacian_eigenpairs(dom, 4, harvest=problem.harvest)
    ])
    rng = np.random.default_rng(seed)
    for lo in range(0, n_starts, _CHUNK):
        chunk = np.empty((min(_CHUNK, n_starts - lo), dom.n_interior))
        for i, row in enumerate(chunk, lo):
            # one product per start: a stacked product rounds differently
            row[:] = fixed[i] if i < len(fixed) else rng.uniform(-span, span, size=4) @ basis
        yield chunk


# Starts per batched Newton solve in count_solutions. Larger chunks cut the
# per-iteration interpreter overhead further but grow the working set; with
# 32, the arrays of a 400-start count peak 2.6 MB above those of the
# one-start-at-a-time loop at n = 399 (4.1 against 1.4 MB) and 10.9 MB
# above at n = 1599 (16.5 against 5.6 MB), measured with tracemalloc.
_CHUNK = 32


def count_solutions(
    problem: Problem, a: float, c: float, n_starts: int = 400, seed=0
) -> SolutionSet:
    """Enumerate the steady states at (a, c) by multistart Newton.

    The starts are solved in fixed chunks by solver._newton_rows, the damped
    Newton of newton_solve, at most COUNT_MAX_ITER iterations each; starts
    that stall, run out of iterations or meet a singular Jacobian are
    discarded. The converged iterates are deduplicated in start order at
    relative L2 distance DEDUP_REL; each survivor is classified when it is
    first kept, so each member carries its Morse index, and given the
    radius of its certified Newton ball (solver.newton_ball) or the reason
    it has none. A start of a later chunk whose float64 iterate enters the
    half ball of a member kept in an earlier chunk stops there: the ball
    holds no other zero and the damped Newton cannot leave it, so the start
    would have ended on that member, within half DEDUP_REL of it, or
    failed, and either way been discarded. Balls of members kept in the
    same chunk are not used, since the first start to converge need not be
    the first in start order. Deterministic for a fixed seed, and
    bit-identical whatever the chunking.
    """
    if n_starts < 50:
        raise ValueError(f"need n_starts >= 50, got {n_starts}")
    dom = problem.domain
    kept: list[tuple[SolutionPoint, float | str]] = []
    centers, radii = [], []
    exited = 0
    for starts in _multistart_seeds(problem, a, n_starts, seed):
        balls = (np.stack(centers), np.array(radii)) if centers else None
        for end in _newton_rows(problem, starts, a, c, COUNT_MAX_ITER, balls):
            if isinstance(end, int):
                exited += 1
                continue
            if isinstance(end, Exception):
                continue
            u64, rnorm, history = end
            u = DiscreteField(dom, u64)
            if all(_rel_distance(u, m.u) > DEDUP_REL for m, _ in kept):
                point = classify_state(problem, u, a, c, residual_history=history,
                                       rnorm=rnorm)
                capture = 0.5 * DEDUP_REL * max(dom.l2_norm(u64), 1.0) / np.sqrt(dom.spacing)
                radius = newton_ball(problem, point, capture)
                kept.append((point, radius))
                if not isinstance(radius, str):
                    centers.append(u64)
                    radii.append(radius)
    kept.sort(key=lambda m: (
        np.sqrt(dom.inner(m[0].u.values, m[0].u.values)),
        float(m[0].u.values.max()),
        m[0].morse_index,
    ))
    return SolutionSet(
        tuple(p for p, _ in kept), a, c, n_starts, DEDUP_REL,
        tuple(r for _, r in kept), exited,
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


def _reindexed_events(down: Branch, up: Branch) -> tuple[BranchEvent, ...]:
    m = len(down.points)
    out = []
    for ev in down.events:
        if ev.kind == "endpoint":
            new = m - 1 - ev.point_index
        else:
            new = m - 2 - ev.point_index
        out.append(dataclasses.replace(ev, point_index=max(new, 0)))
    for ev in up.events:
        out.append(dataclasses.replace(ev, point_index=m - 1 + ev.point_index))
    return tuple(sorted(out, key=lambda e: e.point_index))


def _stitch(down: Branch, up: Branch, tag: str) -> Branch:
    """Join two traces that started from the same point into one branch
    running from down's far end to up's far end."""
    if down.chart != up.chart:
        raise ValueError("cannot stitch branches with different charts")
    if down.points[0] is not up.points[0]:
        raise ValueError("stitched traces must share their first point")
    points = tuple(reversed(down.points)) + up.points[1:]
    t_proj = tuple(reversed(down.t_proj)) + up.t_proj[1:]
    s_down = down.arclengths
    total = s_down[-1]
    s = [total - v for v in reversed(s_down)]
    s += [total + v for v in up.arclengths[1:]]
    return Branch(
        points, tuple(s), down.chart, t_proj,
        events=_reindexed_events(down, up), tag=tag, steps=down.steps + up.steps,
    )


def _slice_branch(br: Branch, start: int, tag: str) -> Branch:
    """Tail of a branch from index `start` on, re-based at arclength zero."""
    base = br.arclengths[start]
    events = tuple(
        dataclasses.replace(ev, point_index=ev.point_index - start)
        for ev in br.events
        if ev.point_index >= start
    )
    return Branch(
        br.points[start:],
        tuple(v - base for v in br.arclengths[start:]),
        br.chart,
        br.t_proj[start:],
        events=events,
        tag=tag,
        steps=br.steps,
    )


def _terminal_kind(br: Branch) -> str:
    return br.events[-1].kind if br.events else "none"


def _stopped_at(br: Branch, msg: str) -> NonConvergence:
    """NonConvergence naming the trace's tag, if it has one, and carrying
    its last point with that point's residual."""
    last = br.points[-1]
    name = f"{br.tag}: " if br.tag else ""
    return NonConvergence(name + msg, last.u.values, last.residual_norm)


def _terminal_fold(br: Branch) -> DegeneratePoint:
    for ev in reversed(br.events):
        if ev.kind == "fold" and ev.degenerate_point is not None:
            return ev.degenerate_point
    raise _stopped_at(
        br,
        f"branch has no refined fold event; its trace ends with {_terminal_kind(br)!r}",
    )


def _dedup_degenerate(points, tol=1e-6):
    kept: list[DegeneratePoint] = []
    for p in points:
        duplicate = False
        for q in kept:
            du = np.max(np.abs(p.u.values - q.u.values))
            if du + abs(p.c - q.c) < tol * max(1.0, abs(q.c)):
                duplicate = True
                break
        if not duplicate:
            kept.append(p)
    kept.sort(key=lambda p: p.c)
    return tuple(kept)


def assemble_diagram(
    problem: Problem,
    a: float,
    c_min: float = -10.0,
    *,
    max_points: int = 4000,
) -> BifurcationDiagram:
    """Assemble the bifurcation diagram of the regime containing a.

    Branches are launched from canonical seeds (the stable state at the
    critical-cap amplitude, the trivial or near-trivial states, the segment
    edges for the at-lambda2 regime), folds are refined, and the pieces are
    stitched at degenerate points. Continuation failures raise
    AssemblyIncomplete carrying the partial diagram. Every trace steps by
    continue_branch's chord-error controller from a first step of
    ASSEMBLY_STEP0, with no ceiling, and holds at most max_points points;
    a start next to a degenerate edge sits EDGE_OFFSET off it in the chart
    coordinate.
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
    try:
        segment = build(problem, a, c_min, kw, branches, degenerate)
    except (StepUnderflow, NonConvergence, SingularJacobian, Diverged) as exc:
        partial = BifurcationDiagram(
            problem, a, regime, tuple(branches), _dedup_degenerate(degenerate),
            segment, c_min, complete=False,
        )
        where = _window_position(problem, a) if regime == "above-lambda2" else ""
        raise AssemblyIncomplete(
            f"{regime} assembly stopped early: {exc}{where}", partial
        ) from exc
    return BifurcationDiagram(
        problem, a, regime, tuple(branches), _dedup_degenerate(degenerate),
        segment, c_min,
    )


def _window_position(problem, a):
    """Where a failed above-lambda2 assembly sits relative to the
    four-solution window lambda2 + delta; delta is traced only here."""
    gap = a - problem.modes()[1].eigenvalue
    try:
        delta = delta_window(problem, trace_index1_degenerate_curve(problem))
    except (NonConvergence, WrongKind, ValueError) as exc:
        return f" (a - lambda2 = {gap:.6g}; the window half-width delta failed: {exc})"
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


def _edge_start(problem, a, mode, edge, offset):
    """Branch start with chart coordinate <u, e> / <e, e> = edge + offset,
    e the mode's eigenfunction, at c = 0.

    Next to a degenerate edge the vanishing eigenvalue grows only like
    |t - edge|^(p_f - 1), so on a steep ramp the first offset can still
    classify as degenerate, where continuation cannot start; the offset is
    then doubled, at most EDGE_START_DOUBLINGS times.
    """
    e = mode.eigenfunction
    for _ in range(EDGE_START_DOUBLINGS + 1):
        t = edge + offset
        start = solve_at_projection(problem, a, e, t, t * e.values, 0.0)
        if not start.degenerate:
            return start
        offset *= 2.0
    raise NonConvergence(
        f"every branch start up to t={t:.6g} next to the degenerate edge "
        f"t={edge:.6g} is degenerate",
        start.u.values, start.residual_norm,
    )


def _edge_pair(problem, a, mode, edge, offset, window, chart, kw):
    """Both traces from the branch start next to a degenerate edge
    (_edge_start). Their first step moves the chart coordinate by twice the
    start's distance from the edge, so the trace toward the edge lands about
    as far inside the ray or segment as it started outside: past the states
    next to the edge whose vanishing eigenvalue is too small to tell from
    zero, and far enough inside for probes on both sides of the landed
    state to stay on the ray or segment."""
    start = _edge_start(problem, a, mode, edge, offset)
    e = mode.eigenfunction.values
    norm = np.sqrt(problem.domain.inner(e, e))
    gap = abs(problem.domain.inner(e, start.u.values) / norm**2 - edge)
    return _both_directions(
        problem, start, window, chart, {**kw, "step0": 2.0 * gap * norm}
    )


def _stable_seed(problem, a):
    phi = problem.modes()[0]
    amp = critical_cap(problem.nonlinearity, a)
    return newton_solve(
        problem, DiscreteField(problem.domain, amp * phi.eigenfunction.values), a, 0.0
    )


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
    # The ray is built from the closed-form long-double mode and certified
    # in long double (as the degenerate segment is): multiples of the
    # float64 eigenvector miss the steady-state tolerance on fine grids.
    phi = problem.modes()[0]
    M = problem.nonlinearity.M
    dom = problem.domain
    lam1_ld, phi_ld = exact_mode_longdouble(dom, 1)
    ts = np.linspace(-M, M, 41) if M > 0 else np.array([0.0])
    ray_pts = []
    for t in ts:
        u_ld = np.longdouble(t) * phi_ld
        r = float(np.max(np.abs(problem.residual_values(u_ld, lam1_ld, 0.0))))
        if not r < NEWTON_TOL:
            raise NonConvergence(
                f"ray state t={t:.6g} fails extended-precision verification "
                f"({r:.3e})", u_ld.astype(float), r,
            )
        ray_pts.append(classify_state(
            problem, DiscreteField(dom, u_ld.astype(float)), a, 0.0, rnorm=r,
        ))
    norm = np.sqrt(dom.inner(phi.eigenfunction.values, phi.eigenfunction.values))
    branches.append(Branch(
        tuple(ray_pts),
        tuple(norm * (t - ts[0]) for t in ts),
        "phi",
        tuple(float(t) for t in ts),
        tag="ray",
    ))
    pair = _edge_pair(problem, a, phi, M, EDGE_OFFSET, (c_min, 1.0), "phi", kw)
    toward_cmin = _pick_terminal(pair, "endpoint")
    toward_ray = _pick_terminal(pair, "degeneracy")
    branches.append(_stitch(toward_cmin, toward_ray, "Mstar"))
    # The trace stops by landing on a degenerate state of the ray; that
    # landed point is the junction marker (degeneracy events carry no
    # separately refined point). Every ray state has the same vanishing
    # normal form, which the verification checks by probes on both sides of
    # the marker; _edge_pair lands it inside the ray, clear of its end.
    end = toward_ray.points[-1]
    degenerate.append(DegeneratePoint(
        a, end.c, end.u, end.spectrum.eigenfunctions[0],
        end.morse_index, "fold-index0", end.residual_norm,
    ))
    return None


def _assemble_between(problem, a, c_min, kw, branches, degenerate):
    window = (c_min, 1e9)
    stable = _stable_seed(problem, a)
    pair = _both_directions(problem, stable, window, "phi", kw)
    branches.append(_stitch(
        _pick_terminal(pair, "endpoint"), _pick_terminal(pair, "fold"), "Mstar"
    ))
    zero = newton_solve(problem, DiscreteField.zero(problem.domain), a, 0.0)
    pair = _both_directions(problem, zero, window, "phi", kw)
    branches.append(_stitch(
        _pick_terminal(pair, "endpoint"), _pick_terminal(pair, "fold"), "Msharp"
    ))
    for br in branches:
        degenerate.append(_terminal_fold(br))
    return None


def _assemble_at_lambda2(problem, a, c_min, kw, branches, degenerate):
    psi = problem.modes()[1]
    window = (c_min, 1e9)
    segment = build_degenerate_segment(problem)
    top_pair = _edge_pair(problem, a, psi, segment.t_max, EDGE_OFFSET, window, "psi", kw)
    toward_fold = _pick_terminal(top_pair, "fold")
    top_in = top_pair[0] if top_pair[1] is toward_fold else top_pair[1]
    if _terminal_kind(top_in) == "endpoint":
        # zero threshold: the segment is a point, the inward trace stepped
        # across the origin and ran on to the far c-limit; split it there
        branches.extend(_split_at_origin(_stitch(top_in, toward_fold, "joined")))
    else:
        # the inward trace parked on (or at) the segment
        branches.append(_stitch(top_in, toward_fold, "Msharp"))
        bottom_pair = _edge_pair(
            problem, a, psi, segment.t_min, -EDGE_OFFSET, window, "psi", kw
        )
        bottom_out = _pick_terminal(bottom_pair, "endpoint")
        bottom_in = bottom_pair[0] if bottom_pair[1] is bottom_out else bottom_pair[1]
        if _terminal_kind(bottom_in) == "fold":
            # zero threshold with only this side stepping across the origin:
            # the through-trace subsumes the sharp side; rebuild both pieces
            # from it so the junctions stay consistent
            branches.pop()
            branches.extend(
                _split_at_origin(_stitch(bottom_out, bottom_in, "joined"))
            )
        else:
            branches.append(_stitch(bottom_out, bottom_in, "Mflat"))

    stable = _stable_seed(problem, a)
    pair = _both_directions(problem, stable, window, "phi", kw)
    branches.append(_stitch(
        _pick_terminal(pair, "endpoint"), _pick_terminal(pair, "fold"), "Mstar"
    ))
    for br in branches:
        if any(ev.kind == "fold" for ev in br.events):
            degenerate.append(_terminal_fold(br))
    return segment


def _slice_branch_head(br: Branch, stop: int, tag: str) -> Branch:
    events = tuple(ev for ev in br.events if ev.point_index < stop)
    return Branch(
        br.points[: stop + 1], br.arclengths[: stop + 1], br.chart,
        br.t_proj[: stop + 1], events=events, tag=tag, steps=br.steps,
    )


def _split_at_origin(joined: Branch) -> tuple[Branch, Branch]:
    """Split a trace that runs through the origin at its point nearest
    t = 0: the head is Mflat, the tail Msharp."""
    k = int(np.argmin(np.abs(np.asarray(joined.t_values()))))
    return _slice_branch_head(joined, k, "Mflat"), _slice_branch(joined, k, "Msharp")


def _assemble_window(problem, a, c_min, kw, branches, degenerate):
    # Direction +1 always starts toward increasing c.
    psi = problem.modes()[1]
    dom = problem.domain
    window = (c_min, 1e9)

    def trace(start, direction, tag, chart="psi"):
        # tagged so that a failure names the branch it was tracing
        return continue_branch(
            problem, start, direction, window, chart=chart, **kw
        ).with_tag(tag)

    zero = newton_solve(problem, DiscreteField.zero(dom), a, 0.0)
    nat_up = trace(zero, +1, "Mnatural")
    nat_down = trace(zero, -1, "Mnatural")
    # each piece and each fold goes into the diagram as soon as it exists,
    # so a partial diagram shows how far the assembly got
    branches.append(_stitch(nat_up, nat_down, "Mnatural"))
    p_flat = _terminal_fold(nat_up)
    degenerate.append(p_flat)
    p_sharp = _terminal_fold(nat_down)
    degenerate.append(p_sharp)
    if not p_sharp.c < 0 < p_flat.c:
        raise _stopped_at(
            nat_down if p_flat.c > 0 else nat_up,
            "middle piece did not terminate at folds on both sides of c=0",
        )

    plus = newton_solve(problem, DiscreteField(dom, psi.eigenfunction.values), a, 0.0)
    sharp_down = trace(plus, -1, "Msharp")
    sharp_up = trace(plus, +1, "Msharp")
    branches.append(_stitch(sharp_down, sharp_up, "Msharp"))
    degenerate.extend([_terminal_fold(sharp_down), _terminal_fold(sharp_up)])

    minus = newton_solve(problem, DiscreteField(dom, -psi.eigenfunction.values), a, 0.0)
    flat_up = trace(minus, +1, "Mflat")
    flat_down = trace(minus, -1, "Mflat")
    if _terminal_kind(flat_down) != "endpoint":
        raise _stopped_at(
            flat_down,
            f"flat sheet did not reach the c window edge: {_terminal_kind(flat_down)}",
        )
    branches.append(_stitch(flat_down, flat_up, "Mflat"))
    degenerate.append(_terminal_fold(flat_up))

    stable = _stable_seed(problem, a)
    star_up = trace(stable, +1, "Mstar", "phi")
    star_down = trace(stable, -1, "Mstar", "phi")
    branches.append(_stitch(star_down, star_up, "Mstar"))
    degenerate.append(_terminal_fold(star_up))
    return None


@dataclass(frozen=True)
class ClaimCheck:
    """One verified claim: id, what was expected, what was measured, the
    tolerance it was held to, and the verdict."""

    claim: str
    expected: object
    measured: object
    tolerance: object
    passed: bool


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
        got, expected = oracle[c], len(predicted) + failed
        checks.append(ClaimCheck(
            f"count@c={c:.6g}", expected, got.count, "exact", got.count == expected
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
    ok = len(seen) == n
    return ClaimCheck("connectivity", n, len(seen), "all nodes reachable", ok)


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
            f"index-changes-at-events[{br.tag}]", 0, len(silent),
            "no silent Morse index changes", not silent,
        ))
        want = _DOMINANT_INDEX.get(br.tag)
        if want is not None and len(idx):
            dominant = int(np.bincount(idx).argmax())
            out.append(ClaimCheck(
                f"dominant-index[{br.tag}]", want, dominant, "mode of indices",
                dominant == want,
            ))
    return out


def _check_fold_formulas(problem, diagram):
    out = []
    for dp in diagram.degenerate_points:
        try:
            chk = fold_normal_form_checks(problem, dp)
        except (NonConvergence, SingularJacobian) as exc:
            out.append(ClaimCheck(
                f"normal-form@c={dp.c:.6g}", "probe solves converge", str(exc),
                "rel 5%", False,
            ))
            continue
        rel_mu = abs(chk["mu_slope_fd"] - chk["mu_slope_formula"]) / max(
            abs(chk["mu_slope_formula"]), 1e-12
        )
        rel_c = abs(chk["c_curvature_fd"] - chk["c_curvature_formula"]) / max(
            abs(chk["c_curvature_formula"]), 1e-12
        )
        worst = max(rel_mu, rel_c)
        out.append(ClaimCheck(
            f"normal-form@c={dp.c:.6g}", "FD matches formulas", f"rel {worst:.2e}",
            "rel 5%", worst < 0.05,
        ))
    return out


def _check_signc(diagram) -> ClaimCheck:
    # c = 0 junctions sit at roundoff-level negative values; allow that.
    cs = [dp.c for dp in diagram.degenerate_points if dp.kind == "fold-index0"]
    worst = min(cs) if cs else 0.0
    return ClaimCheck(
        "index0-degenerate-c-nonnegative", ">= 0", worst, "sign", worst >= -1e-9
    )


def _check_junction_agreement(diagram):
    """Junction points reached from two branches must coincide; measures the
    uniqueness content of the degenerate-solution curves."""
    out = []
    fold_ended = []
    for br in diagram.branches:
        for ev in br.events:
            if ev.kind == "fold" and ev.degenerate_point is not None:
                fold_ended.append((br.tag, ev.degenerate_point))
    for i in range(len(fold_ended)):
        for j in range(i + 1, len(fold_ended)):
            ti, pi = fold_ended[i]
            tj, pj = fold_ended[j]
            dc = abs(pi.c - pj.c)
            if dc > 1.0:
                continue
            du = float(np.max(np.abs(pi.u.values - pj.u.values)))
            mismatch = du + dc
            out.append(ClaimCheck(
                f"junction-match[{ti}~{tj}]", 0.0, mismatch, MATCH_TOL,
                mismatch < MATCH_TOL,
            ))
    return out


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
    """Oracle solutions and refined branch crossings agree both ways."""
    worst = 0.0
    ok = len(predicted) == len(oracle_set.members)
    for m in oracle_set:
        dists = [float(np.max(np.abs(m.u.values - p.u.values))) for p in predicted]
        best = min(dists) if dists else np.inf
        worst = max(worst, best)
    for p in predicted:
        dists = [float(np.max(np.abs(m.u.values - p.u.values))) for m in oracle_set]
        best = min(dists) if dists else np.inf
        worst = max(worst, best)
    ok = ok and worst < MATCH_TOL
    return ClaimCheck(
        f"oracle-equivalence@c={oracle_set.c:.6g}",
        f"{len(oracle_set.members)} matched", f"{len(predicted)} within {worst:.2e}",
        MATCH_TOL, ok,
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
    out.append(ClaimCheck(
        "stable-monotone-in-c", "> -1e-10", worst, 1e-10, worst > -1e-10
    ))

    def superharmonic_margin(p):
        f = ramp_values(problem.nonlinearity, p.u.values)
        return float(np.min(diagram.a * p.u.values - f - p.c * problem.harvest.values))

    near = [p for p in pts if abs(p.c) <= 0.01]
    if not near:
        near = [_refined_crossing(problem, star, _branch_crossings(star, 0.005)[0], 0.005)]
    worst_sh = min(superharmonic_margin(p) for p in near)
    out.append(ClaimCheck(
        "stable-superharmonic-small-c", "> -1e-10", worst_sh, 1e-10,
        worst_sh > -1e-10,
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
    problem = point.state.problem
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
    return ClaimCheck(
        "static-stability-criterion", 0, bad, "agreement on all c=0 solutions",
        bad == 0,
    )


def _check_segment_degeneracy(diagram) -> ClaimCheck:
    """Sampled states on the neutral segment must have a vanishing second
    eigenvalue. Each sample's residual is that of the exact state t psi at
    lambda2 in long double, as the segment was certified (the float64
    rounding of a segment state misses NEWTON_TOL on fine grids)."""
    seg = diagram.segment
    problem = diagram.problem
    lam2_ld, psi_ld = exact_mode_longdouble(problem.domain, 2)
    if float(np.dot(psi_ld.astype(float), seg.psi.values)) < 0:
        psi_ld = -psi_ld
    worst = 0.0
    for t in np.linspace(seg.t_min, seg.t_max, 5):
        r = problem.residual_values(np.longdouble(t) * psi_ld, lam2_ld, 0.0)
        pt = classify_state(problem, seg.state_at(float(t)), diagram.a, 0.0,
                            rnorm=float(np.max(np.abs(r))))
        worst = max(worst, abs(pt.spectrum.eigenvalues[1]))
    return ClaimCheck(
        "segment-second-eigenvalue-zero", "|mu2| <= 1e-10", worst, 1e-10,
        worst <= 1e-10,
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
    dom = diagram.problem.domain
    slack = (1e3 * NEWTON_TOL) ** (1.0 / diagram.problem.nonlinearity.p_f)
    bad = 0
    for p in czero_set:
        if p.morse_index == 0 and not p.degenerate:
            continue
        t = dom.inner(p.u.values, psi.values) / dom.inner(psi.values, psi.values)
        on_segment = (
            seg is not None
            and seg.t_min - slack <= t <= seg.t_max + slack
            and float(np.max(np.abs(p.u.values - t * psi.values))) < MATCH_TOL
        )
        if not on_segment:
            bad += 1
    return ClaimCheck(
        "czero-dichotomy", 0, bad, "stable or on segment", bad == 0
    )


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
    worst = max(ratios)
    return ClaimCheck(
        "cusp-flat-at-origin", "slope ratio < 0.3", worst, 0.3, worst < 0.3
    )


def _check_window_claims(diagram, near_zero_sets):
    out = []
    for got in near_zero_sets:
        out.append(ClaimCheck(
            f"at-least-three@c={got.c:.6g}", ">= 3", got.count,
            "Morse-theoretic minimum", got.count >= 3,
        ))
    slope, _ = branch_derivative_at_zero(diagram.problem, diagram.a, "psi")
    out.append(ClaimCheck(
        "middle-sheet-slope-negative", "< 0", slope, "sign", slope < 0.0
    ))
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

    Index zero must attract a small random perturbation back to the point;
    positive index must repel a kick along the first eigendirection, with
    the deviation staying aligned to it. For c = 0 the static criterion
    (nonnegative with maximum beyond the threshold) must agree as well.
    Degenerate points drift too slowly along the neutral direction to settle
    either way and typically come back inconclusive.
    """
    problem = point.state.problem
    dom = problem.domain
    u, a, c = point.u.values, point.a, point.c

    def l2(v):
        return float(np.sqrt(dom.inner(v, v)))

    if abs(c) < 1e-12 and _violates_static_criterion(point):
        return "fail"

    modes = point.spectrum.eigenfunctions
    if point.morse_index == 0:
        rng = np.random.default_rng(CROSSCHECK_SEED)
        direction = sum(
            rng.standard_normal() * m.values for m in modes[: min(3, len(modes))]
        )
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
