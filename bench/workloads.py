"""Seeded job generators for the three benchmark workloads.

Every job is plain job JSON for ``basicforms.jobs.run_job`` plus an
``expect`` record that states the answer known by construction.  The seed
changes the inputs; the families are chosen so that it does not change
the answers, and so that it changes the cost as little as possible (the
solver's elimination cost depends strongly on the generators; see
``README.md`` in this directory).

Uses only the standard library, so the generator never touches the code
under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("formal_ladder", "rational_charts", "numeric_checks")
SIZES = ("full", "tiny")

IDENTITY2 = ((1, 0), (0, 1))


@dataclass
class Case:
    """One job of a workload pass and the answer it must produce."""

    name: str
    job: dict
    expect: dict
    largest: bool = False  # the job whose time slowest_job_s reports


def _q(value: Fraction) -> str:
    """A rational as a parenthesised expression the job grammar accepts."""
    value = Fraction(value)
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def _rational(rng: random.Random, height: int) -> Fraction:
    """A nonzero rational p/q with |p|, q <= height."""
    return Fraction(rng.randint(1, height), rng.randint(1, height)) * rng.choice((1, -1))


def _matrix_json(rows) -> list[list[str]]:
    return [[str(e) for e in row] for row in rows]


def signed_permutations(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All n x n signed permutation matrices (the hyperoctahedral group B_n)."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(
                tuple(
                    tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                    for i in range(n)
                )
            )
    return out


def _matmul(p, q):
    n = len(p)
    return tuple(
        tuple(sum(p[i][t] * q[t][j] for t in range(n)) for j in range(n)) for i in range(n)
    )


def closure(generators) -> set:
    """The group generated by integer matrices (finite groups only)."""
    n = len(generators[0])
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for word in frontier:
            for g in generators:
                c = _matmul(word, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def random_generating_set(rng: random.Random, n: int, count: int) -> list:
    """``count`` random elements of B_n that generate all of B_n."""
    elements = signed_permutations(n)
    while True:
        gens = [rng.choice(elements) for _ in range(count)]
        if len(closure(gens)) == len(elements):
            return gens


# --- formal ladder: Q(a) jobs ------------------------------------------------


def _solenoid_action(lattice, flow: Fraction) -> dict:
    """Plane with the lattice spanned by the columns of ``lattice`` and the
    flow ``flow * (1, a)``."""
    (u1, u2), (v1, v2) = lattice
    translations = [[str(u1), str(v1)], [str(u2), str(v2)]]
    return {
        "dimension": 2,
        "discrete": [
            {"matrix": _matrix_json(IDENTITY2), "translation": t} for t in translations
        ],
        "infinitesimal": [[_q(flow), f"{_q(flow)}*a"]],
    }


def _solenoid_basis(rng, degree: int, lattice, parameter: Fraction | None = None) -> Case:
    flow = _rational(rng, 3)
    job = {
        "command": "basis",
        "action": _solenoid_action(lattice, flow),
        "truncation": {"grade": 1, "max_degree": degree},
    }
    if parameter is not None:
        job["parameter"] = str(parameter)
    tag = "bound" if parameter is not None else "formal"
    return Case(
        f"solenoid_basis_{tag}_d{degree}",
        job,
        {"exit": 0, "kind": "solenoid_basis", "dimension": 1, "slope": parameter},
    )


def _ladder(rng, size: str) -> list[Case]:
    # The lattice basis changes the elimination cost by up to 1.7x at equal
    # degree.  The largest jobs, and the two that sit at the median job
    # latency, keep the standard basis and vary only the flow multiple, which
    # leaves the cost unchanged; otherwise the seed-to-seed spread of the
    # metrics would exceed their bounds.
    lattices = signed_permutations(2)
    full = size == "full"
    cases = [
        _solenoid_basis(rng, degree, rng.choice(lattices) if random_lattice else IDENTITY2)
        for degree, random_lattice in (
            ((2, True), (3, True), (4, False), (5, True), (6, False), (7, False))
            if full else ((1, True), (2, False))
        )
    ]
    cases[-1].largest = True

    cohomology_degree = 2 if full else 1
    cases.append(
        Case(
            f"solenoid_cohomology_d{cohomology_degree}",
            {
                "command": "cohomology",
                "action": _solenoid_action(IDENTITY2, _rational(rng, 3)),
                "max_degree": cohomology_degree,
            },
            {"exit": 0, "kind": "cohomology", "betti": (1, 1, 0)},
        )
    )

    shift = _rational(rng, 5)
    cases.append(
        Case(
            "torus_basis",
            {
                "command": "basis",
                "action": {
                    "dimension": 1,
                    "discrete": [
                        {"matrix": [["1"]], "translation": [_q(shift)]},
                        {"matrix": [["1"]], "translation": ["a"]},
                    ],
                },
                "truncation": {"grade": 1, "max_degree": 3},
            },
            {"exit": 0, "kind": "torus_basis", "dimension": 1},
        )
    )

    # The lattice vector (u, v) moves y - a*x by v - a*u, so the induced
    # action downstairs is translation by v - a*u; the flow projects to zero.
    lattice = IDENTITY2 if full else rng.choice(lattices)
    (u1, u2), (v1, v2) = lattice
    stages_degree = 4 if full else 1
    cases.append(
        Case(
            f"stages_d{stages_degree}",
            {
                "command": "stages",
                "big": _solenoid_action(lattice, _rational(rng, 3)),
                "induced": {
                    "dimension": 1,
                    "discrete": [
                        {"matrix": [["1"]], "translation": [f"{v} - ({u})*a"]}
                        for u, v in ((u1, v1), (u2, v2))
                    ],
                },
                "projection": ["y - a*x"],
                "truncation": {"grade": 1, "max_degree": stages_degree},
            },
            {"exit": 0, "kind": "stages"},
        )
    )
    return cases


# --- rational charts: Q-only jobs --------------------------------------------


def _chart(rng, n: int, label: str, grade: int, degree: int) -> Case:
    gens = random_generating_set(rng, n, 2)
    return Case(
        f"orbifold_{label}_g{grade}_d{degree}",
        {
            "command": "orbifold",
            "chart": {
                "dimension": n,
                "label": label,
                "generators": [
                    {"matrix": _matrix_json(g), "translation": ["0"] * n} for g in gens
                ],
                "closure_cap": 64,
            },
            "truncation": {"grade": grade, "max_degree": degree},
        },
        {"exit": 0, "kind": "orbifold", "order": len(signed_permutations(n))},
    )


def _rotation_r4(rng, degree: int) -> Case:
    # A scaling of +-1 makes the job do 40% fewer scalar products.
    scale = _rational(rng, 4)
    while abs(scale) == 1:
        scale = _rational(rng, 4)
    c = _q(scale)
    return Case(
        f"r4_rotation_basis_g2_d{degree}",
        {
            "command": "basis",
            "action": {
                "dimension": 4,
                "infinitesimal": [[f"-{c}*y", f"{c}*x", f"-{c}*w", f"{c}*z"]],
            },
            "truncation": {"grade": 2, "max_degree": degree},
        },
        {"exit": 0, "kind": "r4_basis"},
    )


def _charts(rng, size: str) -> list[Case]:
    full = size == "full"
    cases = [
        _chart(rng, 3, "b3", 1, 2 if full else 1),
        _chart(rng, 3, "b3", 2, 2 if full else 1),
        _chart(rng, 2, "d4", 1, 4 if full else 2),
        _rotation_r4(rng, 2 if full else 1),
    ]
    cases[3].largest = True  # R^4 takes a little longer than either B3 job
    slope = _rational(rng, 3)
    cases.append(
        _solenoid_basis(rng, 4 if full else 2, rng.choice(signed_permutations(2)), slope)
    )
    return cases


# --- numeric checks ----------------------------------------------------------


def _grid(count: int) -> dict:
    return {"start": -1.5, "stop": 1.5, "count": count}


def _poly_text(terms) -> str:
    """Sum of coefficient * monomial-text pairs."""
    return " + ".join(f"{_q(c)}*{mono}" for c, mono in terms)


def _z2_criterion(rng, count: int, basic: bool) -> Case:
    # Under the sign flip x -> -x the form f(x) dx is invariant iff f is odd.
    odd = rng.sample(("x", "x^3", "x^5"), 2)
    terms = [(_rational(rng, 4), m) for m in odd]
    if not basic:
        terms.append((_rational(rng, 4), rng.choice(("1", "x^2", "x^4"))))
    return Case(
        f"z2_criterion_{'pass' if basic else 'fail'}_{count}",
        {
            "command": "criterion",
            "plots": {"first": "z2_p1", "second": "z2_p2"},
            "grid": _grid(count),
            "form": {"grade": 1, "terms": [{"indices": [0], "coefficient": _poly_text(terms)}]},
            "tolerance": 1e-9,
        },
        {"exit": 0 if basic else 3, "kind": "numeric"},
    )


def _so2_gauge(rng, count: int, basic: bool) -> Case:
    # (c0 + c1 r^2)(x dx + y dy) is rotation invariant and horizontal;
    # c (x dy - y dx) is invariant but not horizontal, c (dx + x dy) neither.
    c0, c1 = _rational(rng, 4), _rational(rng, 4)
    dx = _poly_text([(c0, "x"), (c1, "x^3"), (c1, "x*y^2")])
    dy = _poly_text([(c0, "y"), (c1, "x^2*y"), (c1, "y^3")])
    if not basic:
        c = _q(_rational(rng, 4))
        extra_dx, extra_dy = rng.choice(((f"-{c}*y", f"{c}*x"), (c, f"{c}*x")))
        dx += f" + {extra_dx}"
        dy += f" + {extra_dy}"
    return Case(
        f"so2_gauge_{'pass' if basic else 'fail'}_{count}",
        {
            "command": "gauge",
            "plot": "so2_arc",
            "gauge": "so2_half_turn",
            "grid": _grid(count),
            "form": {
                "grade": 1,
                "terms": [
                    {"indices": [0], "coefficient": dx},
                    {"indices": [1], "coefficient": dy},
                ],
            },
            "tolerance": 1e-6,
        },
        {"exit": 0 if basic else 3, "kind": "numeric"},
    )


def _symplectic(rng) -> Case:
    # A function of r^2 times omega restricts like omega to the unit sphere.
    coeff = _poly_text([(_rational(rng, 4), "1"), (_rational(rng, 4), "(x^2 + y^2 + z^2 + w^2)")])
    return Case(
        "symplectic_r4",
        {
            "command": "symplectic",
            "model": "r4_rotation",
            "sigma": {
                "grade": 2,
                "terms": [
                    {"indices": [0, 1], "coefficient": coeff},
                    {"indices": [2, 3], "coefficient": coeff},
                ],
            },
            "tolerance": 1e-9,
        },
        {"exit": 0, "kind": "symplectic"},
    )


def _numeric(rng, size: str) -> list[Case]:
    small, medium, large = (20001, 30001, 100001) if size == "full" else (2001, 2001, 2001)
    cases = [
        _z2_criterion(rng, large, True),
        _z2_criterion(rng, small, False),
        _so2_gauge(rng, medium, True),
        _so2_gauge(rng, small, False),
        _symplectic(rng),
    ]
    cases[0].largest = True
    return cases


_BUILDERS = {
    "formal_ladder": _ladder,
    "rational_charts": _charts,
    "numeric_checks": _numeric,
}


def build(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The job list of one workload pass; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {', '.join(SIZES)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), size)
