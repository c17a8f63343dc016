"""Seeded request generators for the three benchmark workloads.

Every workload is a finite pool: a few fixed requests plus ``ROUNDS``
rounds, each round generated from its own name (``"grid/17"``) with
Python's ``random.Random``, whose string seeding and ``random()`` stream
do not change between interpreter versions.  The output of every pool
request at the commit that recorded ``digests/<workload>.json`` is kept
as a digest, so any seed can be checked byte for byte.

The run seed only chooses the order: which rounds come first, and the
order of the units inside each round.  A round holds a fixed mix of
request kinds with their cost-driving parameters drawn by strata, so
every round costs about the same and a run's throughput does not hinge
on which rounds its seed happened to pick.

All requests stay inside each routine's documented accuracy window.
Out-of-window inputs would freeze known wrong answers into the digests:
``transform_C`` at |z| = 30 is 80% off with no warning, and
``coherent_state`` silently truncates for large |z|.  Those defects
belong to the library's own error-budget tests, not to this gate.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import holoquant as hq
from holoquant import cli



class RequestFailed(Exception):
    """A request finished without raising but did not succeed."""


class _Sink:
    """Stands in for stdout and keeps what the command wrote, uncopied."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


@dataclass(frozen=True)
class CliRequest:
    """One ``holoquant`` command line, run through ``cli.run`` in-process.

    Options are always written ``--opt=value``: argparse reads a separate
    value that starts with ``-`` and a digit followed by other text
    (``--z -1.2,0.4``) as an unknown flag and rejects the command.
    """

    argv: tuple

    @property
    def key(self):
        return "holoquant " + " ".join(self.argv)

    def __call__(self):
        sink = _Sink()
        with contextlib.redirect_stdout(sink):
            code = cli.run(self.argv)
        if code != 0:
            raise RequestFailed("exit code %d" % code)
        return "".join(sink.parts)


@dataclass(frozen=True)
class ApiRequest:
    """One call into the library API with arguments built beforehand."""

    key: str
    hbar: float
    call: Callable

    @property
    def label(self):
        return self.key.split("|", 1)[0]

    def __call__(self):
        return self.call()


def render(value) -> str:
    """Exact text of a result: CLI text as is, library values by ``repr``.

    NumPy scalars and arrays go through ``item``/``tolist`` first, so every
    float prints at full round-trip precision and a change between a NumPy
    and a Python scalar of the same value does not count as new bytes.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return "array%r:%r" % (value.shape, value.tolist())
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, hq.HoloFunction):
        return "HoloFunction(%s, %r)" % (render(value.coefficients), value.space)
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(render(value).encode("utf-8")).hexdigest()[:16]


def keys_digest(requests) -> str:
    text = "\n".join(r.key for r in requests)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _num(value: float, digits: int = 4) -> str:
    return repr(round(value, digits))


# ---------------------------------------------------------------- grid
#
# Why: `holoquant husimi` is the CLI's heaviest output.  transform's basis
# table and contraction compute the density and cli.emit renders the CSV,
# which took 1.9 s of 2.0 s at 801x801.  No quadrature rule and no
# operator matrix is built, so quadrature and fock see no calls.

GRID_ROUNDS = 40
GRID_PER_ROUND = 8
GRID_FIXED = (
    # ROADMAP baseline: degree-20 state on the 801 x 801 grid, the
    # compute-versus-render split.
    CliRequest(("husimi", "--coefficients=" + ",".join(["1"] * 21),
                "--x-count=801", "--p-count=801")),
)


def _axis_counts(rng, stratum):
    """Axis counts in 101..401 whose geometric mean lies in the stratum.

    Stratum s of 8 covers geometric means [101 + 300 s/8, 101 + 300 (s+1)/8),
    so every round spans the same spread of grid sizes, which set the cost;
    the aspect ratio between the axes is drawn from [0.8, 1.25].
    """
    side = 101 + 300 * (stratum + rng.random()) / GRID_PER_ROUND
    stretch = math.sqrt(rng.uniform(0.8, 1.25))
    return tuple(min(401, max(101, round(side * f))) for f in (stretch, 1 / stretch))


def _grid_round(index):
    rng = random.Random("grid/%d" % index)
    units = []
    for stratum in range(GRID_PER_ROUND):
        x_count, p_count = _axis_counts(rng, stratum)
        degree = rng.randint(0, 40)
        hbar = rng.choice((0.5, 1.0, 2.0))
        coef = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                for _ in range(degree + 1)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in coef))
        text = ",".join("%.6g:%.6g" % (c.real / norm, c.imag / norm) for c in coef)
        reach = math.sqrt(hbar) * (2.5 + math.sqrt(2 * degree + 1))
        argv = ("husimi", "--coefficients=" + text, "--hbar=%r" % hbar,
                "--x-min=" + _num(-reach * rng.uniform(0.8, 1.2)),
                "--x-max=" + _num(reach * rng.uniform(0.8, 1.2)),
                "--p-min=" + _num(-reach * rng.uniform(0.8, 1.2)),
                "--p-max=" + _num(reach * rng.uniform(0.8, 1.2)),
                "--x-count=%d" % x_count, "--p-count=%d" % p_count)
        units.append([CliRequest(argv)])
    return units


# -------------------------------------------------------------- matrix
#
# Why: fock and quantize matrix products do the work, plus JSON rendering.
# Weyl ordering enumerates C(n+m, n) operator words and is 10x dearer than
# pdo-standard at N=256; the cheap schemes stay in the mix so that a change
# that helps Weyl but costs the others shows.

MATRIX_ROUNDS = 40
MATRIX_TRUNCATIONS = (64, 128, 256)
MATRIX_COMMANDS = tuple(s.value for s in hq.OrderingScheme) + ("toeplitz",)
MATRIX_STRATA = 4
MATRIX_FIXED = (
    # ROADMAP baseline: Weyl ordering at N=256.
    CliRequest(("quantize", "--scheme=weyl",
                "--symbol=x^3*p^3 + x^2*p + 0.5*p^4", "--truncation=256")),
)
_POWERS = [(a, b) for a in range(7) for b in range(7 - a)]


def _monomials(rng):
    """1-4 distinct monomials x^a p^b of total degree <= 6."""
    return rng.sample(_POWERS, rng.randint(1, 4))


def _word_length(monomials):
    # operator products Weyl ordering multiplies out: C(a+b, a) words of
    # a+b factors per monomial; the other schemes also grow with degree
    return sum(math.comb(a + b, a) * (a + b) for a, b in monomials)


# Quartiles of the word length of unconstrained draws.  Each round draws
# one symbol per (N, command) from every quartile, by rejection, so the
# costly symbols are spread evenly over rounds and the tail percentile
# does not depend on which rounds a seed picks.
def _strata_edges():
    lengths = sorted(_word_length(_monomials(random.Random("matrix/strata/%d" % i)))
                     for i in range(4000))
    return [lengths[len(lengths) * k // MATRIX_STRATA]
            for k in range(1, MATRIX_STRATA)] + [math.inf]


_EDGES = _strata_edges()


def _symbol(rng, names, stratum):
    """Signed monomials from the given word-length quartile, as text."""
    low = _EDGES[stratum - 1] if stratum else -1
    while True:
        monomials = _monomials(rng)
        if low <= _word_length(monomials) < _EDGES[stratum]:
            break
    terms = []
    for a, b in monomials:
        factors = ["%g" % round(rng.uniform(0.1, 3.0), 3)]
        factors += ["%s^%d" % (n, k) if k > 1 else n
                    for n, k in zip(names, (a, b)) if k]
        terms.append((rng.choice("+-"), "*".join(factors)))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += " %s %s" % (sign, body)
    return text


def _matrix_round(index):
    rng = random.Random("matrix/%d" % index)
    units = []
    for truncation in MATRIX_TRUNCATIONS:
        for command in MATRIX_COMMANDS:
            for stratum in range(MATRIX_STRATA):
                hbar = "%r" % rng.choice((0.5, 1.0, 2.0))
                if command == "toeplitz":
                    argv = ("toeplitz", "--symbol=" + _symbol(rng, ("z", "zb"), stratum),
                            "--t=" + hbar)
                else:
                    argv = ("quantize", "--scheme=" + command,
                            "--symbol=" + _symbol(rng, ("x", "p"), stratum),
                            "--hbar=" + hbar)
                units.append([CliRequest(argv + ("--truncation=%d" % truncation,))])
    return units


# --------------------------------------------------------------- point
#
# Why: a Python caller evaluating the API in a loop.  Quadrature rule
# construction dominates: transform_B/C and invert_C rebuild their
# Gauss-Hermite rules on every call.  Half of each round is sweeps at a
# fixed hbar from {0.5, 1, 2}, so rule arguments repeat; the other half
# draws hbar uniformly from [0.3, 2].  holospace and su2 get their per-call
# coverage here.  Calls go to the library directly, not through cli.run:
# rebuilding the argparse parser costs 2.2 ms per call, which would
# dominate a loop no user runs.

POINT_ROUNDS = 300
SWEEP_HBARS = (0.5, 1.0, 2.0)
SPACES = ("segal-bargmann", "bergman", "weighted-bergman", "hardy")
POINT_FIXED = (
    # ROADMAP baseline: the group convolution on the 40 x 24 x 80 rule.
    ApiRequest(
        "transform_group_quadrature|1.0|(4, (0.2, 0.8, 1.1), (40, 24, 80))", 1.0,
        lambda coeffs=hq.PeterWeylCoeffs.character(4),
        g=hq.GroupElement.from_euler(0.2, 0.8, 1.1):
        hq.transform_group_quadrature(coeffs, g, 1.0, hq.euler_quadrature(40, 24, 80))),
)


def _state(rng, max_degree):
    degree = rng.randint(0, max_degree)
    coef = [complex(round(rng.gauss(0.0, 1.0), 4), round(rng.gauss(0.0, 1.0), 4))
            for _ in range(degree + 1)]
    return tuple(coef)


def _disk_point(rng, radius):
    r = radius * math.sqrt(rng.random())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(r * math.cos(a), 4), round(r * math.sin(a), 4))


def _line(rng, radius, count):
    """``count`` points on a chord of the disk of the given radius."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    offset = rng.uniform(-0.2, 0.2) * radius
    direction = complex(math.cos(angle), math.sin(angle))
    points = []
    for j in range(count):
        along = radius * (-0.8 + 1.6 * j / max(count - 1, 1))
        z = (along + 1j * offset) * direction
        points.append(complex(round(z.real, 4), round(z.imag, 4)))
    return points


def _euler(rng):
    return (round(rng.uniform(0.0, 2.0 * math.pi), 4),
            round(rng.uniform(0.0, math.pi), 4),
            round(rng.uniform(0.0, 4.0 * math.pi), 4))


def _space(kind, hbar, weight):
    if kind == "segal-bargmann":
        return hq.SpaceSpec.segal_bargmann(hbar)
    if kind == "weighted-bergman":
        return hq.SpaceSpec.weighted_bergman(weight)
    return getattr(hq.SpaceSpec, kind.replace("-", "_"))()


def _api(name, hbar, params, call):
    return ApiRequest("%s|%r|%r" % (name, hbar, params), hbar, call)


# Each kind builds ``count`` requests at one hbar.  A sweep moves the
# evaluation point along a chord (or the group point along a path) with
# everything else fixed; a single draws everything afresh.

def _kernel(rng, hbar, count, routine):
    kind = rng.choice(SPACES)
    weight = round(rng.uniform(-0.5, 3.0), 3)
    # |z|, |w| <= 2 sqrt(h) on the plane; on the disk |z conj(w)| <= 0.36
    # keeps the 40-term basis sum converged to double precision
    radius = 2.0 * math.sqrt(hbar) if kind == "segal-bargmann" else 0.6
    space = _space(kind, hbar, weight)
    w = _disk_point(rng, radius)
    requests = []
    for z in _line(rng, radius, count):
        params = (kind, weight, z, w)
        if routine == "kernel":
            requests.append(_api("kernel", hbar, params,
                                 lambda s=space, z=z, w=w: hq.kernel(s, z, w)))
        else:
            requests.append(_api("kernel_from_basis", hbar, params,
                                 lambda s=space, z=z, w=w: hq.kernel_from_basis(s, z, w, 40)))
    return requests


def _transform(rng, hbar, count, form):
    coef = _state(rng, 8)
    if form == "B":
        psi = hq.WaveFunction(np.array(coef), hbar, "gaussian-weight")
    else:
        psi = hq.WaveFunction(np.array(coef), hbar)
    requests = []
    for z in _line(rng, 2.0 * math.sqrt(hbar), count):
        params = (coef, z)
        if form == "A":
            call = lambda psi=psi, z=z: hq.transform_A(psi)(z)
        elif form == "B":
            call = lambda psi=psi, z=z: hq.transform_B(psi, z)
        else:
            call = lambda psi=psi, z=z: hq.transform_C(psi, z)
        requests.append(_api("transform_" + form, hbar, params, call))
    return requests


def _overlap(rng, hbar, count):
    w = _disk_point(rng, 2.0 * math.sqrt(hbar))
    return [_api("coherent_overlap", hbar, (z, w),
                 lambda z=z, w=w: hq.coherent_overlap(z, w, hbar))
            for z in _line(rng, 2.0 * math.sqrt(hbar), count)]


def _translate(rng, hbar, count):
    # |a|^2 <= h keeps the 40 |a|^2/h-term exponential series inside the
    # documented 1e-9 tail window
    coef = _state(rng, 5)
    f = hq.HoloFunction(np.array(coef), hq.SpaceSpec.segal_bargmann(hbar))
    return [_api("translate", hbar, (coef, a), lambda a=a, f=f: hq.translate(a, f))
            for a in _line(rng, math.sqrt(hbar), count)]


def _group_path(rng, count):
    phi, _, psi = _euler(rng)
    start = rng.uniform(0.1, 1.5)
    return [(phi, round(start + 1.5 * j / max(count - 1, 1), 4), psi)
            for j in range(count)]


def _heat(rng, hbar, count):
    return [_api("heat_kernel", hbar, e,
                 lambda g=hq.GroupElement.from_euler(*e): hq.heat_kernel(hbar, g))
            for e in _group_path(rng, count)]


def _group(rng, hbar, count, routine):
    degree = rng.randint(0, 20) / 2.0
    coeffs = hq.PeterWeylCoeffs.character(degree)
    requests = []
    for e in _group_path(rng, count):
        g = hq.GroupElement.from_euler(*e)
        if routine == "rep_matrix":
            call = lambda g=g: hq.rep_matrix(degree, g)
        else:
            call = lambda g=g: hq.transform_group(coeffs, g, hbar)
        requests.append(_api(routine, hbar, (degree, e), call))
    return requests


def _group_quadrature(rng, hbar, count):
    # The 12 x 8 x 16 rule matches the closed form to 1e-7 only for
    # degree <= 2 and hbar >= 1; below that the heat series outruns it.
    # hbar in [0.3, 2] is mapped onto [1, 2].
    hbar = round(1.0 + (hbar - 0.3) / 1.7, 4)
    degree = rng.randint(0, 4) / 2.0
    coeffs = hq.PeterWeylCoeffs.character(degree)
    return [_api("transform_group_quadrature", hbar, (degree, e),
                 lambda g=hq.GroupElement.from_euler(*e): hq.transform_group_quadrature(
                     coeffs, g, hbar, hq.euler_quadrature(12, 8, 16)))
            for e in _group_path(rng, count)]


def _invert(rng, hbar):
    # degree <= 8 and |x| <= sqrt(h): the 40-node rule recovers psi(x)
    # to 1e-14
    coef = _state(rng, 8)
    psi = hq.WaveFunction(np.array(coef), hbar)
    x = round(rng.uniform(-1.0, 1.0) * math.sqrt(hbar), 4)
    return _api("invert_C", hbar, (coef, x),
                lambda: hq.invert_C(lambda p: hq.transform_C(psi, x + 1j * p),
                                    x, hq.gauss_hermite(40, hbar)))


# (requests per half round, generating function)
POINT_KINDS = (
    (4, lambda rng, h, n: _kernel(rng, h, n, "kernel")),
    (4, lambda rng, h, n: _kernel(rng, h, n, "kernel_from_basis")),
    (4, lambda rng, h, n: _transform(rng, h, n, "A")),
    (4, lambda rng, h, n: _transform(rng, h, n, "B")),
    (8, lambda rng, h, n: _transform(rng, h, n, "C")),
    (4, _overlap),
    (4, _translate),
    (4, _heat),
    (3, lambda rng, h, n: _group(rng, h, n, "transform_group")),
    (3, lambda rng, h, n: _group(rng, h, n, "rep_matrix")),
    (2, _group_quadrature),
)


def _point_round(index):
    rng = random.Random("point/%d" % index)
    hbar = SWEEP_HBARS[index % len(SWEEP_HBARS)]
    units = []
    for count, build in POINT_KINDS:
        units.append(build(rng, hbar, count))
        units.extend([r] for _ in range(count)
                     for r in build(rng, round(rng.uniform(0.3, 2.0), 4), 1))
    # one invert_C per round, alternating between the sweep hbar and a
    # uniform draw; it is 40 transform_C calls on one 40-node rule
    if index % 2 == 0:
        units.append([_invert(rng, hbar)])
    else:
        units.append([_invert(rng, round(rng.uniform(0.3, 2.0), 4))])
    return units


# ------------------------------------------------------------- schedule

@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple
    rounds: int
    # pool round index -> its requests in canonical order, as units
    round_requests: Callable


WORKLOAD_TABLE = {
    "grid": Workload("grid", GRID_FIXED, GRID_ROUNDS, _grid_round),
    "matrix": Workload("matrix", MATRIX_FIXED, MATRIX_ROUNDS, _matrix_round),
    "point": Workload("point", POINT_FIXED, POINT_ROUNDS, _point_round),
}
WORKLOADS = tuple(WORKLOAD_TABLE)


@dataclass(frozen=True)
class Item:
    """A scheduled request, where its recorded digest lives, and the digest
    of its round's request texts (to tell generator drift from new output)."""

    request: object
    where: tuple  # ("fixed", i) or (round, i)
    round_key: str


def schedule(workload: Workload, seed: int):
    """Endless request stream for one seed: the fixed requests, then the
    pool rounds in a seed-chosen order, each round's units shuffled.
    Sweeps are units, so they stay contiguous."""
    rng = random.Random("%s/seed/%d" % (workload.name, seed))
    key = keys_digest(workload.fixed)
    for i, request in enumerate(workload.fixed):
        yield Item(request, ("fixed", i), key)
    while True:
        order = list(range(workload.rounds))
        rng.shuffle(order)
        for index in order:
            units = workload.round_requests(index)
            key = keys_digest([r for unit in units for r in unit])
            numbered, position = [], 0
            for unit in units:
                numbered.append([(position + j, r) for j, r in enumerate(unit)])
                position += len(unit)
            rng.shuffle(numbered)
            for unit in numbered:
                for i, request in unit:
                    yield Item(request, (index, i), key)


def _spread(values):
    values = sorted(values)
    return "min %s, median %s, max %s" % (
        values[0], values[len(values) // 2], values[-1])


def describe(name, requests):
    """Input properties of the requests a run sent, one line each."""
    lines = ["inputs: %d requests, the first %d fixed (ROADMAP baseline)"
             % (len(requests), len(WORKLOAD_TABLE[name].fixed))]
    if name == "point":
        seen, repeats = set(), 0
        for r in requests:
            repeats += r.hbar in seen
            seen.add(r.hbar)
        kinds = Counter(r.label for r in requests)
        lines.append("input: %.1f%% of requests repeat an earlier request's hbar"
                     " (rule arguments repeat with it)" % (100.0 * repeats / len(requests)))
        lines.append("input: kinds " + ", ".join(
            "%s %d" % kv for kv in sorted(kinds.items())))
        return lines
    options = [dict(a[2:].split("=", 1) for a in r.argv[1:]) for r in requests]
    if name == "grid":
        lines.append("input: points per request " + _spread(
            [int(o.get("x-count", 31)) * int(o.get("p-count", 31)) for o in options]))
        lines.append("input: degree per request " + _spread(
            [o["coefficients"].count(",") for o in options]))
    else:
        sizes = Counter(o["truncation"] for o in options)
        weyl = sum(o.get("scheme") == "weyl" for o in options)
        lines.append("input: N mix " + ", ".join(
            "N=%s %d" % kv for kv in sorted(sizes.items(), key=lambda kv: int(kv[0]))))
        lines.append("input: weyl share %.1f%% (%d of %d)"
                     % (100.0 * weyl / len(options), weyl, len(options)))
    return lines
