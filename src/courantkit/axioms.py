"""Executable axiom suites with failure witnesses.

Every suite evaluates its axioms exactly, on all basis-section tuples, then,
unless a lemma makes a finite set decide the axiom, on seeded random
polynomial sections and functions.  Lemma C: symmetric-part and invariance
read basis tuples only, since a defect ℚ[x]-linear in every slot vanishes
once it vanishes on the basis, and basis tuples come first in the tuple
order, so a failure shows first on a basis tuple, its witness.  Lemma L:
the Leibniz defect is a first-order operator that vanishes when f = 1, so
leibniz reads basis pairs times the functions 1, x1, …, xn only (the proof
is in _ax_leibniz).  Jacobi and anchor-morphism are not tensorial: std2
with anchor entry (2, 0) set to 1 has ρ∘D₀ ≠ 0 and fails anchor-morphism
on random pairs only.

A check passes only when the defect is identically zero as a canonical
Scalar/Section; failures carry the full input tuple and the exact defect.

Suites:
  courant               Jacobi (Leibniz form), Leibniz, symmetric part, invariance
  strongly-anchored     anchor morphism, Leibniz, symmetric part, invariance
  h-twisted             twisted Jacobi, closed twist, Leibniz, symmetric part,
                        invariance (plus twist membership in ker ρ̃)
  courant-dorfman       ring/module variant, incl. [D₀f,φ]=0 and ⟨D₀f,D₀g⟩=0
  almost-courant-dorfman    first three rules only
  sa-courant-dorfman    almost rules + the anchor-compatibility rule
  h-twisted-cd          seven-rule twisted ring/module variant
  lie-rinehart          antisymmetry, cyclic Jacobi, Leibniz, anchor representation

The ring/module (-cd) suites state Leibniz and invariance with ρ(ψ)f read
as ⟨ψ, D₀f⟩; every suite reads it through the anchor.  The two agree on
every structure: D₀ is solved through gram⁻¹, so ⟨ψ, D₀f⟩ = ψᵀ·G·G⁻¹·A·∇f
= ρ(ψ)f, and both are zero over a point or without an anchor.

Each check_axioms call builds two tables that it owns and drops when it
returns: one of bracket(spec, φ, ψ) keyed by the ordered pair (φ, ψ), and
one of rho_apply(spec, ψ, f) keyed by (ψ, f).  Every checker reads the
bracket and ρ through them, the Jacobiator and the anchor-morphism defect
included, so each distinct argument tuple is evaluated once per call.  Keys
are the exact ordered arguments, never filled from skewness or any other
property under test; Leibniz's [φ, 1·ψ] is the key (φ, ψ).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from courantkit.exact import ONE, Scalar
from courantkit.kerforms import (
    KerForm,
    UncertifiedFormError,
    cov_derivative,
    rho_tilde,
    tilde_split,
)
from courantkit.rand import rand_scalar, rand_section
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    _anchor_morphism_defect,
    _jacobiator,
    bracket,
    d0,
    pairing,
    rho_apply,
)


class UnknownSuiteError(ValueError):
    """Requested suite name is not one of the known axiom suites."""


class SuiteNotApplicableError(ValueError):
    """The suite cannot run on this structure (e.g. twisted suite, no twist)."""


# -- reports -----------------------------------------------------------------


def _render(value) -> object:
    if isinstance(value, Section):
        return value.to_text()
    if isinstance(value, Scalar):
        return value.to_text()
    if isinstance(value, KerForm):
        return value.to_entries()
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return str(value)


def witness(inputs: dict, defect) -> dict:
    return {"inputs": {k: _render(v) for k, v in inputs.items()},
            "defect": _render(defect)}


def _is_zero(defect) -> bool:
    """None passes and a message fails; a tuple is zero componentwise."""
    if defect is None:
        return True
    if isinstance(defect, str):
        return False
    if isinstance(defect, tuple):
        return all(c.is_zero() for c in defect)
    return defect.is_zero()


def first_failure(tuples: Iterable[tuple], names: Sequence[str],
                  defect: Callable) -> dict | None:
    """Witness of the first tuple whose defect is nonzero, or None.

    Tuples are drawn lazily and evaluation stops at the first failure, so a
    check's witness is fixed by the order of its tuples.  ``names`` label the
    leading entries of a tuple in the witness; entries past them reach
    ``defect`` but stay out of the witness.
    """
    for t in tuples:
        value = defect(*t)
        if not _is_zero(value):
            return witness(dict(zip(names, t)), value)
    return None


def _tabled(fn: Callable) -> Callable:
    """fn behind a table keyed by its exact argument tuple: each distinct
    tuple is evaluated once for as long as the returned map lives."""
    values: dict = {}

    def lookup(*args):
        try:
            return values[args]
        except KeyError:
            value = values[args] = fn(*args)
            return value

    return lookup


@dataclass
class AxiomCheck:
    axiom: str
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "status": self.status, "witness": self.witness}


@dataclass
class CheckReport:
    suite: str
    checks: list[AxiomCheck] = field(default_factory=list)

    def add(self, axiom: str, failure: dict | None) -> None:
        """Record a check: it passes exactly when there is no witness."""
        self.checks.append(
            AxiomCheck(axiom, "pass" if failure is None else "fail", failure))

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failing(self) -> list[str]:
        return [c.axiom for c in self.checks if c.status != "pass"]

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


# -- test-section pools --------------------------------------------------------


@dataclass
class _Pool:
    """Basis and seeded random test data shared by the axiom checkers."""

    basis: list[Section]
    randoms: list[Section]
    functions: list[Scalar]

    def pairs(self) -> Iterable[tuple[Section, Section]]:
        for a in self.basis:
            for b in self.basis:
                yield a, b
        extra = self.randoms + self.basis[:1]
        for i, a in enumerate(self.randoms):
            yield a, extra[(i + 1) % len(extra)]
            yield extra[(i + 1) % len(extra)], a

    def triples(self) -> Iterable[tuple[Section, Section, Section]]:
        for a in self.basis:
            for b in self.basis:
                for c in self.basis:
                    yield a, b, c
        pool = self.randoms + self.basis
        for i, a in enumerate(self.randoms):
            yield a, pool[(i + 1) % len(pool)], pool[(i + 2) % len(pool)]
            yield pool[(i + 1) % len(pool)], a, pool[(i + 2) % len(pool)]

    def singles(self) -> Iterable[Section]:
        return self.basis + self.randoms


def make_pool(spec: AlgebroidSpec, sections: Sequence[Section] | None,
              seed: int, degree: int, samples: int) -> _Pool:
    rng = random.Random(seed)
    randoms = list(sections) if sections else []
    for _ in range(samples):
        randoms.append(rand_section(rng, spec, degree))
    functions = [rand_scalar(rng, spec.nvars, degree)
                 for _ in range(max(2, samples))]
    for j in range(spec.nvars):
        functions.append(Scalar.variable(j))
    return _Pool(spec.basis_sections(), randoms, functions)


# -- axiom checkers --------------------------------------------------------------
# Each returns a witness dict on first failure, or None.  br(φ, ψ) and
# rho(ψ, f) are the bracket and ρ(ψ)f, read through check_axioms's tables.


def _ax_jacobi(spec: AlgebroidSpec, pool: _Pool, br: Callable,
               rho: Callable) -> dict | None:
    return first_failure(pool.triples(), ("phi", "psi1", "psi2"),
                         partial(_jacobiator, br))


def _ax_twisted_jacobi(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                       rho: Callable) -> dict | None:
    h = tilde_split(spec, spec.twist)
    return first_failure(pool.triples(), ("phi", "psi1", "psi2"),
                         lambda *t: _jacobiator(br, *t) - h(*t))


def _ax_twist_membership(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                         rho: Callable) -> dict | None:
    # ρ̃ lists nonzero components only, so the first one is the witness
    return first_failure(
        ((spec.twist, f"d/dx{j + 1} ⊗ e{list(rest)}", value)
         for (j, rest), value in rho_tilde(spec, spec.twist).items()),
        ("twist", "component"), lambda twist, component, value: value)


def _ax_twist_closed(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                     rho: Callable) -> dict | None:
    try:
        defect = cov_derivative(spec, spec.twist)
    except UncertifiedFormError:
        defect = "twist is not in ker ρ̃"
    return first_failure([(spec.twist,)], ("twist",), lambda twist: defect)


def _ax_leibniz(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                rho: Callable) -> dict | None:
    """Lemma L: L(φ,f,ψ) = [φ,f·ψ] − ρ(φ)f·ψ − f·[φ,ψ] vanishes on every
    tuple once it vanishes on (eᵢ, xᵥ, eⱼ).  Write φ = a·eᵢ, ψ = b·eⱼ.  By
    the bracket's two extension rules L is ℚ-trilinear in (a, f, b) with
    ℚ[x] coefficients and total order ≤ 1: L = c⁰·afb + c¹·(∂a)fb +
    c²·a(∂f)b + c³·af(∂b).  L(φ,1,ψ) = [φ,ψ] − 0 − [φ,ψ] = 0 for every φ, ψ,
    so c⁰ = c¹ = c³ = 0, and L(eᵢ,xᵥ,eⱼ) = c²ᵢⱼᵥ.  f = 1 leads each pair,
    so a point base still evaluates every basis pair."""
    functions = [ONE] + [Scalar.variable(v) for v in range(spec.nvars)]
    return first_failure(
        ((phi, f, psi) for phi, psi in itertools.product(pool.basis, repeat=2)
         for f in functions),
        ("phi", "f", "psi"),
        lambda phi, f, psi: (br(phi, psi.scale(f)) - psi.scale(rho(phi, f))
                             - br(phi, psi).scale(f)))


def _ax_symmetric_part(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                       rho: Callable) -> dict | None:
    """Lemma C: S(φ,ψ) = [φ,ψ] + [ψ,φ] − D₀⟨φ,ψ⟩ is symmetric, and ℚ[x]-linear
    in ψ by the bracket's two extension rules and D₀(fh) = f·D₀h + h·D₀f.
    [ψ,ψ] − ½D₀⟨ψ,ψ⟩ is ½·S(ψ,ψ), so it needs no pass of its own."""
    return first_failure(
        itertools.product(pool.basis, repeat=2), ("phi", "psi"),
        lambda phi, psi: (br(phi, psi) + br(psi, phi)
                          - d0(spec, pairing(spec, phi, psi))))


def _ax_invariance(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                   rho: Callable) -> dict | None:
    """Lemma C: the defect is symmetric in ψ₁, ψ₂ and ℚ[x]-linear in ψ₁ by
    the right rule; in φ, the left rule adds four terms that cancel in pairs
    since ⟨D₀f,ψ⟩ = ρ(ψ)f (see the module docstring)."""
    return first_failure(
        itertools.product(pool.basis, repeat=3), ("phi", "psi1", "psi2"),
        lambda phi, psi1, psi2: (rho(phi, pairing(spec, psi1, psi2))
                                 - pairing(spec, br(phi, psi1), psi2)
                                 - pairing(spec, psi1, br(phi, psi2))))


def _ax_anchor_morphism(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                        rho: Callable) -> dict | None:
    return first_failure(pool.pairs(), ("phi", "psi"),
                         partial(_anchor_morphism_defect, spec, br))


def _ax_derivation_bracket(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                           rho: Callable) -> dict | None:
    # D₀f is computed once per f and rides along unnamed
    return first_failure(
        ((f, phi, df) for f in pool.functions for df in [d0(spec, f)]
         for phi in pool.singles()),
        ("f", "phi"), lambda f, phi, df: br(df, phi))


def _ax_derivation_isotropy(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                            rho: Callable) -> dict | None:
    return first_failure(
        ((f, g) for f in pool.functions for g in pool.functions), ("f", "g"),
        lambda f, g: pairing(spec, d0(spec, f), d0(spec, g)))


def _ax_anchor_action(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                      rho: Callable, names: tuple[str, ...]) -> dict | None:
    """ρ([a,b])f − ρ(a)ρ(b)f + ρ(b)ρ(a)f on all pairs and functions, named
    (φ, ψ, g) by anchor-representation.  anchor-compatibility names it (ψ, φ,
    f): its rule ⟨[ψ,φ],D₀f⟩ = ⟨ψ,D₀⟨φ,D₀f⟩⟩ − ⟨φ,D₀⟨ψ,D₀f⟩⟩ is this one,
    since ⟨χ,D₀h⟩ = ρ(χ)h (see the module docstring for the proof)."""
    return first_failure(
        ((a, b, f) for a, b in pool.pairs() for f in pool.functions), names,
        lambda a, b, f: (rho(br(a, b), f) - rho(a, rho(b, f))
                         + rho(b, rho(a, f))))


def _ax_antisymmetry(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                     rho: Callable) -> dict | None:
    return first_failure(
        pool.pairs(), ("phi", "psi"),
        lambda phi, psi: br(phi, psi) + br(psi, phi))


def _ax_cyclic_jacobi(spec: AlgebroidSpec, pool: _Pool, br: Callable,
                      rho: Callable) -> dict | None:
    return first_failure(
        pool.triples(), ("psi1", "psi2", "psi3"),
        lambda a, b, c: (br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))))


SUITES: dict[str, list[tuple[str, Callable]]] = {
    "courant": [
        ("jacobi", _ax_jacobi),
        ("leibniz", _ax_leibniz),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "strongly-anchored": [
        ("anchor-morphism", _ax_anchor_morphism),
        ("leibniz", _ax_leibniz),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "h-twisted": [
        ("twist-membership", _ax_twist_membership),
        ("twisted-jacobi", _ax_twisted_jacobi),
        ("twist-closed", _ax_twist_closed),
        ("leibniz", _ax_leibniz),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "courant-dorfman": [
        ("leibniz", _ax_leibniz),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("jacobi", _ax_jacobi),
        ("derivation-bracket", _ax_derivation_bracket),
        ("derivation-isotropy", _ax_derivation_isotropy),
    ],
    "almost-courant-dorfman": [
        ("leibniz", _ax_leibniz),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
    ],
    "sa-courant-dorfman": [
        ("leibniz", _ax_leibniz),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("anchor-compatibility",
         partial(_ax_anchor_action, names=("psi", "phi", "f"))),
    ],
    "h-twisted-cd": [
        ("leibniz", _ax_leibniz),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("twisted-jacobi", _ax_twisted_jacobi),
        ("twist-closed", _ax_twist_closed),
        ("derivation-bracket", _ax_derivation_bracket),
        ("derivation-isotropy", _ax_derivation_isotropy),
    ],
    "lie-rinehart": [
        ("antisymmetry", _ax_antisymmetry),
        ("jacobi-cyclic", _ax_cyclic_jacobi),
        ("leibniz", _ax_leibniz),
        ("anchor-representation",
         partial(_ax_anchor_action, names=("phi", "psi", "g"))),
    ],
}

_NEEDS_TWIST = {"h-twisted", "h-twisted-cd"}


def check_axioms(spec: AlgebroidSpec, suite: str,
                 sections: Sequence[Section] | None = None,
                 seed: int = 0, degree: int = 2,
                 samples: int = 3) -> CheckReport:
    """Run one axiom suite; deterministic for a fixed seed.

    ``sections`` are extra caller-supplied test sections; ``samples`` random
    polynomial sections of the given degree are always added.  Neither
    reaches symmetric-part, invariance or leibniz, which read fixed tuples.
    """
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    if suite in _NEEDS_TWIST and spec.twist is None:
        raise SuiteNotApplicableError(
            f"suite {suite!r} needs a twist, but the structure declares none")
    pool = make_pool(spec, sections, seed, degree, samples)
    # the call's own tables (see the module docstring), built here from the
    # module's bindings of bracket and rho_apply
    br = _tabled(partial(bracket, spec))
    rho = _tabled(partial(rho_apply, spec))
    report = CheckReport(suite=suite)
    for axiom, checker in SUITES[suite]:
        report.add(axiom, checker(spec, pool, br, rho))
    return report
