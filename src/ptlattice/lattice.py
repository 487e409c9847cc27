"""Model descriptions and dense Hamiltonian assembly for 1D chains.

Site indices are 1-based in every public interface, such that a chain of
length L carries sites 1..L.  Internally matrices use 0-based numpy indexing.

Flux convention (the single source of sign truth): on a periodic chain the
matrix element H[i, i+1] (1-based) carries t*exp(i*theta) and the wrap-around
element H[L, 1] carries t*exp(i*theta); conjugate elements carry
exp(-i*theta).  A hop of range n picks up exp(i*n*theta) with the same
orientation, so the total flux through the ring is Phi = L*theta.  An open
chain carries no flux in any layer: ``flux_theta`` is read on rings only.
The non-Bloch oracle reads a ring through :func:`apply_gauge_transform`.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Boundary",
    "HoppingSet",
    "PerturbationTerm",
    "ModelSpec",
    "build_hamiltonian",
    "apply_gauge_transform",
    "is_pt_symmetric",
]

TWO_PI = 2.0 * math.pi


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class HoppingSet:
    """Hermitian bulk hopping amplitudes keyed by range.

    A term ``(n, t_n)`` stands for t_n |i><i+n| + conj(t_n) |i+n><i| on every
    bulk bond; the conjugate partner is implied and never stored.
    """

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        seen = set()
        for n, amp in self.terms:
            if n < 1:
                raise ValueError(f"hopping range must be >= 1, got {n}")
            if amp == 0:
                raise ValueError(f"zero amplitude stored for range {n}")
            if n in seen:
                raise ValueError(f"duplicate hopping range {n}")
            seen.add(n)
        if not self.terms:
            raise ValueError("at least one hopping term is required")
        object.__setattr__(
            self, "terms", tuple(sorted((int(n), complex(a)) for n, a in self.terms))
        )

    @property
    def max_range(self) -> int:
        return self.terms[-1][0]

    def amplitude(self, n: int) -> complex:
        for m, amp in self.terms:
            if m == n:
                return amp
        return 0j

    def items(self):
        return iter(self.terms)


@dataclass(frozen=True)
class PerturbationTerm:
    """A single matrix element amp |site_i><site_j|, added literally.

    Hermitian conjugates are not auto-generated; a non-Hermitian V is built
    by listing exactly the elements it contains.
    """

    site_i: int
    site_j: int
    amplitude: complex

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True)
class ModelSpec:
    """Full description of a lattice model."""

    L: int
    boundary: Boundary
    hoppings: HoppingSet
    flux_theta: float = 0.0
    perturbations: tuple[PerturbationTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        M = self.hoppings.max_range
        if self.L <= 2 * M:
            raise ValueError(f"L={self.L} must exceed twice the hopping range M={M}")
        object.__setattr__(self, "flux_theta", float(self.flux_theta) % TWO_PI)
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        for p in self.perturbations:
            if not (1 <= p.site_i <= self.L and 1 <= p.site_j <= self.L):
                raise ValueError(
                    f"perturbation site ({p.site_i},{p.site_j}) out of range 1..{self.L}"
                )

    @property
    def max_range(self) -> int:
        return self.hoppings.max_range

    def resized(self, L: int) -> "ModelSpec":
        """The same model on a chain of length L, with each perturbation
        pinned to the edge it was attached to (right-half sites move with the
        right boundary) and the total flux L*theta kept fixed."""
        if L == self.L:
            return self
        half = self.L // 2

        def remap(s: int) -> int:
            return s if s <= half else s + L - self.L

        perts = tuple(
            PerturbationTerm(remap(p.site_i), remap(p.site_j), p.amplitude)
            for p in self.perturbations
        )
        theta = self.flux_theta * self.L / L
        return replace(self, L=L, flux_theta=theta, perturbations=perts)

    def to_json_dict(self) -> dict:
        return {
            "L": self.L,
            "boundary": self.boundary.value,
            "hoppings": [
                {"range": n, "re": amp.real, "im": amp.imag}
                for n, amp in self.hoppings.items()
            ],
            "flux_theta": self.flux_theta,
            "perturbations": [
                {"i": p.site_i, "j": p.site_j, "re": p.amplitude.real, "im": p.amplitude.imag}
                for p in self.perturbations
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        try:
            hoppings = HoppingSet(
                tuple(
                    (_integer(h["range"], "range"), complex(h["re"], h.get("im", 0.0)))
                    for h in doc["hoppings"]
                )
            )
            perts = tuple(
                PerturbationTerm(
                    _integer(p["i"], "i"), _integer(p["j"], "j"), complex(p["re"], p.get("im", 0.0))
                )
                for p in doc.get("perturbations", [])
            )
            return cls(
                L=_integer(doc["L"], "L"),
                boundary=Boundary(doc["boundary"]),
                hoppings=hoppings,
                flux_theta=float(doc.get("flux_theta", 0.0)),
                perturbations=perts,
            )
        except KeyError as exc:
            raise ValueError(f"missing model config field: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))


def _integer(value, name: str = "value") -> int:
    """value as an int: an int, or a float (or numeric string) whose value is
    a finite integer, such as 60.0.  A bool, a fraction or a non-finite
    number raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(float(value))


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Assemble the dense L x L complex Hamiltonian of a model: the range-n
    bonds i -> (i + n) mod L (0-based), i < L - n on a chain and all i on a ring."""
    L = spec.L
    H = np.zeros((L, L), dtype=np.complex128)
    periodic = spec.boundary is Boundary.PERIODIC
    theta = spec.flux_theta if periodic else 0.0
    for n, amp in spec.hoppings.items():
        fwd = amp * cmath.exp(1j * n * theta)
        i = np.arange(L if periodic else L - n)
        j = (i + n) % L
        H[i, j] += fwd
        H[j, i] += fwd.conjugate()
    for p in spec.perturbations:
        H[p.site_i - 1, p.site_j - 1] += p.amplitude
    return H


def apply_gauge_transform(spec: ModelSpec) -> ModelSpec:
    """Move the per-bond flux of a periodic chain entirely onto the wrap bond.

    Applies U = sum_j exp(-i*theta*j)|j><j|, leaving the spectrum unchanged:
    bulk bonds become the bare hopping amplitudes and every wrap-around bond
    picks up exp(+/- i*theta*L).  The wrap-bond corrections are returned as
    explicit perturbation terms; existing perturbations are rephased by the
    same gauge.
    """
    if spec.boundary is not Boundary.PERIODIC:
        raise ValueError("gauge transform is defined for periodic chains only")
    theta = spec.flux_theta
    if theta == 0.0:
        return spec
    L = spec.L
    wrap_phase = cmath.exp(1j * theta * L)
    perts = [
        replace(p, amplitude=p.amplitude * cmath.exp(-1j * theta * (p.site_j - p.site_i)))
        for p in spec.perturbations
    ]
    for n, amp in spec.hoppings.items():
        for i in range(L - n + 1, L + 1):  # 1-based wrap bonds
            j = i + n - L
            perts.append(PerturbationTerm(i, j, amp * (wrap_phase - 1.0)))
            perts.append(PerturbationTerm(j, i, np.conj(amp) * (np.conj(wrap_phase) - 1.0)))
    return replace(spec, flux_theta=0.0, perturbations=tuple(perts))


def is_pt_symmetric(spec: ModelSpec, tol: float = 1e-12) -> bool:
    """True iff P conj(H) P == H entrywise, with P the site inversion j -> L+1-j."""
    return _matrix_is_pt_symmetric(build_hamiltonian(spec), tol)


def _matrix_is_pt_symmetric(H: np.ndarray, tol: float) -> bool:
    """max |P conj(H) P - H| <= tol on the upper ceil(L/2) rows (row L-1-i of
    the difference is minus the conjugate of row i), 64 rows at a time."""
    rows = H.shape[0] - H.shape[0] // 2
    mirrored = H[::-1, ::-1]
    blocks = [slice(a, min(a + 64, rows)) for a in range(0, rows, 64)]
    return all(np.max(np.abs(np.conj(mirrored[s]) - H[s])) <= tol for s in blocks)
