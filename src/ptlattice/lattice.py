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
Every config value is read by :func:`_field`, whose errors name dotted paths.
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
    bulk bond; the conjugate partner is implied and never stored.  Every
    amplitude is finite and nonzero.
    """

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        seen = set()
        terms = tuple((_integer(n, "hopping range"), complex(amp)) for n, amp in self.terms)
        for n, amp in terms:
            if not cmath.isfinite(amp):
                raise ValueError(f"hopping amplitude of range {n} must be finite, got {amp}")
            if n < 1:
                raise ValueError(f"hopping range must be >= 1, got {n}")
            if amp == 0:
                raise ValueError(f"zero amplitude stored for range {n}")
            if n in seen:
                raise ValueError(f"duplicate hopping range {n}")
            seen.add(n)
        if not terms:
            raise ValueError("at least one hopping term is required")
        object.__setattr__(self, "terms", tuple(sorted(terms)))

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
    by listing exactly the elements it contains.  The amplitude is finite.
    """

    site_i: int
    site_j: int
    amplitude: complex

    def __post_init__(self):
        object.__setattr__(self, "site_i", _integer(self.site_i, "perturbation site i"))
        object.__setattr__(self, "site_j", _integer(self.site_j, "perturbation site j"))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise ValueError(
                f"perturbation amplitude at ({self.site_i},{self.site_j}) must be finite, "
                f"got {self.amplitude}"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Full description of a lattice model; ``flux_theta`` is finite and is
    stored reduced to [0, 2pi)."""

    L: int
    boundary: Boundary
    hoppings: HoppingSet
    flux_theta: float = 0.0
    perturbations: tuple[PerturbationTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "L", _integer(self.L, "L"))
        M = self.hoppings.max_range
        if self.L <= 2 * M:
            raise ValueError(f"L={self.L} must exceed twice the hopping range M={M}")
        theta = float(self.flux_theta)
        if not math.isfinite(theta):
            raise ValueError(f"flux_theta must be finite, got {theta}")
        object.__setattr__(self, "flux_theta", theta % TWO_PI)
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
    def from_json_dict(cls, doc: dict, path: str = "") -> "ModelSpec":
        """The model in doc, at dotted path ``path``: "", model or base_model."""
        at = f"{path}." if path else ""

        def term(entry, where: str, *ints: str) -> tuple:
            """The values of the entry's integer keys ints, then its amplitude re + i im."""
            values = [_field(entry, f"{where}.{key}", _integer) for key in ints]
            re = _field(entry, f"{where}.re", _number)
            return (*values, complex(re, _field(entry, f"{where}.im", _number, 0.0)))

        hops = enumerate(_items(doc, f"{at}hoppings"))
        perts = enumerate(_items(doc, f"{at}perturbations", default=()))
        return cls(
            L=_field(doc, f"{at}L", _integer),
            boundary=_field(doc, f"{at}boundary", Boundary),
            hoppings=HoppingSet(tuple(term(h, f"{at}hoppings.{n}", "range") for n, h in hops)),
            flux_theta=_field(doc, f"{at}flux_theta", _number, 0.0),
            perturbations=tuple(
                PerturbationTerm(*term(p, f"{at}perturbations.{n}", "i", "j")) for n, p in perts
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))


def _field(doc, path: str, convert=lambda value: value, default=None):
    """convert(doc[key]), key the last part of the dotted JSON path ``path``:
    the one config reader.  A doc that is not an object, a missing key with no
    default (None) or a value convert rejects raises ValueError naming ``path``."""
    parent, _, key = path.rpartition(".")
    if not isinstance(doc, dict):
        raise ValueError(f"{parent or 'config'} must be an object, got {doc!r}")
    if key not in doc and default is None:
        raise ValueError(f"{path} is missing")
    try:
        return convert(doc.get(key, default))
    except ValueError as exc:
        raise ValueError(f"{path} {exc}") from exc


def _items(doc, path: str, convert=lambda value: value, default=None) -> list:
    """The list at ``path``, each entry read by :func:`_field` as ``<path>.<index>``."""
    entries = _field(doc, path, default=default)
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{path} must be a list, got {entries!r}")
    return [_field({str(n): x}, f"{path}.{n}", convert) for n, x in enumerate(entries)]


def _number(value) -> float:
    """value as a float (NaN and infinities included), but not a bool."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"must be a number, got {value!r}")


def _integer(value, name: str = "") -> int:
    """value as an int: an int, or a :func:`_number` whose value is a finite
    integer, such as 60.0; anything else raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        if (number := _number(value)).is_integer():
            return int(number)
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}".lstrip())


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
    wrap_phase = cmath.exp(1j * theta * spec.L)
    perts = [
        replace(p, amplitude=p.amplitude * cmath.exp(-1j * theta * (p.site_j - p.site_i)))
        for p in spec.perturbations
    ]
    for _, amp, i, j in _closing_bonds(spec):
        perts.append(PerturbationTerm(i, j, amp * (wrap_phase - 1.0)))
        perts.append(PerturbationTerm(j, i, np.conj(amp) * (np.conj(wrap_phase) - 1.0)))
    return replace(spec, flux_theta=0.0, perturbations=tuple(perts))


def _closing_bonds(spec: ModelSpec) -> list[tuple[int, complex, int, int]]:
    """(n, t_n, i, j) of each range-n bond i -> j = i + n - L (1-based,
    i = L-n+1..L) that closes a ring, by range and then by i."""
    L = spec.L
    return [(n, t, i, i + n - L) for n, t in spec.hoppings.items() for i in range(L - n + 1, L + 1)]


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
