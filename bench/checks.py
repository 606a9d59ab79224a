"""Output checks against references that do not come from the solver under test.

* ring sweep: the closed-form S-matrix of two unit edges between two
  Kirchhoff vertices with one lead each;
* chain sweep: a product of 2 x 2 transfer matrices, one per junction
  (derived from the ``sl2`` transfer relation) and one per free edge;
* spectra: the closed-form eigenvalues ``(j pi / a)^2``;
* composition: the program's composed-vs-direct defect must stay below
  ``COMPOSE_TOL``.

Each check turns one command's output into an :class:`Outcome`.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields

import numpy as np

SMATRIX_TOL = 1e-9        # absolute, on S entries (all of modulus <= 1)
ENERGY_RTOL = 1e-12       # the command must evaluate the energies asked for
EIGENVALUE_RTOL = 1e-8    # a reported eigenvalue matches a reference within this
COMPOSE_TOL = 1e-9        # composed vs direct S-matrix defect


@dataclass
class Outcome:
    """What one or more commands delivered, judged against the references.

    ``attempted``/``failed`` count operations: one per requested energy of a
    sweep or composition, one per spectrum command.  ``expected``/``matched``
    count reference results (S-matrices or eigenvalues) and the ones the
    program reproduced.
    """

    attempted: int = 0
    failed: int = 0
    expected: int = 0
    matched: int = 0
    energies: int = 0          # S-matrices delivered, or grid energies scanned
    eigs_missed: int = 0
    eigenvalues: int = 0
    skipped: int = 0           # Condition A skips reported by compose
    notes: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        for f in fields(self):
            if f.name != "notes":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        self.notes.extend(other.notes)
        del self.notes[5:]

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------

def ring_smatrix(energies) -> np.ndarray:
    """Closed-form S of the bundled ring, shape ``(len(energies), 2, 2)``."""
    k = np.sqrt(np.asarray(energies, dtype=float))
    q2 = np.exp(2j * k)
    diag = 3.0 * (q2 - 1.0)
    off = 8.0 * np.exp(1j * k)
    s = np.empty((len(k), 2, 2), dtype=complex)
    s[:, 0, 0] = s[:, 1, 1] = diag
    s[:, 0, 1] = s[:, 1, 0] = off
    return -s / (q2 - 9.0)[:, None, None]


def sl2_transfer(a, b, c, d, mu=0.0) -> np.ndarray:
    """Map ``(psi, psi')`` just left of an ``sl2`` junction to just right of it.

    The coupling relates inward data by ``(psi_1, psi_1') = e^{i mu}
    [[a, -b], [c, -d]] (psi_2, psi_2')``.  With channel 1 on the left, its
    inward derivative is ``-psi'(x-)`` and channel 2's is ``psi'(x+)``;
    inverting (``a d - b c = 1``) gives ``e^{-i mu} [[d, b], [c, a]]``.
    """
    return np.exp(-1j * mu) * np.array([[d, b], [c, a]], dtype=complex)


def free_transfer(k: float, a: float) -> np.ndarray:
    """Map ``(psi, psi')`` across a free edge of length ``a`` at wavenumber ``k``."""
    ka = k * a
    return np.array([[np.cos(ka), np.sin(ka) / k], [-k * np.sin(ka), np.cos(ka)]])


def chain_smatrix(lengths, strengths, energy: float) -> np.ndarray:
    """S of the delta chain (channels ``l``, ``r``) from the transfer product."""
    k = np.sqrt(energy)
    m = np.eye(2, dtype=complex)
    for j, c in enumerate(strengths):
        m = sl2_transfer(1.0, 0.0, c, 1.0) @ m
        if j < len(lengths):
            m = free_transfer(k, lengths[j]) @ m
    ik = 1j * k
    # Incoming from l: (t, ik t) = M (1 + r, ik (1 - r)).
    plus = m @ np.array([1.0, ik])
    minus = m @ np.array([1.0, -ik])
    r_l, t_l = np.linalg.solve(np.array([[minus[0], -1.0], [minus[1], -ik]]),
                               -plus)
    # Incoming from r: (1 + r', ik (r' - 1)) = M (t', -ik t').
    t_r = 2.0 * ik / (ik * minus[0] - minus[1])
    r_r = t_r * minus[0] - 1.0
    return np.array([[r_l, t_r], [t_l, r_r]])


def reference_eigenvalues(lengths, e_min: float, e_max: float) -> list:
    """Distinct ``(j pi / a)^2`` in ``(e_min, e_max]`` over the given lengths."""
    values = set()
    for a in lengths:
        j = 1
        while (j * np.pi / a) ** 2 <= e_max:
            e = (j * np.pi / a) ** 2
            if e > e_min:
                values.add(e)
            j += 1
    return sorted(values)


# --------------------------------------------------------------------------
# checks of command output
# --------------------------------------------------------------------------

def check_sweep_csv(text: str, energies, reference, n: int) -> Outcome:
    """Judge ``artifact sweep`` CSV against ``reference(energies) -> (G, n, n)``."""
    out = Outcome(attempted=len(energies), expected=len(energies))
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:]
    if len(body) != len(energies):
        out.fail(len(energies), f"{len(body)} rows for {len(energies)} energies")
        return out
    expected = reference(energies)
    for i, row in enumerate(body):
        if row[-1] != "ok":
            out.fail(1, f"E={row[0]}: status {row[-1]}")
            continue
        e = float(row[0])
        if abs(e - energies[i]) > ENERGY_RTOL * energies[i]:
            out.fail(1, f"row {i}: E={e!r}, expected {energies[i]!r}")
            continue
        cells = np.array([float(x) for x in row[2:2 + 3 * n * n]]).reshape(n * n, 3)
        s = (cells[:, 0] + 1j * cells[:, 1]).reshape(n, n)
        err = float(np.abs(s - expected[i]).max())
        if not err <= SMATRIX_TOL:
            out.fail(1, f"E={e!r}: |S - reference| = {err:.3e}")
            continue
        out.matched += 1
        out.energies += 1
    return out


def check_spectrum_json(text: str, reference: list) -> Outcome:
    """Judge ``artifact spectrum --json``: every reported eigenvalue must match a
    distinct reference value; unmatched references count in ``eigs_missed``."""
    out = Outcome(attempted=1, expected=len(reference))
    payload = json.loads(text)
    reported = [float(e) for e in payload["eigenvalues"]]
    out.energies = int(payload["grid_points"])
    out.eigenvalues = len(reported)
    unmatched = list(reference)
    spurious = []
    for e in reported:
        best = min(unmatched, key=lambda r: abs(e / r - 1.0), default=None)
        if best is not None and abs(e / best - 1.0) <= EIGENVALUE_RTOL:
            unmatched.remove(best)
        else:
            spurious.append(e)
    out.matched = len(reference) - len(unmatched)
    out.eigs_missed = len(unmatched)
    if spurious:
        out.fail(1, f"eigenvalues with no reference: {spurious}")
    return out


def check_compose_json(text: str, energies) -> Outcome:
    """Judge ``artifact compose --json``: one ``ok`` row per requested energy with
    defect at most ``COMPOSE_TOL``."""
    out = Outcome(attempted=len(energies), expected=len(energies))
    rows = json.loads(text)
    if len(rows) != len(energies):
        out.fail(len(energies), f"{len(rows)} rows for {len(energies)} energies")
        return out
    for e, row in zip(energies, rows):
        if row["E"] != e:
            out.fail(1, f"row E={row['E']!r}, expected {e!r}")
        elif row["status"] != "ok":
            out.skipped += row["status"].startswith("SKIPPED")
            out.fail(1, f"E={e!r}: {row['status']}")
        elif not row["defect"] <= COMPOSE_TOL:
            out.fail(1, f"E={e!r}: defect {row['defect']:.3e}")
        else:
            out.matched += 1
            out.energies += 1
    return out

