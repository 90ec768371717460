"""Independent references and output checks for the benchmark's operations.

Every check reads the CSV an operation wrote and compares it against a
route the operation itself does not take: closed-form sector eigenvalues
and gaps, the closed-form limiting distributions, dense diagonalization of
the full Hamiltonian, and trapezoidal quadrature.  A check returns one
message per failed record; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

SPECTRUM_TOL = 1e-9
LIMITING_TOL = 1e-9
UNIT_SUM_TOL = 1e-9
AVERAGE_TOL = 1e-5
GAP_RTOL = 1e-6
# The package's default degeneracy tolerance, relative to max |lambda|.
TAU_REL = 1e-8
# The package flags a grouping as ambiguous when a genuine gap lies within
# this factor of tau_deg; such a gap is not certified.
AMBIGUITY_FACTOR = 10.0
# Relative slack for comparing values printed with 15 significant digits.
PRINT_RTOL = 1e-12


def parse_csv(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Split CLI output into header fields, data rows and '#' footer lines."""
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return [], [], []
    footers = [line for line in lines[1:] if line.startswith("#")]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return lines[0].split(","), rows, footers


def _column(rows: list[list[str]], index: int) -> np.ndarray:
    return np.array([float(row[index]) for row in rows])


# --- closed forms -----------------------------------------------------------


def comb_sector_table(d: int, K: int) -> np.ndarray:
    """Closed-form sector eigenvalues, shape (K, M), ascending in each row.

    d = 0 is the cycle (2 cos p_k); d = 1 gives cos p_k -/+ sqrt(1 + cos^2 p_k);
    d = 2 gives -s_k, 0, +s_k with s_k = sqrt(3 + 2 cos p_k).
    """
    c = np.cos(2.0 * math.pi * np.arange(K) / K)
    if d == 0:
        return (2.0 * c)[:, None]
    if d == 1:
        r = np.sqrt(1.0 + c * c)
        return np.stack([c - r, c + r], axis=1)
    if d == 2:
        s = np.sqrt(3.0 + 2.0 * c)
        return np.stack([-s, np.zeros(K), s], axis=1)
    raise ValueError(f"no closed form for d={d}")


def closed_form_gap(d: int, K: int) -> tuple[float, float]:
    """(minimum nonzero gap, max |lambda|) of the (K, d)-comb from closed forms.

    Sectors k and K-k are exactly degenerate, so one representative per
    momentum class (k = 0..K//2) lists every distinct eigenvalue once; the
    d = 2 flat band collapses to a single 0.
    """
    table = comb_sector_table(d, K)
    distinct = np.unique(table[: K // 2 + 1].ravel())
    return float(np.diff(distinct).min()), float(np.abs(table).max())


def sector_eigenvalues(pearl, K: int) -> np.ndarray:
    """All sector eigenvalues from one stacked solve of freshly built Y_k."""
    p = 2.0 * math.pi * np.arange(K) / K
    y = np.repeat(pearl.adjacency()[None, :, :].astype(complex), K, axis=0)
    ri, ro = pearl.root_in - 1, pearl.root_out - 1
    if ri == ro:
        y[:, ri, ri] += 2.0 * np.cos(p)
    else:
        y[:, ri, ro] += np.exp(-1j * p)
        y[:, ro, ri] += np.exp(1j * p)
    return np.linalg.eigvalsh(y).ravel()


def dense_limiting(h: np.ndarray, start: int) -> np.ndarray:
    """Limiting distribution from dense eigenvectors and eigenspace projectors."""
    values, vectors = np.linalg.eigh(h)
    tau = TAU_REL * max(float(np.abs(values).max()), 1.0)
    pi = np.zeros(len(values))
    lo = 0
    for hi in range(1, len(values) + 1):
        if hi == len(values) or values[hi] - values[hi - 1] > tau:
            block = vectors[:, lo:hi]
            pi += np.abs(block @ block[start].conj()) ** 2
            lo = hi
    return pi


# --- checks -----------------------------------------------------------------


def check_spectrum(text: str, ref: dict) -> list[str]:
    """Eigenvalues by (k, n) against a (K, M) table, or sorted against a list."""
    header, rows, _ = parse_csv(text)
    if header != ["k", "n", "lambda"]:
        return [f"spectrum: bad header {header}"]
    values = _column(rows, 2)
    if "sorted" in ref:
        if len(rows) != len(ref["sorted"]):
            return [f"spectrum: {len(rows)} rows, expected {len(ref['sorted'])}"]
        return _compare("spectrum", np.sort(values), np.sort(ref["sorted"]), SPECTRUM_TOL)
    table = ref["table"]
    K, M = table.shape
    labels = {(int(row[0]), int(row[1])) for row in rows}
    if len(rows) != K * M or labels != {(k, n) for k in range(K) for n in range(M)}:
        return [f"spectrum: rows are not one per (k, n) in {K} x {M}"]
    k = np.array([int(row[0]) for row in rows])
    n = np.array([int(row[1]) for row in rows])
    return _compare("spectrum", values, table[k, n], SPECTRUM_TOL)


def check_limiting(text: str, ref: dict) -> list[str]:
    """Unit sum and non-negativity, plus the closed form where one exists."""
    header, rows, _ = parse_csv(text)
    if header[:4] != ["j", "m", "vertex_type", "pi"]:
        return [f"limiting: bad header {header}"]
    if len(rows) != ref["n"]:
        return [f"limiting: {len(rows)} rows, expected {ref['n']}"]
    pi = _column(rows, 3)
    if pi.min() < 0.0:
        return [f"limiting: negative entry {pi.min()}"]
    if abs(pi.sum() - 1.0) > UNIT_SUM_TOL:
        return [f"limiting: sums to {pi.sum()!r}"]
    if ref.get("pi") is not None:
        return _compare("limiting", pi, ref["pi"], LIMITING_TOL)
    return []


def check_mix(text: str, ref: dict) -> list[str]:
    """Grid, tv <= tv_bound on every row, early tv against quadrature, T_mix."""
    header, rows, footers = parse_csv(text)
    if header[:3] != ["T", "tv_distance", "tv_bound"]:
        return [f"mix: bad header {header}"]
    grid = ref["grid"]
    if len(rows) != len(grid):
        return [f"mix: {len(rows)} rows, expected {len(grid)}"]
    t, tv, bound = _column(rows, 0), _column(rows, 1), _column(rows, 2)
    if np.abs(t - grid).max() > PRINT_RTOL * grid.max():
        return ["mix: time column differs from the geometric grid"]
    over = np.flatnonzero(tv > bound * (1.0 + PRINT_RTOL))
    if len(over):
        i = int(over[0])
        return [f"mix: tv {tv[i]} exceeds tv_bound {bound[i]} at T={t[i]}"]
    if tv.min() < 0.0 or tv.max() > 2.0:
        return ["mix: tv outside [0, 2]"]
    deviation = np.abs(tv[: len(ref["tv"])] - ref["tv"]).max()
    if deviation > AVERAGE_TOL:
        return [f"mix: early tv deviates {deviation:.3e} from quadrature"]
    ok_from_here = np.minimum.accumulate((tv <= ref["eps"])[::-1])[::-1]
    mix_lines = [f for f in footers if f.startswith("# T_mix")]
    if len(mix_lines) != 1:
        return ["mix: missing T_mix footer"]
    if ok_from_here.any():
        expected = float(grid[int(np.argmax(ok_from_here))])
        reported = mix_lines[0].rsplit("=", 1)[-1]
        try:
            matched = abs(float(reported) - expected) <= PRINT_RTOL * expected
        except ValueError:
            matched = False
        if not matched:
            return [f"mix: footer {mix_lines[0]!r}, expected T_mix {expected!r}"]
    elif "not found" not in mix_lines[0]:
        return [f"mix: footer {mix_lines[0]!r}, expected not found"]
    return []


def check_gap_scan(text: str, ref: dict) -> list[str]:
    """One verdict per (d, K) record; returns a message per failed record.

    Records with a closed form must match it.  Other records must match a
    stacked sector solve and lie more than AMBIGUITY_FACTOR * tau_deg above
    the tolerance, or they count as uncertified.
    """
    header, rows, _ = parse_csv(text)
    expected: dict = ref["records"]
    if header != ["d", "K", "min_gap"]:
        return [f"gap-scan {key}: bad header {header}" for key in expected]
    reported = {}
    for row in rows:
        reported[(int(row[0]), int(row[1]))] = float(row[2])
    failures = []
    for key, rec in expected.items():
        gap = reported.get(key)
        where = f"gap-scan d={key[0]} K={key[1]}"
        if gap is None:
            failures.append(f"{where}: record missing")
        elif abs(gap - rec["gap"]) > GAP_RTOL * rec["gap"]:
            failures.append(f"{where}: gap {gap!r}, expected {rec['gap']!r}")
        elif not rec["closed_form"] and gap <= AMBIGUITY_FACTOR * rec["tau"]:
            failures.append(f"{where}: gap {gap!r} uncertified, tau_deg {rec['tau']!r}")
    return failures


def _compare(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    deviation = float(np.abs(got - want).max())
    if not deviation <= tol:
        return [f"{label}: max deviation {deviation:.3e} exceeds {tol:.0e}"]
    return []
