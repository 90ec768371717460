"""Command-line interface.

Subcommands: spectrum, limiting, mix, gap-scan, oracle-check.  All vertex
and sector indices on the command line and in output files are 0-based.
Numeric CSV fields carry 15 significant digits; footer lines starting with
'#' report fitted slopes, mixing times and deviations.  Exit codes:
0 success, 1 configuration error, 2 I/O error, 3 oracle-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import bloch, comb_analytics, dynamics, mixing, oracle
from .bloch import all_sector_eigenvalues, full_spectrum
from .errors import NecklaceError, finite_above
from .graphs import (
    NecklaceSpec,
    assemble_hamiltonian,
    load_pearl_file,
    make_comb_pearl,
    make_cycle_pearl,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_ORACLE = 3


class _ConfigError(Exception):
    """User-facing configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _ConfigError(message)


def _format(value: float) -> str:
    return f"{value:.15g}"


def _format_column(values) -> np.ndarray:
    """``_format`` of every value, as an object array of str shaped like ``values``.

    Sorting the int64 bit patterns puts repeats side by side, so each
    distinct pattern is formatted once (0.0 and -0.0, or two NaN payloads,
    apart) and its text scattered back.
    """
    x = np.ascontiguousarray(values, dtype=float)
    flat = x.ravel()
    order = np.argsort(flat.view(np.int64))
    bits = flat.view(np.int64)[order]
    new = np.ones(len(flat), dtype=bool)                  # first of its bit pattern
    new[1:] = bits[1:] != bits[:-1]
    distinct = flat[order[new]].tolist()
    # One format call for the whole column is cheaper than one per value.
    text = np.array(("{:.15g}\n" * len(distinct)).format(*distinct).split("\n")[:-1],
                    dtype=object)
    out = np.empty(len(flat), dtype=object)
    out[order] = text[np.cumsum(new) - 1]
    return out.reshape(x.shape)


def _labels(count: int) -> np.ndarray:
    """"0", "1", .., as an object array of str."""
    return np.array(list(map(str, range(count))), dtype=object)


def _rows(*fields: np.ndarray) -> list[str]:
    """CSV rows from object arrays of str, broadcast together and joined with ","."""
    return list(map(",".join, zip(*(f.ravel().tolist() for f in np.broadcast_arrays(*fields)))))


def _write_lines(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# Most values a --K or --d list may expand to; checked before expanding.
MAX_LIST_VALUES = 100_000
# Log-spaced ranges are expanded in floating point, exact for integers up to here.
MAX_LOG_RANGE_END = 2**53


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise _ConfigError(f"bad integer {text.strip()!r} in {context!r}") from exc


def _range_count(lo: int, hi: int, log_spaced: bool) -> int:
    """Values that 'lo..hi' expands to, at most; log-spaced ranges give 2 per octave."""
    if log_spaced and lo >= 1:
        return max(2, int(round(2 * (math.log2(hi) - math.log2(lo)))) + 1)
    return hi - lo + 1


def _expand_range(lo: int, hi: int, log_spaced: bool) -> list[int]:
    if log_spaced and lo >= 1:
        # Not np.unique: its first call imports numpy.ma, about 10 ms per process.
        grid = np.round(np.logspace(math.log10(lo), math.log10(hi), _range_count(lo, hi, True)))
        return sorted(set(map(int, grid.tolist())))
    return list(range(lo, hi + 1))


def _parse_int_list(text: str, log_spaced: bool) -> list[int]:
    """Parse '4,7,10' or 'a..b'; ranges expand log- or linearly spaced.

    Every part is parsed and the values counted from the range endpoints
    before anything is expanded, so an oversized range fails at once.
    """
    bounds = []
    for part in text.split(","):
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = _parse_int(lo_s, text), _parse_int(hi_s, text)
            if hi < lo:
                raise _ConfigError(f"empty range {part.strip()!r}")
            if log_spaced and hi > MAX_LOG_RANGE_END:
                raise _ConfigError(f"log-spaced ranges end at most at {MAX_LOG_RANGE_END}")
            bounds.append((lo, hi, _range_count(lo, hi, log_spaced)))
        else:
            value = _parse_int(part, text)
            bounds.append((value, value, 1))
    count = sum(n for _, _, n in bounds)
    if count > MAX_LIST_VALUES:
        raise _ConfigError(
            f"{text!r} expands to {count} values; at most {MAX_LIST_VALUES} are allowed"
        )
    values = []
    for lo, hi, n in bounds:
        values.extend([lo] if n == 1 else _expand_range(lo, hi, log_spaced))
    return list(dict.fromkeys(values))


def _parse_start(text: str, necklace: NecklaceSpec) -> tuple[int, int]:
    """Parse --start 'J', 'J,base', 'J,tooth' or 'J,M' (0-based) to 1-based (j, m)."""
    pearl = necklace.pearl
    pieces = text.split(",")
    try:
        j0 = int(pieces[0])
    except ValueError as exc:
        raise _ConfigError(f"bad start pearl index in {text!r}") from exc
    if not (0 <= j0 < necklace.K):
        raise _ConfigError(f"start pearl {j0} outside 0..{necklace.K - 1}")
    if len(pieces) == 1:
        return j0 + 1, 1
    if len(pieces) != 2:
        raise _ConfigError(f"bad start argument {text!r}; expected J, J,base, J,tooth or J,M")
    kind = pieces[1].strip()
    if kind == "base":
        if pearl.comb_spacing is None:              # only a comb or the cycle names its base
            raise _ConfigError("this pearl has no base vertex")
        return j0 + 1, 1
    if kind == "tooth":
        if not pearl.comb_spacing:                  # None, or 0 for the one-vertex cycle
            raise _ConfigError("this pearl has no tooth vertex")
        return j0 + 1, pearl.m
    try:
        m0 = int(kind)
    except ValueError as exc:
        raise _ConfigError(f"bad start vertex {kind!r}") from exc
    if not (0 <= m0 < pearl.m):
        raise _ConfigError(f"start vertex {m0} outside 0..{pearl.m - 1}")
    return j0 + 1, m0 + 1


def _necklace_from_args(args, vectors: bool = False, extra=lambda K, M: 0) -> NecklaceSpec:
    """The necklace of a single-K command: exactly one pearl source and one --K value.

    The command's memory is priced here, once, from (K, M) before its comb
    pearl is built (its d edges take memory of their own): ``vectors`` picks
    the solve route and ``extra(K, M)`` gives the command's own bytes.
    """
    if args.cycle + (args.comb_d is not None) + (args.pearl_file is not None) != 1:
        raise _ConfigError(
            "exactly one pearl source required: --cycle, --comb-d D or --pearl-file PATH"
        )
    # Checked on the text: expanding a range first could exhaust memory.
    if ".." in args.K or "," in args.K:
        raise _ConfigError("this command takes a single --K value")
    try:
        K = int(args.K)
    except ValueError as exc:
        raise _ConfigError(f"bad --K value {args.K!r}") from exc
    necklace = NecklaceSpec(make_cycle_pearl(), K)      # refuses K < 3
    if args.pearl_file is not None:
        necklace = replace(necklace, pearl=load_pearl_file(args.pearl_file))
    # A d < 1 is priced as the cycle; make_comb_pearl then refuses it.
    M = necklace.pearl.m if args.comb_d is None else max(args.comb_d, 0) + 1
    _guard_memory(K, M, extra(K, M), vectors)
    if args.comb_d is None:
        return necklace
    return replace(necklace, pearl=make_comb_pearl(args.comb_d))


# Peak bytes of each sector solve route with what its commands hold beside it,
# per K M^2 and per K M, as tracemalloc counts them (tests/test_cli.py sweeps
# every command).  Eigenvalues alone (spectrum, gap-scan): a complex half stack,
# built with no temporary of its size (a real or chiral stack is smaller), then
# up to 256 bytes a CSV row.  Eigenpairs
# (limiting, mix, spectrum --vectors-out): the stacked eigh output with its
# phase-fixed and mirrored copies, then the averager's overlaps and same-group
# pair sums (chunked) beside the spectrum, about 50 K M^2 in all on a 41-vertex
# pearl, and the CSV rows.
SOLVE_BYTES = {False: (8, 256), True: (80, 384)}
# Held by a command of any size: buffers, caches, numpy's first calls.
FIXED_BYTES = 1 << 20


def _need_bytes(K: int, M: int, extra: int = 0, vectors: bool = False) -> int:
    """Estimated peak bytes of a command on K pearls of M vertices; ``extra`` is its own."""
    per_km2, per_km = SOLVE_BYTES[vectors]
    return per_km2 * K * M * M + per_km * K * M + FIXED_BYTES + extra


def _guard_memory(K: int, M: int, extra: int = 0, vectors: bool = False) -> None:
    """Refuse a run whose estimated bytes exceed physical memory, before it allocates."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):    # no sysconf here: no known limit
        return
    need = _need_bytes(K, M, extra, vectors)
    if need > limit:
        raise _ConfigError(f"K={K} with M={M} needs about {need / 2**30:.3g} GiB, more than "
                           f"the {limit / 2**30:.3g} GiB of physical memory")


def _add_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` with the --output and --threads that every command takes."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default: stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="kept for compatibility, must be >= 1 (default: 1); "
                             "the result does not depend on it")
    parser.set_defaults(func=func)
    return parser


def _add_necklace(parser: argparse.ArgumentParser, start: bool = False) -> None:
    """The pearl source and single --K; with ``start``, also --start and --tau-deg."""
    parser.add_argument("--cycle", action="store_true", help="single-vertex pearl (plain cycle)")
    parser.add_argument("--comb-d", type=int, default=None, metavar="D",
                        help="comb pearl with tooth spacing D")
    parser.add_argument("--pearl-file", default=None, metavar="PATH",
                        help="JSON pearl description (0-based indices)")
    parser.add_argument("--K", required=True, help="pearl count")
    if start:
        parser.add_argument("--start", required=True,
                            help="start vertex: J | J,base | J,tooth | J,M (0-based)")
        parser.add_argument("--tau-deg", type=float, default=None,
                            help="degeneracy tolerance, positive and finite (default: "
                                 "4096 eps * max |lambda|, solver precision)")


def cmd_spectrum(args) -> int:
    # --vectors-out takes one eigenvector solve for both files and lifts one sector at a time.
    dump = args.vectors_out is not None
    necklace = _necklace_from_args(args, dump)
    K, M = necklace.K, necklace.pearl.m
    spec = full_spectrum(necklace) if dump else None
    # Row K-k repeats row k bit for bit; _format_column formats each distinct value once.
    values = spec.eigenvalues if dump else all_sector_eigenvalues(necklace)
    _write_lines(["k,n,lambda", *_rows(_labels(K)[:, None], _labels(M), _format_column(values))],
                 args.output)
    if dump:
        with open(args.vectors_out, "w", encoding="utf-8", newline="") as handle:
            # One record at a time, laid out as json.dump(records, indent=1) lays out the list.
            handle.write("[\n")
            for k in range(K):
                block = bloch._lift(spec.sector_vectors[k:k + 1], np.array([k]), K)   # (N, M)
                for n in range(M):
                    record = {
                        "k": k,
                        "n": n,
                        "lambda": float(spec.eigenvalues[k, n]),
                        "vector_re": block[:, n].real.tolist(),
                        "vector_im": block[:, n].imag.tolist(),
                    }
                    text = json.dumps(record, indent=1).replace("\n", "\n ")
                    handle.write((",\n " if k or n else " ") + text)
            handle.write("\n]\n")
    return EXIT_OK


def cmd_limiting(args) -> int:
    necklace = _necklace_from_args(args, vectors=True)
    pearl = necklace.pearl
    j_start, m_start = _parse_start(args.start, necklace)
    if args.tau_deg is not None:                      # refused before the solve, not after it
        finite_above(args.tau_deg, "tau_deg")
    closed = None
    if args.closed_form:                              # refused, or computed, before the solve
        if pearl.comb_spacing != 1:
            raise _ConfigError("--closed-form is only available for the d = 1 comb (--comb-d 1)")
        closed = comb_analytics.comb1_limiting_distribution(
            necklace.K, pearl.vertex_kind(m_start), j_start
        )
    spec = full_spectrum(necklace)
    phi0 = dynamics.vertex_state(necklace, j_start, m_start)
    pi = dynamics.limiting_distribution(spec, phi0, tau_deg=args.tau_deg)

    # One row per vertex, in array order: pearl j outer, in-pearl m inner.
    K, M = necklace.K, pearl.m
    vertex = np.array([f"{m},{pearl.vertex_kind(m + 1)}" for m in range(M)], dtype=object)
    fields = [_labels(K)[:, None], vertex, _format_column(pi.reshape(K, M))]
    header = "j,m,vertex_type,pi"
    if closed is not None:
        fields.append(_format_column(closed.reshape(K, M)))
        header += ",pi_analytic"
    lines = [header, *_rows(*fields)]
    if closed is not None:
        lines.append(f"# max_abs_deviation = {_format(float(np.abs(pi - closed).max()))}")
    _write_lines(lines, args.output)
    return EXIT_OK


def cmd_mix(args) -> int:
    points = len(dynamics.geometric_grid(args.T_lo, args.T_hi))
    # The pair tables take PAIR_CHUNK_BYTES, or one q's when that is more.
    necklace = _necklace_from_args(args, True, lambda K, M: 40 * points * K * M + max(
        dynamics.PAIR_CHUNK_BYTES, dynamics._q_table_bytes(K, M)))
    K = necklace.K
    j_start, m_start = _parse_start(args.start, necklace)
    # The library's checks of these values, made before the solve instead of after it.
    if not 0.0 < args.eps <= 2.0:
        raise _ConfigError(f"epsilon must lie in (0, 2], got {args.eps}")
    if args.tau_deg is not None:
        finite_above(args.tau_deg, "tau_deg")
    if args.cos_bound_c is not None:
        finite_above(args.cos_bound_c, "--cos-bound-c")
    spec = full_spectrum(necklace)
    phi0 = dynamics.vertex_state(necklace, j_start, m_start)

    result = dynamics.mixing_time(
        spec, phi0, args.eps, args.T_hi, t_lo=args.T_lo, tau_deg=args.tau_deg
    )
    # The bound scales exactly as 1/T.
    columns = [result.grid, result.tv_values, result.bound_at_unit / result.grid]
    header = "T,tv_distance,tv_bound"
    if args.cos_bound_c is not None:
        columns.append([mixing.mixing_bound_curve(args.cos_bound_c, K, t)
                        for t in result.grid.tolist()])
        header += ",mixing_bound"
    lines = [header, *_rows(*map(_format_column, columns))]
    if result.found:
        lines.append(f"# T_mix(eps={_format(args.eps)}) = {_format(result.t_mix)}")
    else:
        lines.append(
            f"# T_mix(eps={_format(args.eps)}) not found up to T_hi={_format(args.T_hi)}; "
            f"tv at T_hi = {_format(result.tv_at_hi)}"
        )
    _write_lines(lines, args.output)
    return EXIT_OK


def cmd_gap_scan(args) -> int:
    d_list = _parse_int_list(args.d, log_spaced=False)
    k_list = _parse_int_list(args.K, log_spaced=not args.linear)
    _guard_memory(max(k_list), max(d_list) + 1)       # pearl d has d + 1 vertices (d = 0: cycle)
    records, slopes = mixing.gap_scan(d_list, k_list)
    keys = np.array([f"{r.d},{r.K}" for r in records], dtype=object)
    lines = ["d,K,min_gap", *_rows(keys, _format_column([r.min_gap for r in records]))]
    lines += [f"# slope d={d} {_format(slopes[d])}" for d in d_list]   # NaN prints "nan"
    _write_lines(lines, args.output)
    return EXIT_OK


def _oracle_checks(necklace: NecklaceSpec) -> dict:
    """Run every brute-force comparison for one necklace; returns the report."""
    h = assemble_hamiltonian(necklace)
    spec = full_spectrum(necklace)
    checks: dict[str, dict] = {}

    def record(name: str, deviation: float, tolerance: float) -> None:
        checks[name] = {
            "max_deviation": float(deviation),
            "tolerance": tolerance,
            "pass": bool(deviation <= tolerance),
        }

    brute = oracle.brute_spectrum(h)
    record(
        "spectrum_match",
        np.abs(np.sort(spec.eigenvalues, axis=None) - brute.eigenvalues).max(),
        1e-9,
    )
    residual = h @ spec.vectors - spec.vectors * spec.eigenvalues.reshape(1, -1)
    record("eigenvector_residual", np.abs(residual).max(), 1e-9)
    gram = spec.vectors.conj().T @ spec.vectors - np.eye(necklace.n_vertices)
    record("basis_gram", np.abs(gram).max(), 1e-9)

    phi0 = dynamics.vertex_state(necklace, 1, 1)
    dev = 0.0
    for t in (0.7, math.pi / 2, 3.3):
        p_fast = dynamics.probability_at_time(spec, phi0, t)
        p_ref = oracle.evolve_matrix_exponential(h, phi0, t)
        dev = max(dev, float(np.abs(p_fast - p_ref).max()))
    record("evolution_match", dev, 1e-9)

    T, steps = 10.0, 8000
    averaged = dynamics.time_averaged(spec, phi0, T)
    quadrature = oracle.quadrature_time_average(h, phi0, T, steps)
    record("time_average_match", np.abs(averaged - quadrature).max(), 1e-5)

    pi = dynamics.limiting_distribution(spec, phi0)
    record("limiting_unit_sum", abs(pi.sum() - 1.0), 1e-9)
    if necklace.pearl.comb_spacing == 0:
        closed = np.array(
            [comb_analytics.cycle_limiting(necklace.K, x, 1) for x in range(1, necklace.K + 1)]
        )
        record("limiting_closed_form", np.abs(pi - closed).max(), 1e-9)
    elif necklace.pearl.comb_spacing == 1:
        closed = comb_analytics.comb1_limiting_distribution(necklace.K, "base", 1)
        record("limiting_closed_form", np.abs(pi - closed).max(), 1e-9)

    return {
        "necklace": {"K": necklace.K, "M": necklace.pearl.m, "N": necklace.n_vertices},
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def cmd_oracle_check(args) -> int:
    necklace = _necklace_from_args(args, vectors=True)
    if necklace.n_vertices > oracle.EVOLVE_MAX_DIM:
        raise _ConfigError(f"oracle-check caps at {oracle.EVOLVE_MAX_DIM} vertices, "
                           f"got {necklace.n_vertices}")
    report = _oracle_checks(necklace)
    _write_lines([json.dumps(report, indent=1, sort_keys=True)], args.output)
    return EXIT_OK if report["pass"] else EXIT_ORACLE


def _spectrum_options(parser: argparse.ArgumentParser) -> None:
    _add_necklace(parser)
    parser.add_argument("--vectors-out", default=None, metavar="PATH",
                        help="also dump lifted eigenvectors as JSON; one solve writes both files")


def _limiting_options(parser: argparse.ArgumentParser) -> None:
    _add_necklace(parser, start=True)
    parser.add_argument("--closed-form", action="store_true",
                        help="also emit analytic values (the d = 1 comb only)")


def _mix_options(parser: argparse.ArgumentParser) -> None:
    _add_necklace(parser, start=True)
    parser.add_argument("--eps", type=float, required=True, help="precision parameter in (0, 2]")
    parser.add_argument("--T-hi", type=float, default=1e5, dest="T_hi",
                        help="top of the geometric time grid (default 1e5)")
    parser.add_argument("--T-lo", type=float, default=1.0, dest="T_lo",
                        help="bottom of the geometric time grid (default 1)")
    parser.add_argument("--cos-bound-c", type=float, default=None, metavar="C",
                        help="also emit the closed-form bound column for C, positive and finite")


def _gap_scan_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", required=True, help="tooth spacings, e.g. 1,2,3 (0 = cycle)")
    parser.add_argument("--K", required=True, help="pearl counts, e.g. 16,32 or 16..256")
    parser.add_argument("--linear", action="store_true",
                        help="expand K ranges linearly (default: log-spaced)")


# Subcommand name -> (function, help line, what adds its own options), in help order.
_COMMANDS = {
    "spectrum": (cmd_spectrum, "sector-labeled eigenvalues as CSV", _spectrum_options),
    "limiting": (cmd_limiting, "limiting distribution from a vertex start", _limiting_options),
    "mix": (cmd_mix, "total variation curve, bound and mixing time", _mix_options),
    "gap-scan": (cmd_gap_scan, "minimum nonzero gap over (d, K) combs", _gap_scan_options),
    "oracle-check": (cmd_oracle_check, "run all brute-force comparisons", _add_necklace),
}


@functools.cache
def build_parser(command: str | None = None) -> _Parser:
    """The parser for ``command`` alone, or for every subcommand when it is None.

    Each is built once per process, and parsing leaves it unchanged.  A
    subcommand parses and fails alike in either: they differ only in the
    other subcommands, which its arguments never reach.
    """
    parser = _Parser(prog="necklace-walk", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, add_options) in _COMMANDS.items():
        if command in (None, name):
            add_options(_add_command(sub, name, func, help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known first word is the subcommand; anything else (--help, a typo) needs them all.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:        # a compatibility flag, checked and otherwise unread
            raise _ConfigError(f"thread count must be >= 1, got {args.threads}")
        return args.func(args)
    except (_ConfigError, NecklaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
