"""Command-line driver: parse a lattice file, run verification suites, report.

Machine format emits one ``key=value`` line per report so runs can be
diffed; text format is a human-readable pass/fail table.  Exit status is 0
exactly when every executed check passes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import characters, coeffs, isomap
from .cocycle import TwistSystem
from .exact import lemma_root_sum
from .fock import weight_basis
from .lattice import Lattice, LatticeError
from .report import Report

FRACTION_FLAGS = ("--q-order", "--weight-cutoff", "--mode-bound")


@dataclass
class RunConfig:
    lattice_path: str | None = None
    k: int = 2
    q_order: Fraction = Fraction(10)
    weight_cutoff: Fraction = Fraction(2)
    mode_bound: Fraction = Fraction(2)
    fmt: str = "text"
    lattice: Lattice | None = field(default=None, repr=False)


class LatticeFileError(ValueError):
    pass


class UsageError(ValueError):
    """A command-line value the requested checks cannot run with."""


def parse_lattice_file(path: str) -> Lattice:
    """Read the lattice text format: name, rank, gram with '#' comments."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = fh.read()
        except UnicodeDecodeError as exc:
            raise LatticeFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    fields: dict[str, str] = {}
    pending_key = None
    pending_val: list[str] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if pending_key is None:
            if "=" not in stripped:
                raise LatticeFileError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in stripped.split("=", 1))
            if not key:
                raise LatticeFileError(f"{path}:{lineno}: empty key")
            if key in fields:
                raise LatticeFileError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            key, val = pending_key, " ".join(pending_val + [stripped])
        if key == "gram" and val.count("[") != val.count("]"):
            pending_key, pending_val = key, val.split()
            continue
        pending_key, pending_val = None, []
        fields[key] = val
    if pending_key is not None:
        raise LatticeFileError(f"{path}: unterminated value for {pending_key!r}")
    for required in ("rank", "gram"):
        if required not in fields:
            raise LatticeFileError(f"{path}: missing field {required!r}")
    try:
        rank = int(fields["rank"])
    except ValueError:
        raise LatticeFileError(f"{path}: rank must be an integer") from None
    if rank < 1:
        raise LatticeFileError("lattice must have positive rank")
    try:
        gram = json.loads(fields["gram"])
    except json.JSONDecodeError as exc:
        raise LatticeFileError(
            f"{path}: gram parse error at line offset {exc.lineno}, column {exc.colno}"
        ) from None
    if (not isinstance(gram, list) or len(gram) != rank
            or any(not isinstance(r, list) or len(r) != rank for r in gram)
            or any(not isinstance(x, int) or isinstance(x, bool) for r in gram for x in r)):
        raise LatticeFileError(f"{path}: gram must be a {rank}x{rank} integer matrix")
    return Lattice(gram, name=fields.get("name", ""))


# -- sub-checks ---------------------------------------------------------------


def run_lemma(cfg: RunConfig) -> list[Report]:
    out = []
    for m in range(1, 25):
        value = lemma_root_sum(m)
        expected = Fraction(-(m * m - 1), 12)
        ok = value.is_rational() and value.as_rational() == expected
        out.append(Report(
            check_id=f"root-sum[m={m}]",
            anchor="root-of-unity-sum-identity",
            status="pass" if ok else "fail",
            witness="" if ok else f"value {value} expected {expected}"))
    return out


def run_coeffs(cfg: RunConfig) -> list[Report]:
    out = []
    k = cfg.k
    system = TwistSystem(cfg.lattice, k)
    series = coeffs.c_coeffs(system, 0, 4)
    c110 = series.get((1, 1), system.field.zero())
    closed = coeffs.c110_closed_form(system)
    expected = Fraction(k * k - 1, 24 * k * k)
    ok = (c110.is_rational() and c110.as_rational() == closed == expected
          and (0, 0) not in series)
    out.append(Report(
        check_id=f"c110[k={k}]",
        anchor="log-series-weight-shift",
        status="pass" if ok else "fail",
        witness="" if ok else f"series {c110} closed {closed} expected {expected}"))
    avals = coeffs.a_coeffs(k, 9)
    ok_a = avals[0] == Fraction(1 - k, 2) and avals[1] == Fraction(k * k - 1, 12)
    out.append(Report(
        check_id=f"a-coeffs[k={k}]",
        anchor="change-of-variables-coefficients",
        status="pass" if ok_a else "fail",
        witness="" if ok_a else f"a1={avals[0]} a2={avals[1]}"))
    got = coeffs.substitute_flow(avals, 10)
    want = [Fraction(0)] * 11
    for t in range(1, 11):
        want[t] = coeffs.rational_binomial(k, t) / k
    ok_rt = got[:11] == want
    out.append(Report(
        check_id=f"a-roundtrip[k={k}]",
        anchor="change-of-variables-roundtrip",
        status="pass" if ok_rt else "fail",
        witness="" if ok_rt else f"flow {got} target {want}"))
    return out


def _require_q_order(cfg: RunConfig, lead: Fraction) -> None:
    """A series truncated below its leading exponent holds nothing to check."""
    if cfg.q_order < lead:
        raise UsageError(f"--q-order {cfg.q_order} is below the leading exponent "
                         f"{lead} of the character")


def run_chars(cfg: RunConfig) -> list[Report]:
    out = []
    K, k, order = cfg.lattice, cfg.k, cfg.q_order
    shift = characters.twisted_lead_exponent(K, k)
    _require_q_order(cfg, shift)
    twisted = characters.char_twisted(K, k, order)
    ok_counts = all(
        c == int(c) and c >= 0
        for _, c in twisted.items())
    out.append(Report(
        check_id=f"twisted-coefficients-integral[k={k}]",
        anchor="state-counting",
        status="pass" if ok_counts else "fail",
        witness="" if ok_counts else repr(twisted)))
    ok_lead = twisted.leading_exponent() == shift
    out.append(Report(
        check_id=f"twisted-leading-exponent[k={k}]",
        anchor="twisted-vacuum-grade",
        status="pass" if ok_lead else "fail",
        witness="" if ok_lead else f"lead {twisted.leading_exponent()} expected {shift}"))
    return out


def run_thm41(cfg: RunConfig) -> list[Report]:
    _require_q_order(cfg, Fraction(-cfg.lattice.rank, 24))
    return characters.compare_thm41(cfg.lattice, cfg.k, cfg.q_order)


def run_iso(cfg: RunConfig) -> list[Report]:
    for flag, value in (("--weight-cutoff", cfg.weight_cutoff),
                        ("--mode-bound", cfg.mode_bound)):
        if value < 0:
            raise UsageError(f"{flag} {value} is negative")
    system = TwistSystem(cfg.lattice, cfg.k)
    basis = weight_basis(system, "T", cfg.weight_cutoff)
    modes = isomap.default_mode_set(system, cfg.mode_bound)
    return isomap.intertwine_generators(system, basis, modes)


# verify-all runs every runner, in this order
_RUNNERS = {
    "lemma": run_lemma,
    "coeffs": run_coeffs,
    "chars": run_chars,
    "thm41": run_thm41,
    "iso": run_iso,
}
SUBCOMMANDS = (*_RUNNERS, "verify-all")


def cmd(name: str, cfg: RunConfig) -> tuple[list[Report], int]:
    """Run one subcommand (or all); returns reports and exit status."""
    if name not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {name!r}")
    needs_lattice = name != "lemma"
    if needs_lattice and cfg.lattice is None:
        if not cfg.lattice_path:
            raise LatticeFileError("subcommand requires --lattice")
        cfg.lattice = parse_lattice_file(cfg.lattice_path)
    reports: list[Report] = []
    if name == "verify-all":
        for run in _RUNNERS.values():
            reports.extend(run(cfg))
    else:
        reports = _RUNNERS[name](cfg)
    status = 0 if all(r.passed for r in reports) else 1
    return reports, status


def emit(reports: list[Report], fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "machine":
        for r in reports:
            stream.write(r.machine_line() + "\n")
    else:
        for r in reports:
            stream.write(r.text_line() + "\n")
        failed = sum(0 if r.passed else 1 for r in reports)
        stream.write(f"{len(reports) - failed}/{len(reports)} checks passed\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _join_negative_fractions(argv) -> list[str]:
    """argparse reads a value such as -1/100 as an option, so a negative
    fraction after a rational flag is fused with it: --q-order=-1/100."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in FRACTION_FLAGS and re.fullmatch(r"-\d+/\d+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="permtwist",
        description="exact verification of the two twisted-module constructions")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--lattice", help="path to a lattice spec file")
    parser.add_argument("--k", type=int, default=RunConfig.k, help="number of tensor factors")
    parser.add_argument("--q-order", type=_fraction, default=RunConfig.q_order)
    parser.add_argument("--weight-cutoff", type=_fraction, default=RunConfig.weight_cutoff)
    parser.add_argument("--mode-bound", type=_fraction, default=RunConfig.mode_bound)
    parser.add_argument("--format", choices=("text", "machine"), default=RunConfig.fmt)
    args = parser.parse_args(_join_negative_fractions(sys.argv[1:] if argv is None else argv))
    if args.k < 1:
        print(f"error: --k must be a positive integer, got {args.k}", file=sys.stderr)
        return 2
    cfg = RunConfig(lattice_path=args.lattice, k=args.k, q_order=args.q_order,
                    weight_cutoff=args.weight_cutoff, mode_bound=args.mode_bound,
                    fmt=args.format)
    try:
        reports, status = cmd(args.subcommand, cfg)
    except (LatticeFileError, LatticeError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(reports, cfg.fmt)
    return status


if __name__ == "__main__":
    sys.exit(main())
