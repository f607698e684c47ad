"""Command-line front end: verification scans, searches, gluing runs, and
the compact-star scenario.

Subcommands
-----------
verify
    Static-vacuum residual scan over the profile; CSV of per-sample
    residuals plus a JSON summary.  Exits 0 only if every residual is
    within tolerance.
photon-search
    Root search for photon spheres; radii printed one per line (10
    decimals), CSV table on request.  An empty result is a success.
audit
    Photon-sphere identity audit at the profile's inner boundary; JSON
    report.  Exits 0 only if all residuals pass.
glue
    Neck attachment at the inner boundary with the full C^1 match report.
    A boundary that fails the audit is refused (exit 2).
pipeline
    The complete rigidity run (glue, double, rescale, certify); JSON
    report plus a CSV table of match jumps.  Exit 0 only on a rigid
    verdict, 1 when a certificate fails, 2 when the input is refused.
star
    Constant-density body matched to its vacuum exterior: compactness
    gate, photon-sphere census with audits, and the uniqueness statement
    when the body sits inside its own photon sphere.

Configuration
-------------
Flags may also be supplied as keys of a JSON config file (``--config``);
explicit flags win over file values, and every report echoes the resolved
configuration so runs are reproducible.  ``--metric`` is either
``schwarzschild`` (built from ``--mass``/``--r-min``/``--r-max``) or a
path to a profile document (see :func:`photonlab.radial.load_profile`).

Exit codes: 0 success, 1 verification failure, 2 refused input, 64 config
error, 65 compactness (Buchdahl) violation, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .audit import audit_sphere
from .curvature import VACUUM_FIELDS, vacuum_residual_scan
from .geodesics import photon_sphere_search
from .gluing import (
    MATCH_FIELDS,
    MATCH_TOL,
    GluingRefusal,
    glue_neck,
    largest_jump,
    match_report,
)
from .pipeline import run_rigidity_pipeline
from .radial import (
    BuchdahlError,
    DomainError,
    RadialProfile,
    buchdahl_ratio,
    load_profile,
    make_composite_star,
    make_schwarzschild_family,
)
from .reports import ReportIOError, json_document, write_csv, write_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_REFUSED = 2
EXIT_CONFIG = 64
EXIT_BUCHDAHL = 65
EXIT_IO = 74


class ConfigError(ValueError):
    """Malformed or inconsistent configuration (exit 64)."""


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------

_COMMON_KEYS = ("metric", "mass", "r_min", "r_max", "samples", "tol", "out")
_DEFAULT_TOL = {
    "verify": 1e-12,
    "photon-search": 1e-10,
    "audit": 1e-10,
    "glue": MATCH_TOL,
    "pipeline": MATCH_TOL,
    "star": 1e-10,
}


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _finite(key: str, value) -> float:
    """A config value as a finite float, or a :class:`ConfigError` naming the
    key; a boolean, which ``float`` reads as 0 or 1, is refused too."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return x


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = {
        "metric": "schwarzschild",
        "mass": 1.0,
        "r_min": None,
        "r_max": None,
        "samples": 512,
        "tol": _DEFAULT_TOL[args.command],
        "out": None,
        "r_b": None,
    }
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in (*_COMMON_KEYS, "r_b"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    cfg["config_file"] = args.config
    # open() takes a number as a file descriptor: 0 would read stdin
    if not isinstance(cfg["metric"], str):
        raise ConfigError(f"metric must be a string, got {cfg['metric']!r}")
    if not isinstance(cfg["out"], (str, type(None))):
        raise ConfigError(f"out must be a path, got {cfg['out']!r}")
    for key in ("mass", "tol", "samples"):
        cfg[key] = _finite(key, cfg[key])
    for key in ("r_min", "r_max", "r_b"):  # None: derived from the others
        if cfg[key] is not None:
            cfg[key] = _finite(key, cfg[key])
    if not cfg["samples"].is_integer():
        raise ConfigError(f"samples must be an integer, got {cfg['samples']!r}")
    cfg["samples"] = int(cfg["samples"])
    if cfg["samples"] <= 0:
        raise ConfigError("samples must be positive")
    if cfg["tol"] <= 0.0:
        raise ConfigError("tol must be positive")
    if cfg["r_min"] is not None and cfg["r_max"] is not None:
        if not cfg["r_min"] < cfg["r_max"]:
            raise ConfigError("empty domain: r_min must be below r_max")
    return cfg


def _build_profile(cfg: dict) -> RadialProfile:
    kind = cfg["metric"]
    if kind == "schwarzschild":
        m = cfg["mass"]
        r_min = cfg["r_min"]
        r_max = cfg["r_max"]
        if r_min is None:
            # photon-search wants the canonical sphere strictly inside the
            # window; the other commands treat the boundary as the candidate
            r_min = (2.1 * m if cfg["command"] == "photon-search" else 3.0 * m)
            r_min = r_min if m > 0 else 1.0
        if r_max is None:
            r_max = 100.0 * m if m > 0 else 100.0
        cfg["r_min"], cfg["r_max"] = float(r_min), float(r_max)
        return make_schwarzschild_family(m, r_min, r_max)
    try:
        profile = load_profile(kind)
    except OSError as exc:
        raise ReportIOError(f"cannot read profile document {kind}: {exc}") from exc
    r_min = cfg["r_min"] if cfg["r_min"] is not None else profile.r_lo
    r_max = cfg["r_max"] if cfg["r_max"] is not None else profile.r_hi
    cfg["r_min"], cfg["r_max"] = float(r_min), float(r_max)
    if (r_min, r_max) != (profile.r_lo, profile.r_hi):
        profile = profile.restricted(r_min, r_max)
    return profile


def _echo(cfg: dict) -> dict:
    keys = ("command", "metric", "mass", "r_min", "r_max", "samples", "tol",
            "out", "config_file", "r_b")
    return {k: cfg[k] for k in keys if cfg.get(k) is not None or k in
            ("command", "metric", "r_min", "r_max")}


def _emit(cfg: dict, report: dict | object, csv_spec=None) -> None:
    sys.stdout.write(json_document(report))
    _write_out(cfg, report, csv_spec)


def _write_out(cfg: dict, report: dict | object, csv_spec=None) -> None:
    """Write the report to ``--out`` and, given a CSV spec, the table beside it."""
    if cfg["out"] is not None:
        write_json(cfg["out"], report)
        if csv_spec is not None:
            header, rows = csv_spec
            write_csv(Path(cfg["out"]).with_suffix(".csv"), header, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: dict) -> int:
    scan = vacuum_residual_scan(_build_profile(cfg), cfg["samples"])
    r, field, worst = scan.worst
    ok = worst <= cfg["tol"]
    report = {
        "config": _echo(cfg),
        "n_samples": len(scan.r),
        "max_residual": worst,
        "worst_sample": {"r": r, "field": field, "value": worst},
        "pass": ok,
    }
    rows = np.column_stack([scan.r, *scan.residuals, scan.sample_max]).tolist()
    _emit(cfg, report, (("r", *VACUUM_FIELDS, "max_residual"), rows))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_photon_search(cfg: dict) -> int:
    profile = _build_profile(cfg)
    roots = photon_sphere_search(profile, n_scan=max(cfg["samples"], 64))
    for r in roots:
        sys.stdout.write(f"{r:.10f}\n")
    report = {"config": _echo(cfg), "radii": [float(r) for r in roots]}
    rows = [[i, float(r)] for i, r in enumerate(roots)]
    _write_out(cfg, report, (("index", "radius"), rows))
    return EXIT_OK


def cmd_audit(cfg: dict) -> int:
    profile = _build_profile(cfg)
    report_obj = audit_sphere(profile, profile.r_lo)
    ok = report_obj.max_residual() <= cfg["tol"] and report_obj.H_positive
    report = {
        "config": _echo(cfg),
        "audit": report_obj,
        "max_residual": report_obj.max_residual(),
        "chain_residual": report_obj.chain_residual(),
        "pass": ok,
    }
    _emit(cfg, report)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _match_rows(reports) -> list:
    return [[rep.surface_id, f, rep.left[f], rep.right[f], rep.jumps[f]]
            for rep in reports for f in MATCH_FIELDS]


def cmd_glue(cfg: dict) -> int:
    profile = _build_profile(cfg)
    manifold = glue_neck(profile, profile.r_lo, match_tol=cfg["tol"])
    reports = [match_report(manifold, g.surface_id) for g in manifold.gluings]
    worst = largest_jump(reports)
    ok = worst <= cfg["tol"]
    report = {
        "config": _echo(cfg),
        "charts": [
            {"chart_id": c.chart_id, "r_lo": c.profile.r_lo,
             "r_hi": c.profile.r_hi, "collar_scale": c.collar_scale}
            for c in manifold.charts
        ],
        "match_reports": reports,
        "max_jump": worst,
        "pass": ok,
    }
    _emit(cfg, report, (("surface_id", "field", "left", "right", "jump"),
                        _match_rows(reports)))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_pipeline(cfg: dict) -> int:
    profile = _build_profile(cfg)
    rep = run_rigidity_pipeline(
        profile, match_tol=cfg["tol"], n_samples=cfg["samples"]
    )
    report = {"config": _echo(cfg), "report": rep}
    _emit(cfg, report, (("surface_id", "field", "left", "right", "jump"),
                        _match_rows(rep.match_reports)))
    return EXIT_OK if rep.rigid else EXIT_VERIFICATION


def cmd_star(cfg: dict) -> int:
    m = cfg["mass"]
    r_b = cfg["r_b"] if cfg["r_b"] is not None else 2.5 * m
    cfg["r_b"] = float(r_b)
    r_hi = cfg["r_max"] if cfg["r_max"] is not None else 100.0 * m
    composite = make_composite_star(m, r_b, r_hi=r_hi)
    cfg["r_max"] = float(r_hi)

    photon_spheres = []
    rejected = []
    audits = {}
    for piece in composite.pieces:
        for root in photon_sphere_search(piece, n_scan=max(cfg["samples"], 64)):
            rep = audit_sphere(piece, root)
            audits[f"{root:.10f}"] = rep
            if rep.max_residual() <= cfg["tol"] and rep.H_positive:
                photon_spheres.append(float(root))
            else:
                worst, value = rep.worst_residual()
                rejected.append(
                    {"radius": float(root), "failing": worst, "value": value}
                )

    enclosed = bool(photon_spheres) and r_b < min(photon_spheres)
    if enclosed:
        verdict = (
            "body enclosed by its own photon sphere: no further body with "
            "that property can rest in static equilibrium alongside it"
        )
    else:
        verdict = (
            "surface radius is not inside a photon sphere of the vacuum "
            "region; the uniqueness statement for photon-sphere-enclosed "
            "bodies does not apply to this configuration"
        )
    report = {
        "config": _echo(cfg),
        "buchdahl_ratio": buchdahl_ratio(m, r_b),
        "photon_sphere_radii": photon_spheres,
        "rejected_light_rings": rejected,
        "audits": audits,
        "hypothesis_met": enclosed,
        "verdict": verdict,
    }
    _emit(cfg, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "verify": cmd_verify,
    "photon-search": cmd_photon_search,
    "audit": cmd_audit,
    "glue": cmd_glue,
    "pipeline": cmd_pipeline,
    "star": cmd_star,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--metric", help="'schwarzschild' or path to a profile JSON document")
    common.add_argument("--mass", type=float, help="mass parameter (closed-form metrics)")
    common.add_argument("--r-min", dest="r_min", type=float, help="inner domain radius")
    common.add_argument("--r-max", dest="r_max", type=float, help="outer domain radius")
    common.add_argument("--samples", type=int, help="sample count for scans")
    common.add_argument("--out", help="write the JSON report here (CSV beside it)")
    common.add_argument("--tol", type=float, help="primary tolerance of the command")
    common.add_argument("--config", help="JSON config file; flags override its values")

    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="Photon-sphere verification laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "star":
            p.add_argument("--r-b", dest="r_b", type=float,
                           help="star surface radius (default 2.5*mass)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BuchdahlError as exc:
        print(f"compactness violation: {exc}", file=sys.stderr)
        return EXIT_BUCHDAHL
    except GluingRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:  # ReportIOError included
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
