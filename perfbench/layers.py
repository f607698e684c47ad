"""Per-layer metrics of the traced run.

Every number here comes from spans that the benchmark records around its
own calls into photonlab modules (see :mod:`spans`).  The rigidity stages
are timed by replaying ``run_rigidity_pipeline`` stage by stage through the
public stage functions; the replay must reproduce the pipeline's
certificates exactly, or it would be timing a different program.  Layers
the traced workload does not reach are filled in by a few probe operations
of the other workloads, which are checked like any other operation.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import subprocess
import sys

from workloads import (
    CHILD_TIMEOUT,
    OUT,
    ROOT,
    SUBCOMMANDS,
    CliCold,
    Rigidity,
    Survey,
    child_env,
)

MICRO_REPEATS = 5
CLI_REPEATS = 3

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("radial.eval_plain_us", "us", "lower"),
    ("radial.eval_rescaled_us", "us", "lower"),
    ("radial.evals_per_op", "count", "lower"),
    ("curvature.curvature_at_plain_us", "us", "lower"),
    ("curvature.curvature_at_rescaled_us", "us", "lower"),
    ("curvature.fd_oracle_us", "us", "lower"),
    ("curvature.scan_s", "s", "lower"),
    ("conformal.transform_s", "s", "lower"),
    ("conformal.scalar_residual_s", "s", "lower"),
    ("conformal.adm_s", "s", "lower"),
    ("conformal.compactification_s", "s", "lower"),
    ("conformal.flatness_s", "s", "lower"),
    ("conformal.fd_samples", "count", "higher"),
    ("gluing.glue_s", "s", "lower"),
    ("gluing.double_s", "s", "lower"),
    ("gluing.match_s", "s", "lower"),
    ("gluing.psi_bound_s", "s", "lower"),
    ("gluing.harmonicity_s", "s", "lower"),
    ("audit.audit_sphere_us", "us", "lower"),
    ("geodesics.search_s", "s", "lower"),
    ("geodesics.trapping_s", "s", "lower"),
    ("geodesics.steps_per_trap", "count", "lower"),
    ("pipeline.stage_sum_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("reports.json_document_s", "s", "lower"),
    ("reports.write_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{sub}_s", "s", "lower") for sub in SUBCOMMANDS),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Median span duration (per call) behind each metric that is one span name.
SPAN_METRICS = {
    "curvature.scan_s": "curvature.scan",
    "conformal.transform_s": "conformal.conformal_transform",
    "conformal.scalar_residual_s": "conformal.conformal_scalar_residual",
    "conformal.compactification_s": "conformal.compactification_check",
    "conformal.flatness_s": "conformal.flatness_check",
    "gluing.glue_s": "gluing.glue_neck",
    "gluing.double_s": "gluing.double",
    "gluing.match_s": "gluing.match_report",
    "gluing.psi_bound_s": "gluing.psi_bound_check",
    "gluing.harmonicity_s": "gluing.psi_harmonicity_max",
    "geodesics.search_s": "geodesics.photon_sphere_search",
    "geodesics.trapping_s": "geodesics.trapping_report",
    "reports.json_document_s": "reports.json_document",
    "reports.write_s": "reports.write_json",
    "cli.interpreter_s": "cli.interpreter",
    "cli.import_s": "cli.import",
    **{f"cli.{sub}_s": f"cli.{sub}" for sub in SUBCOMMANDS},
}
MICRO_METRICS = {  # per-call microseconds of a span timing a loop
    "radial.eval_plain_us": "radial.eval[plain]",
    "radial.eval_rescaled_us": "radial.eval[rescaled]",
    "curvature.curvature_at_plain_us": "curvature.curvature_at[plain]",
    "curvature.curvature_at_rescaled_us": "curvature.curvature_at[rescaled]",
    "curvature.fd_oracle_us": "curvature.fd_curvature_oracle",
    "audit.audit_sphere_us": "audit.audit_sphere",
}


class ReplayMismatch(AssertionError):
    """The stage replay disagrees with the pipeline's own report."""


# ---------------------------------------------------------------------------
# Stage replay
# ---------------------------------------------------------------------------


def replay_pipeline(pl, exterior, tr, n_samples: int = 512) -> dict:
    """run_rigidity_pipeline's stages, in its order, one span each.

    Returns the certificates keyed by the PipelineReport field they fill.
    """
    r0 = float(exterior.r_lo)
    with tr.span("gluing.glue_neck"):
        glued = pl.glue_neck(exterior, r0)
    with tr.span("audit.audit_sphere"):
        audit = pl.audit_sphere(exterior, r0)
    with tr.span("gluing.double"):
        doubled = pl.double(glued)
    matches = []
    for g in doubled.gluings:
        with tr.span("gluing.match_report"):
            matches.append(pl.match_report(doubled, g.surface_id))
    with tr.span("gluing.psi_bound_check"):
        bound = pl.psi_bound_check(doubled)
    with tr.span("gluing.psi_harmonicity_max"):
        harmonicity = pl.psi_harmonicity_max(doubled)
    with tr.span("conformal.conformal_transform"):
        conformal = pl.conformal_transform(doubled)
    with tr.span("conformal.conformal_scalar_residual"):
        scalar = pl.conformal_scalar_residual(conformal, n_samples=n_samples)
    schedule = tuple(50.0 * float(audit.mass_i) * 2.0 ** k for k in range(4))
    ends = {doubled.chart(e).orientation: e for e in doubled.ends}
    with tr.span("conformal.adm_mass_estimate"):
        adm_ext = pl.adm_mass_estimate(doubled, ends["outward"], schedule)
    with tr.span("conformal.adm_mass_estimate"):
        adm_conf = pl.adm_mass_estimate(conformal, ends["reflected"], schedule)
    with tr.span("conformal.compactification_check"):
        compact = pl.compactification_check(conformal)
    with tr.span("conformal.flatness_check"):
        flat = pl.flatness_check(conformal, n_samples=n_samples)
    per_chart = scalar["n_samples"] // len(conformal.charts)
    plain = sum(
        1 for c in conformal.charts
        if c.base.role != "neck" and c.base.orientation == "outward"
    )
    return {
        "boundary_audit": audit,
        "match_reports": tuple(matches),
        "psi_bound": bound,
        "psi_harmonicity": float(harmonicity),
        "conformal_scalar_max": float(scalar["max_abs_scalar"]),
        "conformal_scalar_argmax": tuple(scalar["argmax"]),
        "adm_exterior": adm_ext,
        "adm_conformal_end": adm_conf,
        "compactification": compact,
        "flatness_max_curvature": float(flat["max_curvature"]),
        "reconstructed_mass": float(doubled.chart("neck").profile.mass),
        "n_samples": int(scalar["n_samples"]),
        # scalar oracle calls: one per plain sample, two per Richardson sample
        "_oracle_calls": per_chart * (2 * len(conformal.charts) - plain),
    }


def same(a, b) -> bool:
    """Exact structural equality that treats NaN as equal to NaN."""
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def check_replay(report, replayed: dict) -> None:
    differing = [k for k, v in replayed.items()
                 if not k.startswith("_") and not same(getattr(report, k), v)]
    if differing:
        raise ReplayMismatch(f"replayed certificates differ from the report: {differing}")


# ---------------------------------------------------------------------------
# Traced operations and probes
# ---------------------------------------------------------------------------


class LayerRun:
    """Traced operations plus the probes that fill in the other layers."""

    def __init__(self, tracer, seed: int, run_op):
        self.tr = tracer
        self.seed = seed
        self.run_op = run_op  # (workload, input, tracer, after) -> result
        self.evals_per_op = math.nan
        self.fd_samples: set[int] = set()
        self.oracle_calls: set[int] = set()
        self.steps: list[int] = []
        self.report = None

    def after_op(self, wl, inp, res) -> None:
        """Replay what a traced operation did, in spans beside it."""
        if isinstance(wl, Rigidity):
            with self.tr.span("replay.pipeline"):
                certs = replay_pipeline(wl.pl, wl.exterior(inp), self.tr)
            check_replay(res.report, certs)
            self.fd_samples.add(certs["n_samples"])
            self.oracle_calls.add(certs["_oracle_calls"])
            self.report = res.report
        elif isinstance(wl, Survey):
            for t in res.traps.values():
                with self.tr.span("replay.integrate_null_geodesic"):
                    y0 = wl.pl.tangential_launch(res.vacuum, t.r0)
                    g = wl.pl.integrate_null_geodesic(res.vacuum, y0, t.affine_window)
                if g.termination != t.termination:
                    raise ReplayMismatch(
                        f"geodesic replay ends {g.termination}, report {t.termination}"
                    )
                self.steps.append(len(g.states) - 1)

    def probes(self, main, first_op: int) -> None:
        """Cover every layer the traced workload does not reach.

        Probe operations are numbered on from ``first_op``; the micro
        timings after them belong to no operation.
        """
        tr = self.tr
        workloads = {type(main): main}
        for cls, n_ops in ((Rigidity, 3), (Survey, 3), (CliCold, len(SUBCOMMANDS))):
            own = cls in workloads
            # a short traced cli_cold run may not have reached every subcommand
            if own and cls is not CliCold:
                continue
            if not own:
                workloads[cls] = cls()
                workloads[cls].setup(self.seed)
            wl = workloads[cls]
            try:
                for inp in wl.inputs[:n_ops]:
                    if own and tr.durations(f"cli.{inp.sub}"):
                        continue
                    tr.op, first_op = first_op, first_op + 1
                    self.run_op(wl, inp, tr, self.after_op)
            finally:
                if not own:
                    wl.close()
        tr.op = None
        rigidity = workloads[Rigidity]
        self._micro(rigidity)
        self._count_evals(rigidity)
        self._reports()
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import photonlab")):
            for _ in range(CLI_REPEATS):
                with tr.span(name):
                    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                   check=True, timeout=CHILD_TIMEOUT)

    def _micro(self, rigidity) -> None:
        """Per-call timings of profile evaluation, curvature_at and the oracle."""
        import numpy as np

        pl, tr = rigidity.pl, self.tr
        ext = rigidity.exterior(1.0)
        conformal = pl.conformal_transform(pl.double(pl.glue_neck(ext, ext.r_lo)))
        hat = conformal.chart("exterior").hat
        radii = [float(r) for r in np.geomspace(3.1, 95.0, 200)]

        def evaluate(p, r):
            for f in (p.N, p.A, p.Rareal):
                f(r), f(r, 1), f(r, 2)

        for _ in range(MICRO_REPEATS):
            for label, prof in (("plain", ext), ("rescaled", hat)):
                with tr.span(f"radial.eval[{label}]", count=len(radii)):
                    for r in radii:
                        evaluate(prof, r)
                with tr.span(f"curvature.curvature_at[{label}]", count=len(radii)):
                    for r in radii:
                        pl.curvature_at(prof, r)
            with tr.span("curvature.fd_curvature_oracle", count=len(radii) // 4):
                for r in radii[::4]:
                    pl.fd_curvature_oracle(ext, r)

    def _count_evals(self, rigidity) -> None:
        """Calls into the input profile's N, A and Rareal during one operation."""
        pl = rigidity.pl
        calls = [0]

        def counting(fn):
            def at(nu):
                def call(r):
                    calls[0] += 1
                    return fn(r, nu)
                return call
            return pl.RadialFunction(at(0), at(1), at(2))

        ext = rigidity.exterior(1.0)
        counted = dataclasses.replace(
            ext, N=counting(ext.N), A=counting(ext.A), Rareal=counting(ext.Rareal)
        )
        pl.reconstruct_schwarzschild(pl.run_rigidity_pipeline(counted))
        self.evals_per_op = calls[0]

    def _reports(self) -> None:
        from photonlab.reports import json_document, write_json

        path = OUT / "report-probe.json"
        for _ in range(MICRO_REPEATS):
            with self.tr.span("reports.json_document"):
                json_document(self.report)
            with self.tr.span("reports.write_json"):
                write_json(path, self.report)
        path.unlink(missing_ok=True)

    # -- metrics -------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        tr = self.tr
        out = {name: statistics.median(tr.durations(span))
               for name, span in SPAN_METRICS.items()}
        for name, span in MICRO_METRICS.items():
            out[name] = 1e6 * tr.per_call(span)
        stage_sums, selfs, adms = [], [], []
        for rep in (s for s in tr.spans if s["name"] == "replay.pipeline"):
            stages = tr.children(rep["id"])
            stage_sum = sum(c["end"] - c["start"] for c in stages)
            whole = next(s["end"] - s["start"] for s in tr.spans
                         if s["op"] == rep["op"] and s["name"] == "pipeline.run_rigidity_pipeline")
            stage_sums.append(stage_sum)
            selfs.append(whole - stage_sum)
            # both ADM estimates of one operation
            adms.append(sum(c["end"] - c["start"] for c in stages
                            if c["name"] == "conformal.adm_mass_estimate"))
        out["pipeline.stage_sum_s"] = statistics.median(stage_sums)
        out["pipeline.self_s"] = statistics.median(selfs)
        out["conformal.adm_s"] = statistics.median(adms)
        out["radial.evals_per_op"] = float(self.evals_per_op)
        out["conformal.fd_samples"] = float(max(self.fd_samples))
        out["geodesics.steps_per_trap"] = float(statistics.median(self.steps))
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _, _ in PER_LAYER}
