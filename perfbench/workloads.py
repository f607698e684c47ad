"""Inputs, operations and known-answer checks of the three workloads.

Every operation goes through photonlab's public API, or for ``cli_cold``
through ``python -m photonlab.cli`` in a child process, and every result is
checked against an answer known independently of the code under test:
Schwarzschild of mass m is static vacuum, its photon sphere sits at r = 3m,
and the rigidity run must hand back (m, 3m, 1/(sqrt(3) m)).

Inputs come from ``random.Random(seed)`` only, so one seed gives the same
inputs on every machine and numpy version.  Each workload draws a small
cycle of inputs at set-up and runs through it again and again, so that
every input is timed several times in one run (see ``run.op_best``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MASS_RANGE = (0.5, 2.0)
# The ROADMAP's end-to-end masses lead the rigidity cycle, so each run
# covers both ends of the envelope.
ROADMAP_MASSES = (0.5, 1.0, 2.0)
# Inputs per cycle.  A run repeats its cycle, and each input has to come
# round often enough in one run to meet the host at full speed several
# times: in a 45 s run at least 9 times on rigidity (0.7-1.4 s an
# operation), 20 on survey and 7 on cli_cold.
RIGIDITY_CYCLE = 4
SURVEY_CYCLE = 6  # two of each kind; one star enclosed, one bare
SCAN_N = 512
TABLE_NODES = 400
CHILD_TIMEOUT = 120.0

# Known-answer tolerances, each on a dimensionless quantity: lengths over m,
# curvatures times m^2.  Closed-form tolerances are the library's and the
# CLI's defaults.  Tabulated ones sit about twice above the interpolation
# error of a 400-node geometric table on [2.1m, 100m] (root 2.65e-7,
# audit 7.0e-7, residual scan 1.46e-2, all independent of m), so a root
# moved by 1e-6 fails.
SCAN_TOL = {"closed": 1e-12, "tabulated": 3e-2, "star": 1e-12}
ROOT_TOL = {"closed": 1e-10, "tabulated": 5e-7, "star": 1e-10}
AUDIT_TOL = {"closed": 1e-10, "tabulated": 2e-6, "star": 1e-10}
STAR_AUDIT_TOL = 1e-10  # `photonlab star` accepts a light ring below this
# The pipeline's bounds and the CLI's default tolerances as the library
# sets them, fixed here so that loosening one in the library cannot pass.
FLAT_TOL = 1e-6
MATCH_TOL = 1e-8
MASS_TOL = 1e-3
SCALAR_TOL = 1e-8  # conformal scalar-flatness bound
CLI_TOL = {"verify": 1e-12, "photon-search": 1e-10, "audit": 1e-10,
           "glue": MATCH_TOL, "pipeline": MATCH_TOL, "star": 1e-10}
RECON_TOL = 1e-10  # reconstruction, relative to m
DOMAIN_EXITS = ("domain_exit_inner", "domain_exit_outer")


def child_env() -> dict:
    """Environment of child interpreters: this tree's ``src`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def star_radius(rng: random.Random, m: float, enclosed: bool) -> float:
    """Surface radius of a constant-density star, above Buchdahl's 2.25m.

    Enclosed bodies lie inside their own photon sphere, bare ones outside
    it.  The band (2.9m, 3.1m) is left out: there the 1%-inside launch
    would start inside the body.
    """
    return m * (rng.uniform(2.25, 2.9) if enclosed else rng.uniform(3.1, 3.5))


def digest(params: list, arrays=()) -> str:
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Check:
    """One operation's checks: what failed and the worst margin.

    A margin is a checked quantity over its tolerance; above 1 fails, and
    NaN fails too.  ``notes`` counts observations that are reported but do
    not fail the operation.
    """

    def __init__(self):
        self.errors: list[str] = []
        self.margin = 0.0
        self.notes: list[str] = []

    def within(self, what: str, value, tol: float) -> None:
        ratio = abs(float(value)) / tol
        if not ratio <= 1.0:
            self.errors.append(f"{what} = {float(value):.3e} exceeds {tol:.1e}")
        if math.isfinite(ratio):
            self.margin = max(self.margin, ratio)

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.errors.append(what)


class Tally:
    """Operations attempted and failed, the worst margin, and notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_margin = 0.0
        self.errors: list[str] = []
        self.notes: dict[str, int] = {}

    def record(self, workload, inp, result, exc: BaseException | None) -> bool:
        self.attempted += 1
        if exc is None:
            try:
                chk = workload.check(inp, result)
            except Exception as check_exc:  # a malformed result fails the op
                chk = Check()
                chk.errors.append(f"check raised {check_exc!r}")
        else:
            chk = Check()
            chk.errors.append(f"operation raised {exc!r}")
        for note in chk.notes:
            self.notes[note] = self.notes.get(note, 0) + 1
        self.worst_margin = max(self.worst_margin, chk.margin)
        if chk.errors:
            self.failed += 1
            if len(self.errors) < 8:
                self.errors.append(f"{workload.describe(inp)}: {'; '.join(chk.errors)}")
        return not chk.errors


def _all_finite(obj) -> bool:
    if dataclasses.is_dataclass(obj):
        return all(_all_finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def audit_residual(rep, m: float) -> float:
    """The four photon-sphere identity residuals made dimensionless."""
    return max(
        abs(rep.res_umbilic) * m,
        abs(rep.res_NH) * m,
        abs(rep.res_rH),
        abs(rep.res_sigmaR) * m * m,
    )


class Workload:
    """Defaults: any passing result can seed the checker controls, and
    nothing needs closing."""

    def suits_controls(self, inp) -> bool:
        return True

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityResult:
    report: object
    reconstruction: tuple


class Rigidity(Workload):
    """run_rigidity_pipeline on a Schwarzschild exterior bounded at 3m."""

    name = "rigidity"

    def setup(self, seed: int) -> None:
        import photonlab

        self.pl = photonlab
        rng = random.Random(seed)
        self.inputs = list(ROADMAP_MASSES) + [
            log_uniform(rng, *MASS_RANGE)
            for _ in range(RIGIDITY_CYCLE - len(ROADMAP_MASSES))
        ]
        self.digest = digest(self.inputs)

    def describe(self, m) -> str:
        return f"rigidity m={m!r}"

    def exterior(self, m: float):
        return self.pl.make_schwarzschild_family(m, 3.0 * m, 100.0 * m)

    def op(self, m: float, tr) -> RigidityResult:
        pl = self.pl
        with tr.span("radial.make_schwarzschild_family"):
            ext = self.exterior(m)
        with tr.span("pipeline.run_rigidity_pipeline"):
            rep = pl.run_rigidity_pipeline(ext)
        with tr.span("pipeline.reconstruct_schwarzschild"):
            rec = pl.reconstruct_schwarzschild(rep)
        return RigidityResult(rep, rec)

    def check(self, m: float, res: RigidityResult) -> Check:
        rep, c = res.report, Check()
        c.expect(f"verdict {rep.verdict!r}", rep.verdict == "schwarzschild_rigid")
        c.expect(f"n_samples {rep.n_samples}", rep.n_samples == 512)
        c.expect("every certificate finite", _all_finite(rep))
        c.expect("|psi| < 1", rep.psi_bound.strict_bound)
        c.expect("compactification converged", rep.compactification.converged)
        c.within("flatness", rep.flatness_max_curvature, FLAT_TOL)
        c.within("match jump", rep.max_match_jump, MATCH_TOL)
        c.within("conformal scalar", rep.conformal_scalar_max, SCALAR_TOL)
        c.within("psi harmonicity * m^2", rep.psi_harmonicity * m * m, SCALAR_TOL)
        c.within("ADM mass error / m", rep.adm_exterior["mass"] / m - 1.0, MASS_TOL)
        c.within("conformal-end mass / m", rep.adm_conformal_end["mass"] / m, MASS_TOL)
        c.within("compactification mass gap / m", rep.compactification.mass_gap / m, MASS_TOL)
        c.within("boundary audit", audit_residual(rep.boundary_audit, m), AUDIT_TOL["closed"])
        mass, r_ps, h = res.reconstruction
        audit = rep.boundary_audit
        gap = max(
            abs(mass - audit.mass_i),
            abs(mass - audit.mass_from_H),
            abs(r_ps - audit.area_radius),
            abs(h - audit.spacetime_H),
        )
        c.within("reconstruction gap / m", gap / m, RECON_TOL)
        c.within("reconstructed mass / m", mass / m - 1.0, RECON_TOL)
        c.within("reconstructed photon sphere / 3m", r_ps / (3.0 * m) - 1.0, RECON_TOL)
        c.within("reconstructed H * sqrt(3) m", h * math.sqrt(3.0) * m - 1.0, RECON_TOL)
        return c

    def controls(self, m, res):
        flipped = replace(res.report, verdict="not_rigid")
        return [("flipped verdict", m, replace(res, report=flipped))]


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyInput:
    kind: str  # "closed" | "tabulated" | "star"
    m: float
    r_b: float | None
    profile: object  # RadialProfile, or CompositeProfile for stars


@dataclass(frozen=True)
class SurveyResult:
    scan_max: float
    roots: list
    audits: list
    rings: list
    ring_audits: list
    traps: dict  # "on" | "outside" | "inside" -> TrappingReport
    vacuum: object  # the piece the roots and launches live on


def residual_scan(pl, profile) -> float:
    """Largest static-vacuum residual of curvature_at at SCAN_N radii.

    The radii are those of ``photonlab verify``: the open interior window,
    inset by 1e-9 of the span at non-degenerate ends.
    """
    import numpy as np

    lo, hi = profile.interior_window(pad=1e-6)
    span = hi - lo
    if lo == profile.r_lo:
        lo += 1e-9 * span
    if hi == profile.r_hi:
        hi -= 1e-9 * span
    return max(
        pl.curvature_at(profile, float(r)).max_vacuum_residual()
        for r in np.linspace(lo, hi, SCAN_N)
    )


class Survey(Workload):
    """The library work behind verify, photon-search, audit and star."""

    name = "survey"
    KINDS = ("closed", "tabulated", "star")
    LAUNCHES = (("on", 1.0), ("outside", 1.01), ("inside", 0.99))

    def setup(self, seed: int) -> None:
        import numpy as np

        import photonlab

        self.pl = photonlab
        rng = random.Random(seed)
        self.inputs, params, arrays = [], [], []
        for i in range(SURVEY_CYCLE):
            kind = self.KINDS[i % 3]
            m = log_uniform(rng, *MASS_RANGE)
            r_b = None
            if kind == "closed":
                prof = photonlab.make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
            elif kind == "tabulated":
                exact = photonlab.make_schwarzschild_family(m, 2.1 * m, 100.0 * m)
                r = np.geomspace(2.1 * m, 100.0 * m, TABLE_NODES)
                cols = (exact.N(r), exact.A(r), exact.Rareal(r))
                prof = photonlab.make_tabulated(r, *cols)
                arrays.extend((r, *cols))
            else:
                r_b = star_radius(rng, m, enclosed=(i // 3) % 2 == 0)
                prof = photonlab.make_composite_star(m, r_b)
            self.inputs.append(SurveyInput(kind, m, r_b, prof))
            params.append([kind, m, r_b])
        self.digest = digest(params, arrays)

    def describe(self, inp: SurveyInput) -> str:
        rb = "" if inp.r_b is None else f" r_b={inp.r_b!r}"
        return f"survey {inp.kind} m={inp.m!r}{rb}"

    def suits_controls(self, inp: SurveyInput) -> bool:
        # tabulated roots carry the tightest tolerance relative to their error
        return inp.kind == "tabulated"

    def op(self, inp: SurveyInput, tr) -> SurveyResult:
        pl = self.pl
        star = inp.kind == "star"
        vacuum = inp.profile.vacuum_piece() if star else inp.profile
        with tr.span("curvature.scan", count=SCAN_N):
            scan = residual_scan(pl, vacuum)
        with tr.span("geodesics.photon_sphere_search"):
            roots = pl.photon_sphere_search(vacuum)
        audits = []
        for r in roots:
            with tr.span("audit.audit_sphere"):
                audits.append(pl.audit_sphere(vacuum, r))
        rings, ring_audits = [], []
        if star:
            interior = inp.profile.pieces[0]
            with tr.span("geodesics.photon_sphere_search"):
                rings = pl.photon_sphere_search(interior)
            for r in rings:
                with tr.span("audit.audit_sphere"):
                    ring_audits.append(pl.audit_sphere(interior, r))
        traps = {}
        if roots:
            for label, f in self.LAUNCHES:
                with tr.span("geodesics.trapping_report"):
                    traps[label] = pl.trapping_report(vacuum, roots[-1] * f)
        return SurveyResult(scan, roots, audits, rings, ring_audits, traps, vacuum)

    def check(self, inp: SurveyInput, res: SurveyResult) -> Check:
        c, k, m = Check(), inp.kind, inp.m
        c.within("vacuum residual scan * m^2", res.scan_max * m * m, SCAN_TOL[k])
        has_sphere = k != "star" or inp.r_b < 3.0 * m
        c.expect(
            f"{len(res.roots)} photon spheres, expected {int(has_sphere)}",
            len(res.roots) == int(has_sphere),
        )
        for r in res.roots:
            c.within("root error / 3m", r / (3.0 * m) - 1.0, ROOT_TOL[k])
        for a in res.audits:
            c.within("audit residual", audit_residual(a, m), AUDIT_TOL[k])
            c.expect("audit H > 0", a.H_positive)
        if res.roots:
            c.expect(f"launches {sorted(res.traps)}", len(res.traps) == 3)
        for label, t in res.traps.items():
            c.expect(f"{label} launch null constraint finite", math.isfinite(t.max_constraint))
        if "on" in res.traps:
            on = res.traps["on"]
            c.expect(
                f"on-sphere launch {on.verdict}/{on.termination}",
                on.verdict != "fell_in" and on.termination not in DOMAIN_EXITS,
            )
            if on.verdict != "trapped":
                c.notes.append(f"on_sphere_not_trapped[{k}]")
        if "outside" in res.traps:
            c.expect(
                f"outside launch {res.traps['outside'].verdict}",
                res.traps["outside"].verdict == "escaped",
            )
        if "inside" in res.traps:
            c.expect(
                f"inside launch {res.traps['inside'].verdict}",
                res.traps["inside"].verdict == "fell_in",
            )
        if k == "star":
            # Light rings inside the fluid are not photon spheres of a vacuum
            # region: the audit must reject every one (`photonlab star`).
            c.expect(f"{len(res.rings)} interior light rings, expected "
                     f"{'some' if has_sphere else 'none'}", bool(res.rings) == has_sphere)
            for a in res.ring_audits:
                accepted = a.max_residual() <= STAR_AUDIT_TOL and a.H_positive
                c.expect("interior light ring rejected by the audit", not accepted)
        return c

    def controls(self, inp: SurveyInput, res: SurveyResult):
        moved = replace(res, roots=[res.roots[0] * (1.0 + 1e-6)])
        relabelled = dict(res.traps)
        relabelled["outside"] = replace(res.traps["outside"], verdict="trapped")
        return [
            ("root moved by 1e-6", inp, moved),
            ("off-sphere launch labelled trapped", inp, replace(res, traps=relabelled)),
        ]


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("verify", "photon-search", "audit", "glue", "pipeline", "star")
PIPELINE_MASS = ROADMAP_MASSES[0]


@dataclass(frozen=True)
class CliInput:
    sub: str
    m: float
    r_b: float | None


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    doc: dict | None  # the --out report, parsed


class CliCold(Workload):
    """One `photonlab <sub> --mass m --out <dir>/<sub>.json` child process."""

    name = "cli_cold"

    def setup(self, seed: int) -> None:
        # One call of each subcommand at its own seeded mass, and `star`
        # twice, enclosed and bare.  `pipeline` always runs at the envelope's
        # low edge, m = 0.5, where its conformal scalar margin is largest, so
        # worst_margin reads the same worst case in every run.
        rng = random.Random(seed)
        self.inputs = []
        for sub in SUBCOMMANDS:
            m = PIPELINE_MASS if sub == "pipeline" else log_uniform(rng, *MASS_RANGE)
            self.inputs.append(CliInput(sub, m, star_radius(rng, m, True)
                                        if sub == "star" else None))
        m = log_uniform(rng, *MASS_RANGE)
        self.inputs.append(CliInput("star", m, star_radius(rng, m, False)))
        self.digest = digest([dataclasses.astuple(x) for x in self.inputs])
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def describe(self, inp: CliInput) -> str:
        return f"cli {inp.sub} m={inp.m!r}"

    def op(self, inp: CliInput, tr) -> CliResult:
        out = self.workdir / f"{inp.sub}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "photonlab.cli", inp.sub,
               "--mass", repr(inp.m), "--out", str(out)]
        if inp.r_b is not None:
            cmd += ["--r-b", repr(inp.r_b)]
        with tr.span(f"cli.{inp.sub}"):
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        return CliResult(proc.returncode, proc.stdout, doc)

    def check(self, inp: CliInput, res: CliResult) -> Check:
        c, m, doc = Check(), inp.m, res.doc
        c.expect(f"exit code {res.returncode}", res.returncode == 0)
        if doc is None:
            c.expect("report file written", False)
            return c
        tol = CLI_TOL[inp.sub]
        c.expect(f"tolerance {doc['config']['tol']!r}", doc["config"]["tol"] == tol)
        if inp.sub == "photon-search":
            c.expect("stdout lists the radii",
                     res.stdout.split() == [f"{r:.10f}" for r in doc["radii"]])
            c.expect(f"radii {doc['radii']}", len(doc["radii"]) == 1)
            for r in doc["radii"]:
                c.within("root error / 3m", r / (3.0 * m) - 1.0, tol)
            return c
        c.expect("stdout equals the report file", json.loads(res.stdout) == doc)
        if inp.sub in ("verify", "audit", "glue"):
            c.expect("report passes", doc["pass"] is True)
        if inp.sub in ("verify", "audit"):
            c.within("max_residual", doc["max_residual"], tol)
        elif inp.sub == "glue":
            c.within("max_jump", doc["max_jump"], tol)
        elif inp.sub == "pipeline":
            rep = doc["report"]
            c.expect(f"verdict {rep['verdict']!r}", rep["verdict"] == "schwarzschild_rigid")
            c.expect(f"n_samples {rep['n_samples']}", rep["n_samples"] == 512)
            c.within("flatness", rep["flatness_max_curvature"], FLAT_TOL)
            c.within("conformal scalar", rep["conformal_scalar_max"], SCALAR_TOL)
            for mr in rep["match_reports"]:
                for jump in mr["jumps"].values():
                    c.within("match jump", jump, tol)
            c.within("reconstructed mass / m", rep["reconstructed_mass"] / m - 1.0, RECON_TOL)
        elif inp.sub == "star":
            enclosed = inp.r_b < 3.0 * m
            radii = doc["photon_sphere_radii"]
            c.expect(f"photon spheres {radii}", len(radii) == int(enclosed))
            for r in radii:
                c.within("root error / 3m", r / (3.0 * m) - 1.0, ROOT_TOL["star"])
            c.expect("hypothesis_met", doc["hypothesis_met"] is enclosed)
            c.expect("interior light ring rejected",
                     bool(doc["rejected_light_rings"]) == enclosed)
        return c

    def controls(self, inp, res):
        return [("CLI exit code 1", inp, replace(res, returncode=1))]


WORKLOADS = {"rigidity": Rigidity, "survey": Survey, "cli_cold": CliCold}
