"""Command-line interface: subcommands, exit codes, config resolution,
report files, and byte-level determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import photonlab
from photonlab.cli import (
    EXIT_BUCHDAHL,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VERIFICATION,
    main,
)
from photonlab.radial import dump_profile, make_schwarzschild_family, make_tabulated


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _noisy_profile_document(tmp_path, amplitude=1e-6):
    src = make_schwarzschild_family(1.0, 3.0, 100.0)
    r = np.linspace(3.0, 100.0, 800)
    rng = np.random.default_rng(7)
    noisy_N = np.asarray(src.N(r), dtype=float) * (
        1.0 + amplitude * rng.standard_normal(r.size)
    )
    tab = make_tabulated(
        r,
        noisy_N,
        np.asarray(src.A(r), dtype=float),
        np.asarray(src.Rareal(r), dtype=float),
    )
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(dump_profile(tab)), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_schwarzschild_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--mass", "1.0", "--samples", "64")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_residual"] <= 1e-12
    assert doc["config"]["command"] == "verify"
    assert doc["config"]["mass"] == 1.0


@pytest.mark.parametrize(
    "mass, max_residual, r",
    [
        ("0.5", 2.220446049250313e-16, 1.5000000485),
        ("1", 5.551115123125783e-17, 3.000000097),
        ("2", 1.3877787807814457e-17, 6.000000194),
    ],
)
def test_verify_max_residual_and_worst_sample_are_pinned(capsys, mass, max_residual, r):
    code, out, _ = _run(capsys, "verify", "--mass", mass)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert repr(doc["max_residual"]) == repr(max_residual)
    assert doc["worst_sample"] == {"field": "scalar_residual", "r": r, "value": max_residual}
    assert repr(doc["worst_sample"]["r"]) == repr(r)


def test_verify_noisy_profile_fails_and_names_worst_sample(capsys, tmp_path):
    path = _noisy_profile_document(tmp_path)
    code, out, _ = _run(capsys, "verify", "--metric", path, "--samples", "64")
    assert code == EXIT_VERIFICATION
    doc = json.loads(out)
    assert doc["pass"] is False
    worst = doc["worst_sample"]
    assert worst["field"] in {
        "vac_residual_nn",
        "vac_residual_tt",
        "scalar_residual",
        "lap_residual",
    }
    assert worst["value"] > 1e-12
    assert 3.0 <= worst["r"] <= 100.0


def test_verify_empty_domain_is_config_error(capsys):
    code, _, err = _run(capsys, "verify", "--r-min", "5.0", "--r-max", "4.0")
    assert code == EXIT_CONFIG
    assert "empty domain" in err


def test_verify_writes_json_and_csv(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = _run(
        capsys, "verify", "--samples", "32", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert json.loads(out_path.read_text()) == json.loads(out)
    csv_bytes = (tmp_path / "verify.csv").read_bytes()
    assert csv_bytes.startswith(
        b"r,vac_residual_nn,vac_residual_tt,scalar_residual,lap_residual,max_residual\r\n"
    )


# ---------------------------------------------------------------------------
# photon-search
# ---------------------------------------------------------------------------


def test_photon_search_prints_radius(capsys):
    code, out, _ = _run(capsys, "photon-search", "--mass", "1.0")
    assert code == EXIT_OK
    assert out.splitlines() == ["3.0000000000"]


def test_photon_search_scales_with_mass(capsys):
    code, out, _ = _run(capsys, "photon-search", "--mass", "2.0")
    assert code == EXIT_OK
    assert out.splitlines() == ["6.0000000000"]


@pytest.mark.parametrize("mass", ["0.0", "-1.0"])
def test_photon_search_empty_for_nonpositive_mass(capsys, mass):
    code, out, _ = _run(capsys, "photon-search", "--mass", mass)
    assert code == EXIT_OK
    assert out == ""


# ---------------------------------------------------------------------------
# audit and glue
# ---------------------------------------------------------------------------


def test_audit_passes_at_photon_sphere(capsys):
    code, out, _ = _run(capsys, "audit", "--mass", "1.0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_residual"] <= 1e-10
    assert doc["audit"]["area_radius"] == 3.0


def _run_subprocess(*argv):
    """The CLI in a child interpreter with every warning an error."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(photonlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "photonlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _constant_area_document(tmp_path, a):
    """A table on six nodes of [3, 8] with the exact m = 1 lapse and area
    radius and the radial factor A = ``a`` at every node."""
    r = np.linspace(3.0, 8.0, 6)
    doc = {"kind": "tabulated", "r": r.tolist(), "N": np.sqrt(1.0 - 2.0 / r).tolist(),
           "A": [a] * 6, "Rareal": r.tolist()}
    path = tmp_path / "constant_area.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_audit_of_a_tiny_radial_factor_reports_an_infinite_residual(tmp_path):
    # A = 1e-300 makes (area_radius H)^2 overflow; the float power raised
    # OverflowError, a traceback under the "verification failed" exit code
    code, out, err = _run_subprocess(
        "audit", "--metric", _constant_area_document(tmp_path, 1e-300)
    )
    assert (code, err) == (EXIT_VERIFICATION, "")
    doc = json.loads(out)
    assert doc["audit"]["res_rH"] == doc["max_residual"] == "Infinity"
    assert doc["pass"] is False


def test_audit_of_a_subnormal_radial_factor_is_refused(tmp_path):
    # A = 5e-324 makes k infinite; inf - inf and nu(N)'s overflow warned,
    # and under -W error the warnings became a traceback
    code, out, err = _run_subprocess(
        "audit", "--metric", _constant_area_document(tmp_path, 5e-324)
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: audit_sphere: the shape operator k")
    assert "Traceback" not in err


@pytest.mark.parametrize("a", [1e-300, 5e-324])
@pytest.mark.parametrize(
    ("command", "entry"),
    [("verify", "curvature_at"), ("photon-search", "fermat_geodesy_residual")],
)
def test_scans_of_an_underflowing_radial_factor_are_refused(tmp_path, a, command, entry):
    # A*A underflows to 0: numpy's division and overflow warnings became a
    # traceback under -W error (exit 1, "verification failed")
    code, out, err = _run_subprocess(
        command, "--metric", _constant_area_document(tmp_path, a)
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(
        f"config error: {entry}: the radial factor A underflows at r = 3."
    )
    assert f"A = {a!r}" in err and "Traceback" not in err


def test_glue_emits_match_table(capsys, tmp_path):
    out_path = tmp_path / "glue.json"
    code, out, _ = _run(capsys, "glue", "--mass", "1.0", "--out", str(out_path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_jump"] <= 1e-10
    assert [c["chart_id"] for c in doc["charts"]] == ["neck", "exterior"]
    csv_text = (tmp_path / "glue.csv").read_bytes().decode()
    lines = csv_text.split("\r\n")
    assert lines[0] == "surface_id,field,left,right,jump"
    assert len(lines) == 1 + 7 + 1  # header + seven fields + trailing newline


def test_glue_refuses_bad_boundary(capsys):
    code, _, err = _run(capsys, "glue", "--mass", "1.0", "--r-min", "2.9")
    assert code == EXIT_REFUSED
    assert "res_rH" in err


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_rigid_run(capsys):
    code, out, _ = _run(capsys, "pipeline", "--mass", "1.0", "--samples", "128")
    assert code == EXIT_OK
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["verdict"] == "schwarzschild_rigid"
    assert rep["reconstructed_mass"] == 1.0
    assert rep["flatness_max_curvature"] <= 1e-6


def test_pipeline_refuses_bad_boundary(capsys):
    code, _, err = _run(capsys, "pipeline", "--mass", "1.0", "--r-min", "2.9")
    assert code == EXIT_REFUSED
    assert "refused" in err


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_default_is_enclosed(capsys):
    code, out, _ = _run(capsys, "star", "--mass", "1.0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["buchdahl_ratio"] == 0.8
    assert len(doc["photon_sphere_radii"]) == 1
    assert abs(doc["photon_sphere_radii"][0] - 3.0) <= 1e-9
    assert doc["hypothesis_met"] is True
    assert "no further body" in doc["verdict"]
    # the interior flat-light ring shows up and is rejected by the audit
    assert doc["rejected_light_rings"]
    reject = doc["rejected_light_rings"][0]
    assert reject["radius"] < 2.5
    assert reject["failing"] in {"res_umbilic", "res_NH", "res_rH", "res_sigmaR"}


def test_star_beyond_buchdahl_is_refused(capsys):
    code, _, err = _run(capsys, "star", "--mass", "1.0", "--r-b", "2.2")
    assert code == EXIT_BUCHDAHL
    assert "compactness" in err


def test_star_outside_own_photon_sphere(capsys):
    code, out, _ = _run(capsys, "star", "--mass", "1.0", "--r-b", "3.5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["hypothesis_met"] is False
    assert "does not apply" in doc["verdict"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_file_supplies_values(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass": 2.0}), encoding="utf-8")
    code, out, _ = _run(capsys, "photon-search", "--config", str(cfg))
    assert code == EXIT_OK
    assert out.splitlines() == ["6.0000000000"]


def test_explicit_flag_wins_over_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass": 2.0}), encoding="utf-8")
    code, out, _ = _run(
        capsys, "photon-search", "--config", str(cfg), "--mass", "1.0"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["3.0000000000"]


def test_config_accepts_hyphenated_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r-min": 2.5, "r-max": 50.0}), encoding="utf-8")
    code, out, _ = _run(capsys, "photon-search", "--config", str(cfg))
    assert code == EXIT_OK
    assert out.splitlines() == ["3.0000000000"]


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"masss": 2.0}), encoding="utf-8")
    code, _, err = _run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "masss" in err


def test_malformed_config_file_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "not valid JSON" in err


_SCHWARZSCHILD_DOC = '{"kind": "schwarzschild", "mass": 1, "r_lo": 3, "r_hi": 100}'

# (config file, profile document or None, text stderr must name)
_MALFORMED = {
    "samples not a number": ({"samples": "abc"}, None, "samples"),
    "samples not integral": ({"samples": 2.5}, None, "samples"),
    "mass not a number": ({"mass": "heavy"}, None, "mass"),
    "mass null": ({"mass": None}, None, "mass"),
    "tol nan": ({"tol": "nan"}, None, "tol"),
    "metric a descriptor": ({"metric": 0}, None, "metric"),
    "metric a list": ({"metric": ["a"]}, None, "metric"),
    "out a descriptor": ({"out": 1}, None, "out"),
    "samples a boolean": ({"samples": True}, None, "samples"),
    "mass a boolean": ({"mass": True}, None, "mass"),
    "r_max a boolean": ({"r_max": False}, None, "r_max"),
    "document not JSON": ({}, "{not json", "not valid JSON"),
    "document mass a boolean": ({}, _SCHWARZSCHILD_DOC.replace("1,", "true,"), "'mass'"),
    "document mass": ({}, _SCHWARZSCHILD_DOC.replace("1,", '"x",'), "'mass'"),
    "document nodes": (
        {}, '{"kind": "tabulated", "r": ["a", 4, 5, 6], "N": [1, 1, 1, 1], '
        '"A": [1, 1, 1, 1], "Rareal": [3, 4, 5, 6]}', "tabulated profile key 'r'"),
    "document nodes a boolean": (
        {}, '{"kind": "tabulated", "r": [3, 4, 5, 6], "N": [true, 1, 1, 1], '
        '"A": [1, 1, 1, 1], "Rareal": [3, 4, 5, 6]}', "tabulated profile key 'N'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_config_error_naming_the_key(capsys, tmp_path, case):
    # exit 1 means "verification failed"; malformed input never gets that far
    config, document, named = _MALFORMED[case]
    if document is not None:
        doc = tmp_path / "profile.json"
        doc.write_text(document, encoding="utf-8")
        config = {**config, "metric": str(doc)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = _run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: ") and named in err


def test_missing_profile_document_is_io_error(capsys, tmp_path):
    code, _, err = _run(
        capsys, "verify", "--metric", str(tmp_path / "absent.json")
    )
    assert code == EXIT_IO


def test_non_finite_table_document_is_config_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"kind": "tabulated", "r": [3, 4, 5, 6], "N": [1, NaN, 1, 1], '
        '"A": [1, 1, 1, 1], "Rareal": [3, 4, 5, 6]}',
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "verify", "--metric", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "channel N must be finite" in err


def test_unwritable_out_path_is_io_error(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "report.json"
    code, _, err = _run(capsys, "audit", "--out", str(target))
    assert code == EXIT_IO
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    args = ("audit", "--mass", "1.0", "--out", str(out_path))

    assert main(list(args)) == EXIT_OK
    first_out = capsys.readouterr().out
    first_json = out_path.read_bytes()
    first_csv_missing = not (tmp_path / "rep.csv").exists()

    assert main(list(args)) == EXIT_OK
    second_out = capsys.readouterr().out
    assert second_out == first_out
    assert out_path.read_bytes() == first_json
    assert first_csv_missing  # audit emits no CSV table


def test_pipeline_report_bytes_stable(capsys, tmp_path):
    out_path = tmp_path / "pipe.json"
    args = (
        "pipeline", "--mass", "1.0", "--samples", "64", "--out", str(out_path)
    )
    assert main(list(args)) == EXIT_OK
    capsys.readouterr()
    first = out_path.read_bytes()
    first_csv = (tmp_path / "pipe.csv").read_bytes()
    assert main(list(args)) == EXIT_OK
    capsys.readouterr()
    assert out_path.read_bytes() == first
    assert (tmp_path / "pipe.csv").read_bytes() == first_csv
    assert b"\r\n" in first_csv
