"""Golden digests of the command-line interface, frozen bit for bit.

Each of the six subcommands runs at m in {0.5, 1, 2} with ``--out``; the
exit code, stdout and the JSON report and CSV table written beside it are
hashed together.  The ``--out`` path the report echoes in its config is
replaced by a fixed token first, so the digests do not depend on the test's
temporary directory.  A change anywhere below the CLI that moves any bit
of any printed or written number shows here.

``pipeline`` runs the finite-difference oracle, whose digests are of x87
80-bit extended precision (the ``np.longdouble`` of x86-64 Linux), as in
``test_oracle_golden.py``; the other subcommands compute in float64 only.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from photonlab.cli import main

_X87 = np.finfo(np.longdouble).nmant == 63

GOLDEN = {
    ("verify", "0.5"): "a82716442e0643f4a63236f49d2764b3d131234ba61fdfe3f9a0a1ad77810b3c",
    ("verify", "1"): "31c6809283145530e745ae7202d619fe4fccc29daa15e3eda86d78d88a6b798f",
    ("verify", "2"): "7626ca70151ffcada890eb783734aa17671c24cb76cc448a96094b56758b484c",
    ("photon-search", "0.5"): "486ac7d3f5ee27414baeb4aeb5f25f0882e3e16b07b6a664b4dcffb2f6331bcb",
    ("photon-search", "1"): "203489c99a9373209950eb12ba3ec5531b3358a901e5adb6add6dee55de7ecb2",
    ("photon-search", "2"): "cef0c425419b7b04edaea6b9694fa5f8e4b07010aa13b68af822250ddf12875a",
    ("audit", "0.5"): "20d0ae7bf5122f7e3d6bffe380b10b1b5156cfc6d0b26418a1ceba42b4db623b",
    ("audit", "1"): "f0b2c67e6902001822a0da784e03d374b4a2d5bee9558140dadafc9a89679eea",
    ("audit", "2"): "b6b9bc96d78084260d3501afe35d01ab633d698c9896e865603acd02982160d0",
    ("glue", "0.5"): "b3b61ff59a58813c1dc929e7fc679a644c6c5a280054a3711ee136d8b88befa6",
    ("glue", "1"): "da6b709b0cefc67612ef109afbfa6fabfc8821c1bd87b1006ec8de1da18f0abb",
    ("glue", "2"): "1f630f63b9f6b380e2912c0328ccca1561b4b66f88b8828533e9f319e5277917",
    ("pipeline", "0.5"): "6dffe60a84fda6b5484a98079790e810ef3621178715fe2803d88c5aeb370c25",
    ("pipeline", "1"): "8d5299395d48a6de6e2a0cd7792f41a6b0458b20518e34566e618b9d4391c32d",
    ("pipeline", "2"): "fd1ec9a54f5df1016cfacbdbb5c5c41f4ef6104420f212da15137363ed68bee1",
    ("star", "0.5"): "53b5ed02d0d2c3fcd18006dcf871b68f1fd65db334d002d73c7a3d38c57289fd",
    ("star", "1"): "6e352eb59d4c8147aade862c607188946b1eeac523317003c0b167f977ffe24b",
    ("star", "2"): "0a5589be2c4bc94df8dda1652ad3ce08b1d61c65ed23edb02a520199854f4871",
}

SUBCOMMANDS = ("verify", "photon-search", "audit", "glue", "pipeline", "star")
MASSES = ("0.5", "1", "2")
OUT_TOKEN = b"<out>"


def _digest(capsys, tmp_path, sub: str, mass: str) -> str:
    out = tmp_path / f"{sub}.json"
    code = main([sub, "--mass", mass, "--out", str(out)])
    stdout = capsys.readouterr().out.encode("utf-8")
    csv = out.with_suffix(".csv")
    parts = [
        str(code).encode(),
        stdout,
        out.read_bytes() if out.exists() else b"no json",
        csv.read_bytes() if csv.exists() else b"no csv",
    ]
    path = str(out).encode("utf-8")
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(path, OUT_TOKEN))
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("mass", MASSES)
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_output_matches_frozen_digest(capsys, tmp_path, sub, mass):
    if sub == "pipeline" and not _X87:
        pytest.skip("pipeline digests are of x87 80-bit extended precision")
    assert _digest(capsys, tmp_path, sub, mass) == GOLDEN[(sub, mass)]
