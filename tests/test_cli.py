import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetrafermat
from tetrafermat import cli, solver
from tetrafermat.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
)
from tetrafermat.geometry import Tetrahedron
from tetrafermat.sampling import random_tetrahedron

REGULAR = {"vertices": [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]}
RIGHT_CORNER = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}
FLAT = {
    "vertices": [
        [0.0, 0.0, 0.1],
        [1.0, 0.0, 0.0],
        [-0.5, 0.8660254, 0.0],
        [-0.5, -0.8660254, 0.0],
    ]
}
COPLANAR = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}


@pytest.fixture
def write_json(tmp_path):
    def _write(payload, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


@pytest.mark.parametrize(
    "command,payload",
    [
        ("sixth-angle", {"angles_deg": "abcde"}),
        ("sixth-angle", {"angles_deg": 5}),
        ("sixth-angle", {"angles_deg": [None, 1, 2, 3, 4]}),
        ("sixth-angle", {"angles_rad": [1, 1, 1, 1, {}]}),
        ("sixth-angle", {"angles_deg": [10 ** 400, 90, 60, 90, 60]}),
        ("solve", {"vertices": {}}),
        ("solve", {"vertices": [[10 ** 400, 0, 0], [1, 0, 0], [0, 1, 0],
                                [0, 0, 1]]}),
        # float() takes these, but they are not JSON numbers
        ("sixth-angle", {"angles_deg": [True, 90, 60, 90, 60]}),
        ("sixth-angle", {"angles_deg": ["90", 90, 60, 90, 60]}),
        ("solve", {"vertices": [[True, 1, 1], [1, -1, -1], [-1, 1, -1],
                                [-1, -1, 1]]}),
        ("solve", {"vertices": [["0", 0, 0], [1, 0, 0], [0, 1, 0],
                                [0, 0, 1]]}),
    ],
    ids=["string", "number", "null", "object", "huge_int",
         "vertices_object", "vertices_huge_int", "bool", "numeric_string",
         "vertices_bool", "vertices_numeric_string"],
)
def test_malformed_numbers_exit_2(command, payload, write_json, capsys):
    path = write_json(payload)
    assert main([command, "--input", path]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestSolveCommand:
    def test_regular_text(self, write_json, capsys):
        code = main(["solve", "--input", write_json(REGULAR)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "kind: interior" in out
        assert "109.47122063 deg" in out
        assert "PASS" in out

    def test_regular_json_schema(self, write_json, capsys):
        code = main(["solve", "--input", write_json(REGULAR), "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "kind", "point", "vertex_index", "objective", "residual",
            "iterations", "pull_norms", "angles_rad", "checks", "flags",
        }
        assert data["kind"] == "interior"
        assert data["vertex_index"] is None
        assert np.allclose(data["point"], 0.0, atol=1e-8)
        assert data["objective"] == pytest.approx(4 * math.sqrt(3), abs=1e-10)
        assert len(data["pull_norms"]) == 4
        assert set(data["angles_rad"]) == {
            "a102", "a103", "a104", "a203", "a204", "a304",
        }
        checks = data["checks"]
        assert set(checks) == {
            "opposite_angles", "cosine_sum", "bisector_orthogonality",
            "bisector_antiparallel", "pass",
        }
        assert checks["pass"] is True
        assert data["flags"] == []

    def test_vertex_case_json(self, write_json, capsys):
        code = main(["solve", "--input", write_json(FLAT), "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "vertex"
        assert data["vertex_index"] == 1
        assert data["pull_norms"][0] < 1.0
        assert data["angles_rad"] is None
        assert data["checks"] is None

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowed_objective_json_is_valid(self, command, write_json, capsys):
        # the right corner times 2**1023 solves to a finite point whose
        # distance sum overflows: JSON has no Infinity, so it is null
        corner = (np.array(RIGHT_CORNER["vertices"]) * 2.0 ** 1023).tolist()
        path = write_json({"vertices": corner})

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        code = main([command, "--input", path, "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert data["objective"] is None
        assert all(math.isfinite(c) for c in data["point"])
        assert main([command, "--input", path]) == EXIT_OK
        assert "objective: inf\n" in capsys.readouterr().out

    def test_coplanar_input_exits_2(self, write_json, capsys):
        code = main(["solve", "--input", write_json(COPLANAR)])
        assert code == EXIT_INVALID_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["solve", "--input", str(tmp_path / "nope.json")])
        assert code == EXIT_INVALID_INPUT

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--input", str(path)]) == EXIT_INVALID_INPUT

    def test_missing_key_exits_2(self, write_json):
        code = main(["solve", "--input", write_json({"points": []})])
        assert code == EXIT_INVALID_INPUT

    def test_nonconvergence_exits_3(self, write_json, capsys):
        code = main(
            ["solve", "--input", write_json(RIGHT_CORNER), "--max-iter", "1"]
        )
        assert code == EXIT_NONCONVERGENCE
        assert "no convergence" in capsys.readouterr().err

    def test_boundary_tie_flag_reported(self, write_json, capsys):
        # apex height r/sqrt(8) over an equilateral base of circumradius r
        # puts the apex pull norm exactly at 1
        h = 1.0 / math.sqrt(8.0)
        path = write_json({"vertices": [
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
            [0.0, 0.0, h],
        ]})
        assert main(["solve", "--input", path]) == EXIT_OK
        assert "flags: boundary_tie" in capsys.readouterr().out.splitlines()
        assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["flags"] == ["boundary_tie"]

    @pytest.mark.parametrize("payload", [REGULAR, FLAT], ids=["interior", "vertex"])
    def test_classifies_once(self, payload, monkeypatch):
        calls = []
        classify = solver.classify

        def counting_classify(tetra):
            calls.append(tetra)
            return classify(tetra)

        monkeypatch.setattr(solver, "classify", counting_classify)
        tetra = Tetrahedron(np.array(payload["vertices"], dtype=float))
        cli.build_report(tetra, 1e-6)
        assert len(calls) == 1


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, write_json):
        assert main(["verify", "--input", write_json(REGULAR)]) == EXIT_OK

    def test_fails_below_floating_point_floor(self, write_json):
        code = main(
            ["verify", "--input", write_json(RIGHT_CORNER), "--tol", "1e-18"]
        )
        assert code == EXIT_VERIFICATION_FAILED

    def test_vertex_case_passes(self, write_json):
        assert main(["verify", "--input", write_json(FLAT)]) == EXIT_OK

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_passes_at_extreme_scales(self, factor, write_json, capsys):
        # edges whose squares leave float64 are accepted and verified
        v = (random_tetrahedron(0, 0).vertices * factor).tolist()
        path = write_json({"vertices": v})
        assert main(["verify", "--input", path]) == EXIT_OK
        assert main(["solve", "--input", path]) == EXIT_OK
        assert "kind: interior" in capsys.readouterr().out.splitlines()


class TestSixthAngleCommand:
    def test_degrees_input_plus_branch(self, write_json, capsys):
        path = write_json({"angles_deg": [90, 90, 60, 90, 60]})
        code = main(["sixth-angle", "--input", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "45.00000000 deg" in out

    def test_radians_json_output(self, write_json, capsys):
        r = math.acos(-1.0 / 3.0)
        path = write_json({"angles_rad": [r, r, r, r, r]})
        code = main(["sixth-angle", "--input", path, "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["cos_minus"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert data["cos_plus"] == pytest.approx(1.0, abs=1e-12)
        assert data["realizable_minus"] is True
        assert data["angle_minus_rad"] == pytest.approx(r, abs=1e-12)

    def test_unrealizable_exits_2(self, write_json):
        path = write_json({"angles_deg": [10, 170, 10, 10, 170]})
        assert main(["sixth-angle", "--input", path]) == EXIT_INVALID_INPUT

    def test_wrong_count_exits_2(self, write_json):
        path = write_json({"angles_deg": [90, 90, 60]})
        assert main(["sixth-angle", "--input", path]) == EXIT_INVALID_INPUT

    def test_out_of_range_exits_2(self, write_json):
        path = write_json({"angles_deg": [90, 90, 60, 90, 190]})
        assert main(["sixth-angle", "--input", path]) == EXIT_INVALID_INPUT


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,expected",
    [
        (["verify", "--input", "corner.json"], EXIT_OK),
        (["batch-verify", "--count", "8", "--max-iter", "1"],
         EXIT_VERIFICATION_FAILED),
    ],
    ids=["verify", "batch_verify_fails"],
)
def test_closed_stdout_keeps_exit_code(argv, expected, buffered, tmp_path):
    # stdout is a pipe whose reader has gone before the first write, as
    # with `| head -1` once head has read its line; buffered, the write
    # fails at the last flush, unbuffered, inside the print
    (tmp_path / "corner.json").write_text(json.dumps(RIGHT_CORNER))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(tetrafermat.__file__).parents[1])
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "tetrafermat.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert run.stderr == b""
    assert run.returncode == expected


class TestBatchVerifyCommand:
    def test_small_corpus_passes(self, capsys):
        code = main(["batch-verify", "--seed", "0", "--count", "30"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "result: PASS" in out
        assert "max residual per check" in out

    def test_bit_identical_reruns(self, capsys):
        main(["batch-verify", "--seed", "0", "--count", "30"])
        first = capsys.readouterr().out
        main(["batch-verify", "--seed", "0", "--count", "30"])
        second = capsys.readouterr().out
        assert first == second

    def test_unattainable_tolerance_fails(self, capsys):
        code = main(
            ["batch-verify", "--seed", "0", "--count", "10", "--tol", "1e-15"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_VERIFICATION_FAILED
        assert "FAIL instance" in out
        assert "result: FAIL" in out

    def test_nonconvergence_reported_per_instance(self, capsys):
        code = main(["batch-verify", "--count", "8", "--max-iter", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_VERIFICATION_FAILED
        assert "instances: 0 interior, 1 vertex" in lines
        assert "error at instance 0: no convergence (residual 3.887e-03)" in lines
        assert lines[-1] == "result: FAIL"

    def test_bad_count_exits_2(self):
        assert main(["batch-verify", "--count", "0"]) == EXIT_INVALID_INPUT

    def test_negative_seed_exits_2(self):
        assert main(["batch-verify", "--seed", "-1"]) == EXIT_INVALID_INPUT

    def test_nonpositive_tolerance_exits_2(self, write_json):
        path = write_json(REGULAR)
        assert main(["solve", "--input", path, "--tol", "0"]) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("flag", ["--tol"])
    def test_infinite_tolerance_exits_2(self, flag, write_json):
        path = write_json(RIGHT_CORNER)
        assert main(["verify", "--input", path, flag, "inf"]) == EXIT_INVALID_INPUT

    def test_format_flag_rejected(self):
        # batch-verify prints text only
        with pytest.raises(SystemExit) as info:
            main(["batch-verify", "--count", "10", "--format", "json"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "verify", "batch-verify"])
    def test_grad_tol_flag_rejected(self, command, write_json):
        # the solver's stopping residual is a constant, not an option
        argv = [command, "--grad-tol", "1e-10"]
        if command != "batch-verify":
            argv += ["--input", write_json(RIGHT_CORNER)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "batch-verify"])
    def test_zero_max_iter_exits_2(self, command, write_json, capsys):
        argv = [command, "--max-iter", "0"]
        if command != "batch-verify":
            argv += ["--input", write_json(RIGHT_CORNER)]
        assert main(argv) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == "error: max_iter must be at least 1\n"


# ``verify --format json`` output, recorded once; a rounding change at the
# last printed digit of any field fails these
REGULAR_VERIFY_JSON = """\
{
  "kind": "interior",
  "point": [
    -1.1005857246262915e-14,
    -1.1085135744947434e-14,
    -1.1085135771417214e-14
  ],
  "vertex_index": null,
  "objective": 6.9282032302755105,
  "residual": 2.987057059400675e-14,
  "iterations": 4,
  "pull_norms": [
    2.449489742783178,
    2.449489742783178,
    2.449489742783178,
    2.449489742783178
  ],
  "angles_rad": {
    "a102": 1.9106332362490082,
    "a103": 1.9106332362490082,
    "a104": 1.9106332362490082,
    "a203": 1.910633236249029,
    "a204": 1.910633236249029,
    "a304": 1.910633236249029
  },
  "checks": {
    "opposite_angles": [
      1.970645868709653e-14,
      1.970645868709653e-14,
      1.970645868709653e-14
    ],
    "cosine_sum": 2.9531932455029164e-14,
    "bisector_orthogonality": [
      9.871208456769157e-15,
      9.743010944343478e-15,
      9.871208456769157e-15
    ],
    "bisector_antiparallel": [
      0.0,
      0.0,
      0.0
    ],
    "pass": true
  },
  "flags": []
}
"""
CUBE_3_0_VERIFY_JSON = """\
{
  "kind": "interior",
  "point": [
    0.32814237061729923,
    0.21558993522603753,
    0.6454914543937924
  ],
  "vertex_index": null,
  "objective": 1.1312520500028103,
  "residual": 5.661048867003676e-16,
  "iterations": 4,
  "pull_norms": [
    2.4500747810878756,
    2.7203485582220828,
    1.913763322142207,
    2.417106211934113
  ],
  "angles_rad": {
    "a102": 2.8378946116971377,
    "a103": 2.0371774821169186,
    "a104": 1.155026826829167,
    "a203": 1.1550268268291675,
    "a204": 2.0371774821169195,
    "a304": 2.8378946116971386
  },
  "checks": {
    "opposite_angles": [
      2.220446049250313e-16,
      2.7755575615628914e-16,
      5.551115123125783e-16
    ],
    "cosine_sum": 5.551115123125783e-16,
    "bisector_orthogonality": [
      1.708702623837155e-16,
      1.249000902703301e-16,
      3.191891195797325e-16
    ],
    "bisector_antiparallel": [
      1.1102230246251565e-16,
      0.0,
      0.0
    ],
    "pass": true
  },
  "flags": []
}
"""


@pytest.mark.parametrize(
    "payload,expected",
    [
        (REGULAR, REGULAR_VERIFY_JSON),
        ({"vertices": random_tetrahedron(3, 0).vertices.tolist()},
         CUBE_3_0_VERIFY_JSON),
    ],
    ids=["regular", "cube_seed3_0"],
)
def test_verify_json_pinned(payload, expected, write_json, capsys):
    code = main(["verify", "--format", "json", "--input", write_json(payload)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == expected
