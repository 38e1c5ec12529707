import json
import math

import numpy as np
import pytest

from tetrafermat import cli, solver
from tetrafermat.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
)
from tetrafermat.geometry import Tetrahedron

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

    @pytest.mark.parametrize("payload", [REGULAR, FLAT], ids=["interior", "vertex"])
    def test_classifies_once(self, payload, monkeypatch):
        calls = []
        classify = solver.classify

        def counting_classify(tetra):
            calls.append(tetra)
            return classify(tetra)

        monkeypatch.setattr(solver, "classify", counting_classify)
        tetra = Tetrahedron(np.array(payload["vertices"], dtype=float))
        cli.build_report(tetra, solver.SolverConfig(), 1e-6)
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

    def test_bad_count_exits_2(self):
        assert main(["batch-verify", "--count", "0"]) == EXIT_INVALID_INPUT

    def test_negative_seed_exits_2(self):
        assert main(["batch-verify", "--seed", "-1"]) == EXIT_INVALID_INPUT

    def test_nonpositive_tolerance_exits_2(self, write_json):
        path = write_json(REGULAR)
        assert main(["solve", "--input", path, "--tol", "0"]) == EXIT_INVALID_INPUT
