import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ehzcap import jsonio
from ehzcap.bodies import named_body
from ehzcap.cli import main
from ehzcap.geometry import hausdorff_distance

BODIES = Path(__file__).resolve().parents[1] / "bodies"


@pytest.fixture
def work(tmp_path):
    def put(name, obj):
        path = tmp_path / name
        path.write_text(jsonio.dumps(obj) if not isinstance(obj, str) else obj)
        return str(path)
    return tmp_path, put


@pytest.fixture
def square_file(work):
    _, put = work
    return put("square.json", jsonio.body_to_dict(named_body("square")))


@pytest.fixture
def triangle_file(work):
    _, put = work
    return put("triangle.json", jsonio.body_to_dict(named_body("triangle")))


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacityCommand:
    def test_square_square(self, capsys, square_file):
        code, out, err = run(capsys, ["capacity", "--K", square_file,
                                      "--T", square_file])
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(4.0, abs=1e-9)
        assert report["quantities"]["consistent"] is True
        assert report["realized"] is True
        assert "capacity_seconds" in report["timings"]

    def test_triangle_square_with_oracle(self, capsys, square_file,
                                         triangle_file):
        code, out, _ = run(capsys, ["capacity", "--K", triangle_file,
                                    "--T", square_file,
                                    "--oracle-step", "0.25"])
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(2.0, abs=1e-9)
        assert report["oracle"] == pytest.approx(2.0, abs=1e-9)
        assert "oracle_seconds" in report["timings"]

    def test_out_flag_writes_file(self, capsys, work, square_file):
        tmp_path, _ = work
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["capacity", "--K", square_file,
                                    "--T", square_file,
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == pytest.approx(4.0)

    def test_inconsistent_quantities_exit_3(self, capsys, monkeypatch,
                                            square_file):
        import ehzcap.cli as cli_mod
        real = cli_mod.ehz_capacity

        def doctored(table, geometry):
            result = real(table, geometry)
            broken = dataclasses.replace(result.quantities,
                                         billiard_length=None)
            return dataclasses.replace(result, quantities=broken)

        monkeypatch.setattr(cli_mod, "ehz_capacity", doctored)
        code, out, _ = run(capsys, ["capacity", "--K", square_file,
                                    "--T", square_file])
        assert code == 3
        assert json.loads(out)["quantities"]["consistent"] is False

    def test_unrealized_swapped_side_exits_3(self, capsys, monkeypatch,
                                             square_file, triangle_file):
        # Only the swapped side, whose table is the triangle, fails to
        # realize; the primary side's trajectory is still reported.
        import ehzcap.capacity as capacity_mod
        real = capacity_mod.verify_strong

        def reject_swapped(table, geometry, q, p):
            if table.num_facets == 3:
                return SimpleNamespace(verified=False)
            return real(table, geometry, q, p)

        monkeypatch.setattr(capacity_mod, "verify_strong", reject_swapped)
        code, out, _ = run(capsys, ["capacity", "--K", square_file,
                                    "--T", triangle_file])
        assert code == 3
        report = json.loads(out)
        assert report["realized"] is True
        assert report["dual_note"].startswith("swapped side: ")
        assert report["quantities"]["consistent"] is False


class TestValidationFailures:
    def test_malformed_json_exit_2(self, capsys, work, square_file):
        _, put = work
        bad = put("bad.json", "{ not json")
        code, out, err = run(capsys, ["capacity", "--K", bad,
                                      "--T", square_file])
        assert code == 2
        assert out == ""
        assert "invalid JSON" in err

    def test_bad_field_named_in_diagnostic(self, capsys, work, square_file):
        _, put = work
        bad = put("bad.json",
                  '{"dim": 2, "hrep": {"normals": "x", "offsets": [1.0]}}')
        code, out, err = run(capsys, ["capacity", "--K", bad,
                                      "--T", square_file])
        assert code == 2
        assert "hrep.normals" in err

    def test_missing_file_exit_2(self, capsys, work, square_file):
        tmp_path, _ = work
        code, out, err = run(capsys, ["capacity",
                                      "--K", str(tmp_path / "ghost.json"),
                                      "--T", square_file])
        assert code == 2
        assert "cannot read" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, ["bogus-subcommand"])
        assert code == 2

    def test_strong_without_momenta_exit_2(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        code, _, err = run(capsys, ["verify", "--strong", "--K", square_file,
                                    "--T", square_file, "--q", q])
        assert code == 2
        assert "--p" in err


@pytest.mark.parametrize("argv", [
    ["fit-check", "--K", "{K}", "--q", "{q}", "--tol", "nan"],
    ["fit-check", "--K", "{K}", "--q", "{q}", "--tol", "-1"],
    ["fit-check", "--K", "{K}", "--q", "{q}", "--tol", "inf"],
    ["verify", "--weak", "--K", "{K}", "--T", "{T}", "--q", "{q}",
     "--tol", "inf"],
    ["verify", "--strong", "--K", "{K}", "--T", "{T}", "--q", "{q}",
     "--p", "{q}", "--tol", "nan"],
    ["dual", "--K", "{K}", "--T", "{T}", "--q", "{q}", "--tol", "nan"],
    ["generate", "--family", "perturbed", "--base", "{K}", "--delta", "nan"],
    ["generate", "--family", "perturbed", "--base", "{K}", "--delta", "inf"],
    ["generate", "--family", "perturbed", "--base", "{K}",
     "--delta", "1e308"],
    ["generate", "--family", "random-polygon", "--k", "5", "--seed", "-1"],
    ["generate", "--family", "random-polygon", "--k", "5",
     "--seed", "4294967296"],
    ["study", "continuity", "--K", "{K}", "--T", "{T}", "--deltas", "nan"],
    ["study", "symmetry", "--K", "{K}", "--T", "{T}", "--deltas", "0.01",
     "--seed", "-1"],
    ["oracle", "--K", "{K}", "--T", "{T}", "--oracle-step", "inf"],
], ids=["fit-check-tol-nan", "fit-check-tol-negative", "fit-check-tol-inf",
        "verify-weak-tol-inf", "verify-strong-tol-nan", "dual-tol-nan",
        "delta-nan", "delta-inf", "delta-1e308", "seed-negative",
        "seed-2-to-the-32", "study-delta-nan", "study-seed-negative",
        "oracle-step-inf"])
def test_out_of_range_number_exits_2(capsys, work, square_file, argv):
    _, put = work
    q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
    paths = {"K": square_file, "T": square_file, "q": q}
    code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert any("error: " in line for line in err.splitlines())


class TestFitCheck:
    def test_pinned_chord(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        code, out, _ = run(capsys, ["fit-check", "--K", square_file,
                                    "--q", q])
        assert code == 0
        report = json.loads(out)
        assert report["pinned"] is True
        assert report["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_loose_curve_reports_unpinned(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[0.0, 0.0], [0.5, 0.0]]})
        code, out, _ = run(capsys, ["fit-check", "--K", square_file,
                                    "--q", q])
        assert code == 0
        assert json.loads(out)["pinned"] is False


class TestVerifyAndDual:
    def test_realized_billiard_round_trips_through_strong_verify(
            self, capsys, work):
        _, put = work
        table = str(BODIES / "square.json")
        geometry = str(BODIES / "triangle.json")
        code, out, _ = run(capsys, ["capacity", "--K", table,
                                    "--T", geometry])
        assert code == 0
        report = json.loads(out)
        q = put("q.json", {"points": report["billiard_curve"]["points"]})
        p = put("p.json", {"points": report["dual_curve"]})
        code, out, _ = run(capsys, ["verify", "--strong", "--K", table,
                                    "--T", geometry, "--q", q, "--p", p])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_strong_pass(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        p = put("p.json", {"points": [[1.0, -1.0], [-1.0, -1.0]]})
        code, out, _ = run(capsys, ["verify", "--strong", "--K", square_file,
                                    "--T", square_file, "--q", q, "--p", p])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_strong_fail_exit_1(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        p = put("p.json", {"points": [[-1.0, -1.0], [1.0, -1.0]]})
        code, out, _ = run(capsys, ["verify", "--strong", "--K", square_file,
                                    "--T", square_file, "--q", q, "--p", p])
        assert code == 1
        report = json.loads(out)
        assert report["verified"] is False
        assert any(not r["passed"] for r in report["records"])

    def test_strong_point_outside_body_reports_its_gaps(self, capsys, work):
        _, put = work
        q = put("q.json", {"points": [[-1.0, -1.0], [1.0, 1.0]]})
        p = put("p.json", {"points": [[2.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run(capsys, ["verify", "--strong",
                                    "--K", str(BODIES / "square.json"),
                                    "--T", str(BODIES / "triangle.json"),
                                    "--q", q, "--p", p])
        assert code == 1
        report = json.loads(out)
        assert report["verified"] is False
        first = report["records"][0]
        assert (first["segment_residual"], first["kick_residual"]) == (-2.0,
                                                                       0.0)
        assert not any(r["passed"] for r in report["records"])
        assert all("outside" in r["note"] for r in report["records"])

    def test_weak_pass(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        code, out, _ = run(capsys, ["verify", "--weak", "--K", square_file,
                                    "--T", square_file, "--q", q])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_weak_fail_exit_1(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.5], [0.0, 1.0]]})
        code, out, _ = run(capsys, ["verify", "--weak", "--K", square_file,
                                    "--T", square_file, "--q", q])
        assert code == 1
        assert json.loads(out)["verified"] is False

    def test_weak_with_momenta_exit_2_before_loading(self, capsys, work):
        tmp_path, _ = work
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, ["verify", "--weak", "--K", missing,
                                      "--T", missing, "--q", missing,
                                      "--p", missing])
        assert code == 2
        assert out == ""
        assert err == "error: verify --p needs --strong\n"

    def test_dual_recovers_momenta(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]})
        code, out, _ = run(capsys, ["dual", "--K", square_file,
                                    "--T", square_file, "--q", q])
        assert code == 0
        points = json.loads(out)["points"]
        assert [x for x, _ in points] == [1.0, -1.0]
        p = put("p.json", {"points": points})
        code, out, _ = run(capsys, ["verify", "--strong", "--K", square_file,
                                    "--T", square_file, "--q", q, "--p", p])
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_dual_no_solution_exit_1(self, capsys, work, square_file):
        _, put = work
        q = put("q.json", {"points": [[1.0, -0.5], [1.0, 0.5]]})
        code, out, err = run(capsys, ["dual", "--K", square_file,
                                      "--T", square_file, "--q", q])
        assert code == 1
        assert out == ""
        assert "no dual exists" in err


class TestOracleCommand:
    def test_square(self, capsys, square_file):
        code, out, _ = run(capsys, ["oracle", "--K", square_file,
                                    "--T", square_file,
                                    "--oracle-step", "0.25"])
        assert code == 0
        assert json.loads(out)["oracle"] == pytest.approx(4.0, abs=1e-9)

    def test_m_max_flag(self, capsys, square_file):
        code, out, _ = run(capsys, ["oracle", "--K", square_file,
                                    "--T", square_file,
                                    "--oracle-step", "0.5", "--m-max", "2"])
        assert code == 0
        assert json.loads(out)["oracle"] == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("command, extra", [
        ("oracle", ["--oracle-step", "0"]),
        ("oracle", ["--oracle-step", "nan"]),
        ("oracle", ["--oracle-step", "0.25", "--m-max", "9"]),
        ("oracle", ["--oracle-step", "1e-300"]),
        ("oracle", ["--oracle-step", "1e-9"]),
        ("capacity", ["--oracle-step", "-1"]),
        ("capacity", ["--oracle-step", "1e-9"]),
        ("capacity", ["--m-max", "2"]),
    ], ids=["oracle-step-0", "oracle-step-nan", "m-max-9",
            "oracle-step-1e-300", "oracle-step-1e-9",
            "capacity-oracle-step-negative", "capacity-oracle-step-1e-9",
            "capacity-m-max-without-oracle-step"])
    def test_bad_parameters_exit_2(self, capsys, square_file, triangle_file,
                                   command, extra):
        code, out, err = run(capsys, [command, "--K", triangle_file,
                                      "--T", square_file, *extra])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("extra, message", [
        (["--oracle-step", "-1"], "grid step must be positive"),
        (["--oracle-step", "0.25", "--m-max", "9"], "tuple size bound"),
        (["--oracle-step", "1e-9"], "too fine"),
        (["--m-max", "2"], "needs --oracle-step"),
    ], ids=["oracle-step-negative", "m-max-9", "oracle-step-1e-9",
            "m-max-without-oracle-step"])
    def test_capacity_checks_oracle_parameters_before_the_solve(
            self, capsys, monkeypatch, square_file, triangle_file, extra,
            message):
        import ehzcap.cli as cli_mod

        def refuse(table, geometry):
            raise AssertionError("solved before the parameters were checked")

        monkeypatch.setattr(cli_mod, "ehz_capacity", refuse)
        code, out, err = run(capsys, ["capacity", "--K", triangle_file,
                                      "--T", square_file, *extra])
        assert code == 2
        assert out == ""
        assert message in err


class TestStudyCommand:
    def test_continuity_csv(self, capsys, square_file):
        code, out, _ = run(capsys, ["study", "continuity",
                                    "--K", square_file, "--T", square_file,
                                    "--deltas", "0.0", "0.01", "--seed", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "delta,d_hausdorff,capacity,identity_dev"
        zero_row = [float(c) for c in lines[1].split(",")]
        assert zero_row == [0.0, 0.0, pytest.approx(4.0), pytest.approx(0.0)]
        small_row = [float(c) for c in lines[2].split(",")]
        assert small_row[1] <= 0.01
        assert small_row[2] == pytest.approx(4.0, abs=0.2)
        assert small_row[3] <= 1e-6

    def test_symmetry_csv(self, capsys, square_file, triangle_file):
        code, out, _ = run(capsys, ["study", "symmetry",
                                    "--K", triangle_file, "--T", square_file,
                                    "--deltas", "0.01"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        row = [float(c) for c in lines[1].split(",")]
        assert row[2] == pytest.approx(2.0, abs=0.2)
        assert row[3] <= 1e-6


class TestGenerateCommand:
    def test_named_square_is_exact(self, capsys):
        code, out, _ = run(capsys, ["generate", "--family", "named",
                                    "--name", "square"])
        assert code == 0
        body = jsonio.body_from_dict(json.loads(out))
        expected = named_body("square")
        assert body.vertices.tobytes() == expected.vertices.tobytes()

    def test_random_polygon(self, capsys):
        code, out, _ = run(capsys, ["generate", "--family", "random-polygon",
                                    "--k", "6", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vrep"]["vertices"]) == 6
        assert doc["provenance"]["seed"] == 3

    def test_perturbed_respects_bound(self, capsys, work, square_file):
        code, out, _ = run(capsys, ["generate", "--family", "perturbed",
                                    "--base", square_file,
                                    "--delta", "0.01", "--seed", "7"])
        assert code == 0
        body = jsonio.body_from_dict(json.loads(out))
        assert hausdorff_distance(body, named_body("square")) <= 0.03

    def test_missing_family_argument_exit_2(self, capsys):
        code, _, err = run(capsys, ["generate", "--family", "named"])
        assert code == 2
        assert "name" in err

    @pytest.mark.parametrize("args, unread", [
        (["named", "--name", "cube", "--k", "5", "--delta", "3"],
         "--k, --delta"),
        (["named", "--name", "cube", "--base", "missing.json"], "--base"),
        (["random-polygon", "--k", "5", "--name", "cube"], "--name"),
        (["perturbed", "--base", "missing.json", "--delta", "0.1",
          "--k", "5"], "--k"),
    ], ids=["named", "named-base", "random-polygon", "perturbed"])
    def test_unread_option_exit_2(self, capsys, args, unread):
        code, out, err = run(capsys, ["generate", "--family", *args])
        assert code == 2
        assert out == ""
        assert err == (f"error: generate --family {args[0]} does not read "
                       f"{unread}\n")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["generate", "--family",
                                      "random-polygon", "--k", "5",
                                      "--seed", "11"])
        code2, out2, _ = run(capsys, ["generate", "--family",
                                      "random-polygon", "--k", "5",
                                      "--seed", "11"])
        assert (code1, code2) == (0, 0)
        assert out1 == out2
