import csv
import json

import jsonschema
import pytest

from microasp import benchgen as bg
from microasp.cli import SOLVE_REPORT_SCHEMA, main, sweep_3sat, bench_matrix
from support import PI1_DEFERRED_TEXT, PI1_TEXT


@pytest.fixture
def pi1_file(tmp_path):
    path = tmp_path / "pi1.lp"
    path.write_text(PI1_TEXT)
    return str(path)


class TestSolveCommand:
    def test_model_and_exit_code(self, pi1_file, capsys):
        code = main(["solve", pi1_file])
        out = capsys.readouterr().out.splitlines()
        assert code == 10
        assert out[-1] == "SATISFIABLE"
        assert out[0] in ("b(1) c(1)", "b(1) d(1)")

    def test_unsat_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_text("p(1). :- p(1).\n")
        assert main(["solve", str(path)]) == 20
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_budget_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "hard.lp"
        path.write_text(bg.sat_program_text(bg.make_3sat(20, 6.0, 1)))
        assert main(["solve", str(path), "--conflicts", "0"]) == 30
        assert "TIMEOUT" in capsys.readouterr().out

    def test_json_report_validates(self, pi1_file, capsys):
        code = main(["solve", pi1_file, "--strategy", "lazy", "--json"])
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SOLVE_REPORT_SCHEMA)
        assert code == report["exit_code"] == 10
        assert report["model"] in (["b(1)", "c(1)"], ["b(1)", "d(1)"])

    def test_text_and_json_agree(self, pi1_file, capsys):
        main(["solve", pi1_file])
        text_atoms = capsys.readouterr().out.splitlines()[0].split()
        main(["solve", pi1_file, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == text_atoms

    def test_dump_ground_golden(self, pi1_file, capsys):
        assert main(["solve", pi1_file, "--dump-ground"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            ":- a(1), b(1).",
            ":- a(1), not b(1).",
            "a(1) :- not b(1).",
            "b(1) :- not a(1).",
            "c(1) :- not d(1).",
            "d(1) :- not c(1).",
        ]

    def test_dump_ground_respects_strategy(self, tmp_path, capsys):
        path = tmp_path / "pi1d.lp"
        path.write_text(PI1_DEFERRED_TEXT)
        main(["solve", str(path), "--strategy", "lazy", "--dump-ground"])
        out = capsys.readouterr().out
        assert ":- a(1), b(1)." not in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.lp"
        path.write_text("a(1) :- ,\n")
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_grounding_error_names_the_rule_location(self, tmp_path, capsys):
        path = tmp_path / "order.lp"
        path.write_text("p(1).\nq(X) :- p(X), X < a.\n")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ordered comparison on non-integer constant 'a'" in err
        assert "at 2:1" in err


class TestGenCommand:
    def test_marriage_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "m.lp"
        assert main(
            ["gen", "marriage", "--n", "3", "--k", "50", "--seed", "7", "--out", str(out)]
        ) == 0
        from microasp.parser import parse_program

        program = parse_program(out.read_text())
        assert len(program.deferred) == 1

    def test_3sat_to_stdout(self, capsys):
        assert main(["gen", "3sat", "--vars", "5", "--ratio", "2.0", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "clause(" in out and "%@deferred" in out

    def test_packing(self, capsys):
        assert main(["gen", "packing", "--width", "2", "--height", "2", "--sizes", "1,1"]) == 0
        assert "square(1,1)." in capsys.readouterr().out


class TestOracleCommand:
    def test_lists_models_sorted(self, pi1_file, capsys):
        assert main(["oracle", pi1_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "model: b(1) c(1)",
            "model: b(1) d(1)",
            "models: 2",
        ]

    def test_incoherent(self, tmp_path, capsys):
        path = tmp_path / "inc.lp"
        path.write_text("p(1). :- p(1).\n")
        main(["oracle", str(path)])
        assert capsys.readouterr().out == "models: 0\n"


class TestSweep:
    def test_grid_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep3sat", "--vars", "10", "--r-min", "3.0", "--r-max", "3.5",
                "--r-step", "0.25", "--seeds", "2", "--strategies", "full,lazy",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["ratio"] for r in rows] == ["3.0", "3.25", "3.5"]
        assert "full_mean_conflicts" in rows[0]
        assert "lazy_mean_time_s" in rows[0]
        assert "unsat_freq" in rows[0]

    def test_single_point(self):
        rows = sweep_3sat(8, [4.0], 3, ["lazy"], conflicts=10000)
        assert len(rows) == 1
        assert rows[0]["clauses"] == 32

    def test_reproducible(self):
        a = sweep_3sat(8, [3.0, 4.0], 2, ["full"], conflicts=10000)
        b = sweep_3sat(8, [3.0, 4.0], 2, ["full"], conflicts=10000)
        for ra, rb in zip(a, b):
            assert ra["unsat_freq"] == rb["unsat_freq"]
            assert ra["full_mean_conflicts"] == rb["full_mean_conflicts"]


class TestBench:
    def test_matrix_and_training(self, tmp_path, capsys):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for seed in range(3):
            (inst_dir / f"s{seed}.lp").write_text(
                bg.sat_program_text(bg.make_3sat(6, 3.0, seed))
            )
        out = tmp_path / "data.csv"
        code = main(
            ["bench", "--dir", str(inst_dir), "--conflicts", "500", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert rows[0]["label"] in ("full", "lazy", "eager", "post")
        assert float(rows[0]["runtime_full"]) <= 500

    def test_empty_directory(self, tmp_path, capsys):
        inst_dir = tmp_path / "none"
        inst_dir.mkdir()
        out = tmp_path / "data.csv"
        assert main(["bench", "--dir", str(inst_dir), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("instance,")
        assert len(rows) == 1

    def test_single_instance_single_row(self, tmp_path):
        inst_dir = tmp_path / "one"
        inst_dir.mkdir()
        (inst_dir / "a.lp").write_text(bg.sat_program_text(bg.make_3sat(5, 2.0, 0)))
        examples = bench_matrix(
            [str(inst_dir / "a.lp")], "generic", conflicts=100
        )
        assert len(examples) == 1
        assert set(examples[0].runtimes) == {"full", "lazy", "eager", "post"}


class TestPortfolioCommands:
    def test_train_eval_predict_pipeline(self, tmp_path, capsys):
        from microasp.portfolio import Example, write_dataset

        examples = []
        for i in range(20):
            label = "lazy" if i < 10 else "post"
            x = float(i) + (0.0 if label == "lazy" else 100.0)
            examples.append(
                Example(
                    f"i{i}",
                    {"x": x},
                    label,
                    {"full": 9.0, "lazy": 1.0 if label == "lazy" else 5.0,
                     "eager": 9.0, "post": 1.0 if label == "post" else 5.0},
                )
            )
        data = tmp_path / "d.csv"
        write_dataset(str(data), examples, ["x"])
        tree_path = tmp_path / "tree.json"
        assert main(["portfolio", "train", "--data", str(data), "--out", str(tree_path)]) == 0
        assert main(["portfolio", "eval", "--data", str(data), "--folds", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f_measure"] >= 0.95
        assert report["gain_pct"] >= 0.0
        assert main(
            ["portfolio", "predict", "--tree", str(tree_path), "--features", "x=2"]
        ) == 0
        assert capsys.readouterr().out.strip() == "lazy"


class TestDeterministicReports:
    def test_byte_identical_json(self, tmp_path, capsys):
        path = tmp_path / "inst.lp"
        path.write_text(bg.sat_program_text(bg.make_3sat(10, 4.2, 5)))
        outputs = []
        for _ in range(2):
            main(["solve", str(path), "--strategy", "lazy", "--seed", "3", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
