import contextlib
import csv
import io
import json
import re
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from microasp import benchgen as bg
from microasp.cli import SOLVE_REPORT_SCHEMA, main, sweep_3sat, bench_matrix
from support import PI1_DEFERRED_TEXT, PI1_TEXT

#: The interpreter's limit on the digits of an integer's text, 0 for none.
DIGITS = getattr(sys, "get_int_max_str_digits", int)()


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

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-1", "1e12"])
    def test_an_invalid_time_budget_exits_one(self, tmp_path, capsys, seconds):
        path = tmp_path / "p.lp"
        path.write_text("p(1).\n")
        assert main(["solve", str(path), "--timeout-s", seconds]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: time budget of ")
        assert repr(float(seconds)) in err

    @pytest.mark.parametrize("conflicts", ["-1", "-3"])
    def test_a_negative_conflict_budget_exits_one(self, tmp_path, capsys, conflicts):
        path = tmp_path / "unsat.lp"
        path.write_text(bg.sat_program_text(bg.make_3sat(8, 6.0, 0)))
        assert main(["solve", str(path), "--conflicts", conflicts]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: conflict budget of {conflicts} is negative\n"
        assert captured.out == ""

    def test_a_time_budget_of_zero_is_spent(self, tmp_path, capsys):
        path = tmp_path / "p.lp"
        path.write_text("p(1).\n")
        assert main(["solve", str(path), "--timeout-s", "0"]) == 30
        assert "TIMEOUT" in capsys.readouterr().out

    @pytest.mark.skipif(not DIGITS, reason="no limit on int digits")
    @pytest.mark.parametrize("dump", [[], ["--dump-ground"]])
    def test_a_sum_too_long_to_print_exits_one_at_its_rule(self, tmp_path, capsys, dump):
        path = tmp_path / "long.lp"
        path.write_text(f"d({'9' * DIGITS}).\np(X) :- d(Y), X = Y+Y.\n")
        assert main(["solve", str(path), *dump]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.rstrip().endswith("at 2:1")

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"p(1).\n\xff q.\n", "2:1"),
            # Columns count characters, and lines end as in text mode.
            (b"p(1).\r\n% \xc3\xa9 \xc3 q.\n", "2:5"),
            (b"p(1).\rq(2). \x80", "2:7"),
        ],
        ids=["line-start", "after-a-character", "after-a-carriage-return"],
    )
    def test_a_byte_not_utf8_exits_one_at_its_location(
        self, tmp_path, capsys, data, where
    ):
        path = tmp_path / "bad.lp"
        path.write_bytes(data)
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: byte 0x")
        assert captured.err.rstrip().endswith(f" at {where}")
        assert captured.out == ""

    def test_json_report_validates(self, pi1_file, capsys):
        code = main(["solve", pi1_file, "--strategy", "lazy", "--json"])
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SOLVE_REPORT_SCHEMA)
        assert code == report["exit_code"] == 10
        assert report["model"] in (["b(1)", "c(1)"], ["b(1)", "d(1)"])

    def test_json_report_with_timing_has_the_elapsed_time(self, pi1_file, capsys):
        assert main(["solve", pi1_file, "--json", "--timing"]) == 10
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SOLVE_REPORT_SCHEMA)
        assert report["elapsed_s"] >= 0

    def test_timing_prints_a_time_line(self, pi1_file, capsys):
        assert main(["solve", pi1_file, "--timing"]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "SATISFIABLE"
        assert re.fullmatch(r"time: \d+\.\d{3}s", out[-1])

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

    @pytest.mark.parametrize("text, where", [(":- 1.\n", "1:5"), ("p :- X.\n", "1:7")])
    def test_a_term_that_is_no_literal_needs_a_comparison(
        self, tmp_path, capsys, text, where
    ):
        path = tmp_path / "term.lp"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: expected a comparison operator at {where}\n"
        )

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

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_3sat_ratio_not_finite_exits_one(self, capsys, ratio):
        assert main(["gen", "3sat", "--vars", "8", "--ratio", ratio]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: clause ratio {ratio} is not finite and non-negative\n"
        )
        assert captured.out == ""


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
                "sweep3sat", "--vars", "10", "--ratios", "3.0,3.25,3.5",
                "--seeds", "2", "--strategies", "full,lazy", "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["ratio"] for r in rows] == ["3.0", "3.25", "3.5"]
        assert "full_mean_conflicts" in rows[0]
        assert "lazy_mean_time_s" in rows[0]
        assert "unsat_freq" in rows[0]

    def test_the_default_grid_has_eleven_ratios(self, capsys):
        assert main(["sweep3sat", "--vars", "4", "--seeds", "1", "--strategies", "full"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [float(r["ratio"]) for r in rows] == [3.0 + 0.25 * i for i in range(11)]

    @pytest.mark.parametrize(
        "option, value, got",
        [
            ("--strategies", "", "1, 0 and 1"),
            ("--strategies", " , ", "1, 0 and 1"),
            ("--ratios", "", "0, 1 and 1"),
            ("--seeds", "0", "1, 1 and 0"),
            ("--seeds", "-2", "1, 1 and -2"),
        ],
        ids=["no-strategy", "blank-strategies", "no-ratio", "no-seed", "negative-seeds"],
    )
    def test_an_empty_sweep_exits_one(self, tmp_path, capsys, option, value, got):
        """Each needs one more item: no solve runs and no file is written."""
        out = tmp_path / "sweep.csv"
        argv = ["sweep3sat", "--vars", "5", "--ratios", "3.0", "--seeds", "1"]
        code = main(argv + ["--strategies", "full", option, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a sweep needs at least one ratio, one strategy and one seed, "
            f"got {got}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["-1.0", "3.0,inf", "3,x"])
    def test_a_bad_ratio_exits_one(self, capsys, ratios):
        code = main(["sweep3sat", "--vars", "5", "--ratios", ratios, "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[0]["label"] in ("full", "lazy", "eager", "post")
        assert float(rows[0]["runtime_full"]) <= 500

    def test_a_spent_budget_labels_the_row_none(self, tmp_path, capsys):
        """The instance is UNSAT and needs 5 conflicts under `full`: with a
        budget of 0 every strategy times out, and the dataset reader drops
        the row."""
        from microasp.portfolio import read_dataset

        inst_dir = tmp_path / "unsat"
        inst_dir.mkdir()
        (inst_dir / "u.lp").write_text(bg.sat_program_text(bg.make_3sat(8, 6.0, 0)))
        out = tmp_path / "data.csv"
        code = main(
            ["bench", "--dir", str(inst_dir), "--conflicts", "0", "--out", str(out)]
        )
        assert code == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["label"] == "none"
        assert {row[f"runtime_{s}"] for s in ("full", "lazy", "eager", "post")} == {
            "0.0"
        }
        assert read_dataset(str(out))[0] == []

    def test_a_directory_that_does_not_exist_exits_one(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        missing = tmp_path / "missing"
        assert main(["bench", "--dir", str(missing), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --dir {missing} is not a directory\n"
        assert captured.out == "" and not out.exists()

    def test_out_defaults_to_dataset_csv(self, tmp_path, capsys, monkeypatch):
        inst_dir = tmp_path / "none"
        inst_dir.mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--dir", str(inst_dir)]) == 0
        assert capsys.readouterr().out == "wrote 0 rows to dataset.csv\n"
        assert (tmp_path / "dataset.csv").read_text().startswith("instance,")

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


    @pytest.fixture
    def tree_file(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text('{"label": "lazy", "counts": {"lazy": 1}}')
        return str(path)

    def test_train_without_out_writes_the_tree_to_stdout(self, tmp_path, capsys):
        from microasp.portfolio import Example, write_dataset

        examples = [
            Example(f"i{i}", {"x": float(i)}, "lazy" if i < 5 else "post", {})
            for i in range(10)
        ]
        data, tree = tmp_path / "d.csv", tmp_path / "tree.json"
        write_dataset(str(data), examples, ["x"])
        assert main(["portfolio", "train", "--data", str(data), "--out", str(tree)]) == 0
        assert main(["portfolio", "train", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert out == tree.read_text() and '"feature": "x"' in out

    def test_predict_reads_the_features_of_an_instance(self, tmp_path, capsys):
        """A tree that splits on the generic `facts` feature: pi1 has one."""
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "feature": "facts", "threshold": 0.5,
            "left": {"label": "lazy"}, "right": {"label": "post"},
        }))
        path = tmp_path / "p.lp"
        for text, want in (("a :- not b.\nb :- not a.\n", "lazy"), ("p(1).\n", "post")):
            path.write_text(text)
            assert main(
                ["portfolio", "predict", "--tree", str(tree), "--instance", str(path)]
            ) == 0
            assert capsys.readouterr().out == f"{want}\n"

    def test_predict_features_without_value(self, tree_file, capsys):
        code = main(["portfolio", "predict", "--tree", tree_file, "--features", "persons"])
        assert code == 1
        assert "error: --features expects name=value pairs, got 'persons'" in (
            capsys.readouterr().err
        )

    def test_predict_needs_features_or_instance(self, tree_file, capsys):
        assert main(["portfolio", "predict", "--tree", tree_file]) == 1
        assert "error: portfolio predict needs --features or --instance" in (
            capsys.readouterr().err
        )


    @pytest.mark.parametrize("action", ["train", "eval"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", ": no header with instance and label columns"),
            ("instance,x\ni0,1.0\n", ": no header with instance and label columns"),
            ("instance,x,label\ni0,1.0,lazy\ni1,2.0\n", ":3: 2 fields, the header has 3"),
            ("instance,x,label\ni0,1.0,lazy\n\n", ":3: 0 fields, the header has 3"),
        ],
        ids=["empty", "no-label", "short-row", "blank-line"],
    )
    def test_a_malformed_dataset_exits_one(self, tmp_path, capsys, action, text, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert main(["portfolio", action, "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {data}{message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "node, missing",
        [
            ({"feature": "x", "left": {"label": "a"}, "right": {"label": "b"}}, "threshold"),
            ({"feature": "x", "threshold": 1.0, "right": {"label": "b"}}, "left"),
            ({"feature": "x", "threshold": 1.0, "left": {"label": "a"}}, "right"),
            ({"feature": "x", "threshold": 1.0, "left": {}, "right": {"label": "b"}},
             "feature, left, right, threshold"),
        ],
    )
    def test_a_tree_node_that_is_no_split_exits_one(self, tmp_path, capsys, node, missing):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(node))
        code = main(["portfolio", "predict", "--tree", str(tree), "--features", "x=2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: a tree node has no label and no {missing}\n"
        assert captured.out == ""

    def test_a_tree_that_is_no_object_exits_one(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text("[1, 2]")
        code = main(["portfolio", "predict", "--tree", str(tree), "--features", "x=2"])
        assert code == 1
        assert capsys.readouterr().err == "error: a tree node is a JSON object, not list\n"


class TestDeterministicReports:
    def test_byte_identical_json(self, tmp_path, capsys):
        path = tmp_path / "inst.lp"
        path.write_text(bg.sat_program_text(bg.make_3sat(10, 4.2, 5)))
        outputs = []
        for _ in range(2):
            main(["solve", str(path), "--strategy", "lazy", "--seed", "3", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def _d_body(n):
    return ", ".join(f"d(X{k})" for k in range(n))


def _hostile_programs():
    """Programs that stress the parser and the grounder: long bodies over
    a one-constant domain, long sums, wide heads, integers near the digit
    limit, and runs of parentheses and punctuation, balanced or not."""
    deferred = st.sampled_from(["", "%@deferred\n"])
    long_body = st.tuples(deferred, st.integers(1, 130) | st.just(95)).map(
        lambda t: f"d(1).\n{t[0]}:- {_d_body(t[1])}.\n"
    )
    wide_head = st.integers(1, 300).map(
        lambda n: f"d(1).\np({','.join(f'X{k}' for k in range(n))}) :- {_d_body(n)}.\n"
    )
    long_sum = st.integers(2, 3000).map(
        lambda n: f"d(1).\np(X) :- d(Y), X = {'+'.join(['Y'] * n)}.\n"
    )
    near_limit = st.tuples(
        st.integers(max(DIGITS, 8) - 2, max(DIGITS, 8) + 1),
        st.sampled_from(["Y", "Y+0", "Y+1", "Y+Y", "Y+Y+Y"]),
    ).map(lambda t: f"d({'9' * t[0]}).\np(X) :- d(Y), X = {t[1]}.\n")
    punctuation = st.lists(
        st.sampled_from(["(", ")", "p", "q", "1", "X", ",", ".", ":-", "not ", " ", "\n"]),
        max_size=40,
    ).map(lambda parts: "q(1).\n" + "".join(parts))
    nested = st.tuples(st.integers(0, 300), st.integers(0, 300)).map(
        lambda t: f"p({'(' * t[0]}1{')' * t[1]}).\n"
    )
    return st.one_of(long_body, wide_head, long_sum, near_limit, punctuation, nested)


@st.composite
def _hostile_inputs(draw):
    """A hostile program, perhaps with a control byte put in anywhere, and
    a strategy to solve it with."""
    text = draw(_hostile_programs())
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        control = draw(st.sampled_from([chr(c) for c in (*range(32), 127)]))
        text = text[:at] + control + text[at:]
    return text, draw(st.sampled_from(["full", "lazy", "eager", "post"]))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_hostile_inputs())
def test_hostile_programs_solve_or_fail_at_a_location(tmp_path, case):
    """`solve` ends with exit 10, 20 or 30, or with exit 1 and a source
    location on stderr, and never raises."""
    text, kind = case
    path = tmp_path / "hostile.lp"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", str(path), "--strategy", kind, "--timeout-s", "10"])
    if code != 1:
        assert code in (10, 20, 30)
    else:
        assert re.search(r" at \d+:\d+", err.getvalue()), err.getvalue()[-300:]
