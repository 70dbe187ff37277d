import math

import pytest

from microasp import benchgen as bg
from microasp.parser import parse_program
from microasp.portfolio import (
    Example,
    cross_validate,
    entropy,
    extract_features,
    information_gain,
    predict,
    train,
    tree_from_json,
    tree_to_json,
    read_dataset,
    write_dataset,
)


class TestFeatures:
    def test_marriage_features(self):
        program = bg.gen_marriage(20, 35, 4)
        fv = extract_features(program, "marriage")
        assert fv == {"persons": 20.0, "pref_pct": 35.0}

    def test_generic_features(self):
        text = (
            "p(1). p(2). p(3). p(4). p(5). q(a). q(2). "
            "r(1). r(2). r(3). r(4). r(5).\n"
        )
        fv = extract_features(parse_program(text), "generic")
        assert fv == {"facts": 12.0, "constants": 6.0, "predicates": 3.0}

    def test_empty_program(self):
        fv = extract_features(parse_program(""), "generic")
        assert fv == {"facts": 0.0, "constants": 0.0, "predicates": 0.0}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            extract_features(parse_program(""), "mystery")


class TestTrain:
    def test_single_class_dataset(self):
        tree = train([({"x": 1.0}, "lazy"), ({"x": 2.0}, "lazy")])
        assert tree.is_leaf and tree.label == "lazy"

    def test_perfectly_separable_one_feature(self):
        data = [({"x": float(v)}, "lazy" if v < 5 else "post") for v in range(10)]
        tree = train(data)
        assert not tree.is_leaf
        assert tree.feature == "x"
        assert all(predict(tree, fv) == label for fv, label in data)

    def test_info_gain_of_perfect_split_is_one_bit(self):
        parent = ["a"] * 5 + ["b"] * 5
        assert math.isclose(information_gain(parent, ["a"] * 5, ["b"] * 5), 1.0)

    def test_entropy_bounds(self):
        assert entropy([]) == 0.0
        assert entropy(["x"] * 7) == 0.0
        assert math.isclose(entropy(["a", "b"]), 1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([])

    def test_small_nodes_are_not_split(self):
        data = [({"x": 0.0}, "a"), ({"x": 1.0}, "b"), ({"x": 2.0}, "a")]
        tree = train(data)
        assert tree.is_leaf

    def test_leaf_tie_breaks_by_global_frequency(self):
        data = [
            ({"x": 0.0}, "post"),
            ({"x": 0.0}, "lazy"),
            ({"x": 0.0}, "lazy"),
            ({"x": 0.0}, "post"),
            ({"x": 0.0}, "post"),
        ]
        tree = train(data)
        assert tree.is_leaf and tree.label == "post"

    def test_tied_leaves_keep_their_tie_breaks(self):
        """Leaf ties broken by the global count (post over lazy, post over
        eager) and lexicographically (eager, full and lazy are each global
        3 times): the bytes the tree has always had."""
        rows = [
            (0, 0, "post"), (0, 0, "lazy"), (0, 0, "lazy"), (0, 0, "post"),
            (5, 1, "eager"), (5, 1, "full"), (5, 2, "lazy"),
            (9, 3, "full"), (9, 3, "full"),
            (9, 4, "eager"), (9, 4, "post"), (9, 4, "post"), (9, 4, "eager"),
        ]
        tree = train([({"x": float(x), "y": float(y)}, label) for x, y, label in rows])
        assert tree_to_json(tree) == TIED_TREE_JSON


TIED_TREE_JSON = (
    '{\n  "feature": "x",\n  "left": {\n    "counts": {\n      "lazy": 2,\n'
    '      "post": 2\n    },\n    "label": "post"\n  },\n  "right": {\n'
    '    "feature": "y",\n    "left": {\n      "feature": "x",\n      "left": {\n'
    '        "counts": {\n          "eager": 1,\n          "full": 1,\n'
    '          "lazy": 1\n        },\n        "label": "eager"\n      },\n'
    '      "right": {\n        "counts": {\n          "full": 2\n        },\n'
    '        "label": "full"\n      },\n      "threshold": 7.0\n    },\n'
    '    "right": {\n      "counts": {\n        "eager": 2,\n        "post": 2\n'
    '      },\n      "label": "post"\n    },\n    "threshold": 3.5\n  },\n'
    '  "threshold": 2.5\n}\n'
)


class TestPredict:
    def test_root_only_tree(self):
        tree = train([({"x": 1.0}, "eager")])
        assert predict(tree, {"x": 99.0}) == "eager"

    def test_separable_tree_prediction(self):
        data = [({"x": float(v)}, "lazy" if v < 5 else "post") for v in range(10)]
        tree = train(data)
        assert predict(tree, {"x": 3.0}) == "lazy"

    def test_boundary_goes_left(self):
        from microasp.portfolio import TreeNode

        tree = TreeNode(
            feature="x",
            threshold=5.0,
            left=TreeNode(label="lazy"),
            right=TreeNode(label="post"),
        )
        assert predict(tree, {"x": 5.0}) == "lazy"

    def test_schema_mismatch(self):
        data = [({"x": float(v)}, "lazy" if v < 5 else "post") for v in range(10)]
        tree = train(data)
        with pytest.raises(ValueError):
            predict(tree, {"y": 1.0})

    def test_json_round_trip(self):
        data = [({"x": float(v)}, "lazy" if v < 5 else "post") for v in range(10)]
        tree = train(data)
        again = tree_from_json(tree_to_json(tree))
        for v in range(10):
            assert predict(again, {"x": float(v)}) == predict(tree, {"x": float(v)})


def synthetic_examples(n=40):
    out = []
    for i in range(n):
        label = "lazy" if i % 2 == 0 else "post"
        x = float(i % 10) + (0.0 if label == "lazy" else 100.0)
        runtimes = {
            "full": 50.0,
            "lazy": 1.0 if label == "lazy" else 90.0,
            "eager": 60.0,
            "post": 1.0 if label == "post" else 90.0,
        }
        out.append(Example(f"i{i}", {"x": x}, label, runtimes))
    return out


class TestCrossValidate:
    def test_perfectly_separable(self):
        report = cross_validate(synthetic_examples(), folds=10, seed=0)
        assert report["f_measure"] >= 0.95
        assert report["gain_pct"] >= 0.0

    def test_single_class(self):
        examples = [Example(f"i{i}", {"x": float(i)}, "full", {}) for i in range(12)]
        report = cross_validate(examples, folds=10, seed=1)
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert "gain_pct" not in report

    def test_oracle_portfolio_gain_nonnegative(self):
        examples = synthetic_examples()
        totals = {
            s: sum(ex.runtimes[s] for ex in examples)
            for s in ("full", "lazy", "eager", "post")
        }
        best = min(totals.values())
        ideal = sum(min(ex.runtimes.values()) for ex in examples)
        assert ideal <= best

    def test_folds_partition_exactly(self):
        from microasp.portfolio import _stratified_folds

        examples = synthetic_examples(23)
        folds = _stratified_folds(examples, 10, seed=3)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(23))

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            cross_validate(synthetic_examples(5), folds=10)


def test_dataset_round_trip(tmp_path):
    examples = synthetic_examples(8)
    path = tmp_path / "data.csv"
    write_dataset(str(path), examples, ["x"])
    loaded, schema = read_dataset(str(path))
    assert schema == ["x"]
    assert [ex.name for ex in loaded] == [ex.name for ex in examples]
    assert loaded[0].runtimes == examples[0].runtimes


def test_dataset_skips_none_label(tmp_path):
    examples = synthetic_examples(4) + [Example("bad", {"x": 0.0}, "none", {})]
    path = tmp_path / "data.csv"
    write_dataset(str(path), examples, ["x"])
    loaded, _ = read_dataset(str(path))
    assert all(ex.label != "none" for ex in loaded)
    assert len(loaded) == 4
