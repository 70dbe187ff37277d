"""Per-instance algorithm selection: feature extraction, a simplified C4.5
decision tree (numeric features, gain-ratio splits, no pruning), and a
stratified cross-validation harness reporting weighted metrics and the
runtime gain of the portfolio over its best single method.
"""
from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .grounder import herbrand_universe
from .model import Literal, Program
from .strategies import StrategyKind

FEATURE_SCHEMAS: dict[str, tuple[str, ...]] = {
    "marriage": ("persons", "pref_pct"),
    "generic": ("facts", "constants", "predicates"),
}

#: Runtime columns of the dataset CSV, in order.
RUNTIME_FIELDS = tuple(f"runtime_{kind.value}" for kind in StrategyKind)

MIN_SPLIT = 4


def extract_features(program: Program, family: str) -> dict[str, float]:
    """Schema-complete numeric feature vector for one instance."""
    if family == "marriage":
        persons = sum(
            1 for r in program.rules if r.is_fact and r.head.predicate == "man"
        )
        scores = [
            r.head.args[-1]
            for r in program.rules
            if r.is_fact
            and r.head.predicate in ("manAssignsScore", "womanAssignsScore")
        ]
        lowered = sum(1 for s in scores if s == 1)
        pct = 100.0 * lowered / len(scores) if scores else 0.0
        return {"persons": float(persons), "pref_pct": pct}
    if family == "generic":
        facts = sum(1 for r in program.rules if r.is_fact)
        predicates = set()
        for rule in program.rules:
            if rule.head is not None:
                predicates.add(rule.head.predicate)
            for elem in rule.body:
                if isinstance(elem, Literal):
                    predicates.add(elem.atom.predicate)
        return {
            "facts": float(facts),
            "constants": float(len(herbrand_universe(program))),
            "predicates": float(len(predicates)),
        }
    raise ValueError(f"unknown feature family {family!r}")


@dataclass(frozen=True)
class Example:
    name: str
    features: dict[str, float]
    label: str
    runtimes: dict[str, float] = field(default_factory=dict)


@dataclass
class TreeNode:
    label: Optional[str] = None
    counts: dict[str, int] = field(default_factory=dict)
    feature: Optional[str] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


def entropy(labels: Sequence[str]) -> float:
    total = len(labels)
    out = 0.0
    for count in Counter(labels).values():
        p = count / total
        out -= p * math.log2(p)
    return out


def information_gain(
    parent: Sequence[str], left: Sequence[str], right: Sequence[str]
) -> float:
    total = len(parent)
    return entropy(parent) - (
        len(left) / total * entropy(left) + len(right) / total * entropy(right)
    )


def _majority(counts: Counter[str], global_counts: Counter[str]) -> str:
    best = max(counts.values())
    tied = [label for label, c in counts.items() if c == best]
    if len(tied) > 1:
        globally = max(global_counts[label] for label in tied)
        tied = [label for label in tied if global_counts[label] == globally]
    return sorted(tied)[0]


def train(data: Sequence[tuple[dict[str, float], str]]) -> TreeNode:
    """Recursive gain-ratio splitting on numeric features.

    Splitting stops on pure nodes, nodes below MIN_SPLIT examples, and when
    no candidate threshold has positive gain ratio; leaves take the majority
    label, ties broken by the globally more frequent label then
    lexicographically.
    """
    if not data:
        raise ValueError("empty dataset")
    global_counts = Counter(label for _, label in data)
    features = sorted(data[0][0])

    def leaf(rows: Sequence[tuple[dict[str, float], str]]) -> TreeNode:
        counts = Counter(label for _, label in rows)
        return TreeNode(label=_majority(counts, global_counts), counts=dict(counts))

    def build(rows: Sequence[tuple[dict[str, float], str]]) -> TreeNode:
        labels = [label for _, label in rows]
        if len(set(labels)) == 1 or len(rows) < MIN_SPLIT:
            return leaf(rows)
        best = None  # (ratio, feature, threshold, left_rows, right_rows)
        for feature in features:
            values = sorted({fv[feature] for fv, _ in rows})
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                left = [row for row in rows if row[0][feature] <= threshold]
                right = [row for row in rows if row[0][feature] > threshold]
                gain = information_gain(
                    labels,
                    [l for _, l in left],
                    [l for _, l in right],
                )
                if gain <= 1e-12:
                    continue
                split_info = entropy(
                    ["L"] * len(left) + ["R"] * len(right)
                )
                ratio = gain / split_info
                if (
                    best is None
                    or ratio > best[0] + 1e-12
                    or (
                        abs(ratio - best[0]) <= 1e-12
                        and (feature, threshold) < (best[1], best[2])
                    )
                ):
                    best = (ratio, feature, threshold, left, right)
        if best is None:
            return leaf(rows)
        _, feature, threshold, left, right = best
        node = TreeNode(feature=feature, threshold=threshold)
        node.left = build(left)
        node.right = build(right)
        return node

    return build(list(data))


def predict(tree: TreeNode, features: dict[str, float]) -> str:
    node = tree
    while not node.is_leaf:
        if node.feature not in features:
            raise ValueError(f"feature vector lacks {node.feature!r}")
        if features[node.feature] <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node.label


def tree_to_json(tree: TreeNode) -> str:
    def encode(node: TreeNode) -> dict:
        if node.is_leaf:
            return {"label": node.label, "counts": node.counts}
        return {
            "feature": node.feature,
            "threshold": node.threshold,
            "left": encode(node.left),
            "right": encode(node.right),
        }

    return json.dumps(encode(tree), indent=2, sort_keys=True) + "\n"


#: The test and the description of each valued field of a tree node.
_TREE_FIELDS = {
    "label": (lambda v: isinstance(v, str), "a string"),
    "counts": (
        lambda v: isinstance(v, dict)
        and all(type(c) is int and c >= 0 for c in v.values()),
        "a map of labels to non-negative integers",
    ),
    "feature": (lambda v: isinstance(v, str), "a string"),
    "threshold": (
        lambda v: type(v) is int or type(v) is float and math.isfinite(v),
        "a finite number",
    ),
}


def tree_from_json(text: str) -> TreeNode:
    """Decode `tree_to_json`'s text.  A node that is neither a leaf (a
    `label`) nor a split (`feature`, `threshold`, `left` and `right`), a
    field whose value `_TREE_FIELDS` rejects, or nesting too deep to
    decode is a `ValueError`."""

    def decode(obj: dict) -> TreeNode:
        if not isinstance(obj, dict):
            raise ValueError(f"a tree node is a JSON object, not {type(obj).__name__}")
        for key, (valid, what) in _TREE_FIELDS.items():
            if key in obj and not valid(obj[key]):
                raise ValueError(f"a tree node's {key} is {what}, not {json.dumps(obj[key])}")
        if "label" in obj:
            return TreeNode(label=obj["label"], counts=obj.get("counts", {}))
        missing = {"feature", "threshold", "left", "right"} - obj.keys()
        if missing:
            missing = ", ".join(sorted(missing))
            raise ValueError(f"a tree node has no label and no {missing}")
        return TreeNode(
            feature=obj["feature"],
            threshold=obj["threshold"],
            left=decode(obj["left"]),
            right=decode(obj["right"]),
        )

    try:
        return decode(json.loads(text))
    except RecursionError:
        raise ValueError("the tree is nested too deeply to decode") from None


def finite_float(text: str, where: str) -> float:
    """The finite number `text` spells; anything else, `nan` and `inf`
    included, is a `ValueError` that `where` begins."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {text!r} is not a finite number")
    return value


def _stratified_folds(
    examples: Sequence[Example], folds: int, seed: int
) -> list[list[int]]:
    """Deal each label group round-robin into folds after a seeded shuffle."""
    rng = random.Random(seed)
    by_label: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_label.setdefault(ex.label, []).append(i)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    fold = 0
    for label in sorted(by_label):
        indices = by_label[label]
        rng.shuffle(indices)
        for idx in indices:
            assignment[fold % folds].append(idx)
            fold += 1
    return assignment


def weighted_metrics(pairs: Sequence[tuple[str, str]]) -> dict[str, float]:
    """Precision, recall, and f-measure averaged with class-support weights."""
    labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    total = len(pairs)
    precision = recall = fmeasure = 0.0
    for label in labels:
        tp = sum(1 for t, p in pairs if t == label and p == label)
        fp = sum(1 for t, p in pairs if t != label and p == label)
        fn = sum(1 for t, p in pairs if t == label and p != label)
        support = tp + fn
        if support == 0:
            continue
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / support
        f = 2 * p * r / (p + r) if p + r else 0.0
        weight = support / total
        precision += weight * p
        recall += weight * r
        fmeasure += weight * f
    return {"precision": precision, "recall": recall, "f_measure": fmeasure}


def cross_validate(
    examples: Sequence[Example], folds: int = 10, seed: int = 0
) -> dict:
    """Stratified k-fold evaluation.

    The gain is the percentage difference between the summed runtime of the
    cross-validated predictions and of the single best method; it is omitted
    when the examples carry no runtimes.  At least two folds, each dealt at
    least one example, leave every fold training data.
    """
    if folds < 2 or len(examples) < folds:
        raise ValueError("need at least two folds and as many examples as folds")
    assignment = _stratified_folds(examples, folds, seed)
    pairs: list[tuple[str, str]] = []
    predicted: list[Optional[str]] = [None] * len(examples)
    for fold in assignment:
        test = set(fold)
        training = [
            (ex.features, ex.label)
            for i, ex in enumerate(examples)
            if i not in test
        ]
        tree = train(training)
        for idx in fold:
            predicted[idx] = predict(tree, examples[idx].features)
            pairs.append((examples[idx].label, predicted[idx]))
    report = weighted_metrics(pairs)
    report["folds"] = folds
    report["examples"] = len(examples)
    strategies = sorted(
        set.intersection(*(set(ex.runtimes) for ex in examples))
        if examples and all(ex.runtimes for ex in examples)
        else set()
    )
    if strategies:
        portfolio_time = 0.0
        for ex, pred in zip(examples, predicted):
            portfolio_time += ex.runtimes.get(pred, max(ex.runtimes.values()))
        single_totals = {
            s: sum(ex.runtimes[s] for ex in examples) for s in strategies
        }
        best_single = min(single_totals.values())
        report["portfolio_runtime"] = portfolio_time
        report["best_single_runtime"] = best_single
        report["gain_pct"] = (
            100.0 * (best_single - portfolio_time) / best_single
            if best_single > 0
            else 0.0
        )
    return report


def write_dataset(path: str, examples: Sequence[Example], schema: Sequence[str]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["instance", *schema, "label", *RUNTIME_FIELDS])
        for ex in examples:
            runtimes = [ex.runtimes.get(f.removeprefix("runtime_")) for f in RUNTIME_FIELDS]
            writer.writerow(
                [ex.name, *(repr(ex.features[f]) for f in schema), ex.label]
                + ["" if t is None else repr(t) for t in runtimes]
            )


def read_dataset(path: str) -> tuple[list[Example], list[str]]:
    """Load a dataset CSV; rows labelled `none` are kept out of the result.
    A file without a header that has `instance` and `label` columns, with a
    row whose length is not the header's, or with a feature or runtime
    cell that is not a finite number, is a `ValueError`, and so is a line
    the `csv` module cannot read, such as a cell over its field limit."""
    examples: list[Example] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)

        def lines() -> Iterator[list[str]]:
            try:
                yield from reader
            except csv.Error as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None

        rows = lines()
        header = next(rows, [])
        if not {"instance", "label"} <= set(header):
            raise ValueError(f"{path}: no header with instance and label columns")
        schema = [
            col
            for col in header
            if col not in ("instance", "label", *RUNTIME_FIELDS)
        ]
        for row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            record = dict(zip(header, row))
            if record["label"] == "none":
                continue
            where = f"{path}:{reader.line_num}: column"
            runtimes = {
                f.removeprefix("runtime_"): finite_float(record[f], f"{where} {f}")
                for f in RUNTIME_FIELDS
                if record.get(f)
            }
            examples.append(
                Example(
                    record["instance"],
                    {f: finite_float(record[f], f"{where} {f}") for f in schema},
                    record["label"],
                    runtimes,
                )
            )
    return examples, schema
