"""Question-type prediction and type-to-preset routing.

A bag-of-words multinomial logistic regression predicts a question type
from raw text; a routing table fitted from a per-type validation accuracy
table maps that type to the preset that scored best for it.  Both halves
are deterministic: training is full-batch gradient descent from zero
initialization, and every argmax has a fixed tie order.

File formats (all UTF-8):
  - training data: one ``type<TAB>question`` pair per line;
  - model: JSON with ``types``, ``vocabulary``, ``weights`` (row-major),
    ``featurization``;
  - routing table: JSON with ``mapping`` and ``provenance``; the mapping
    must be the one :func:`fit_routing` picks from the provenance;
  - accuracy table: CSV with header ``type`` then the ``PRESET_ORDER`` names.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    FormatError,
    IncompleteTableError,
    MissingClassError,
    ParameterError,
    RoutingGapError,
)
from .fileio import all_of_kind, read_json, read_text, require_key, write_json
from .selection import DEFAULT_LAMBDA, Preset, make_preset

TOKEN_RE = re.compile(r"[a-z0-9]+")

FEATURIZATION = f"token-counts:lowercase:{TOKEN_RE.pattern}"

DEFAULT_TYPES = (
    "plotQA",
    "needle",
    "ego",
    "count",
    "order",
    "anomaly_reco",
    "topic_reasoning",
)

DEFAULT_EPOCHS = 10
DEFAULT_LEARNING_RATE = 0.5

# Fixed tie order for routing-table argmax.
PRESET_ORDER = (
    "relevance_only",
    "relevance_oriented",
    "coverage_oriented",
    "coverage_only",
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class QuestionTypeModel:
    """Multinomial logistic regression over token counts.

    ``weights`` is |types| x (|vocabulary| + 1); the last column is the
    bias, the rest weigh ``FEATURIZATION`` token counts.  ``training_loss``
    holds the mean cross-entropy before training and after each epoch run
    (training may stop early); it is diagnostics only and is not serialized.
    """

    types: tuple[str, ...]
    vocabulary: dict[str, int]
    weights: np.ndarray
    training_loss: tuple[float, ...] = field(default=(), compare=False)


def _infer_types(labels: list[str]) -> tuple[str, ...]:
    seen = list(dict.fromkeys(labels))
    if set(seen) <= set(DEFAULT_TYPES):
        return tuple(t for t in DEFAULT_TYPES if t in set(seen))
    return tuple(seen)


def _featurize(texts: list[str], vocabulary: dict[str, int]) -> np.ndarray:
    x = np.zeros((len(texts), len(vocabulary) + 1))
    for row, text in enumerate(texts):
        for token in tokenize(text):
            col = vocabulary.get(token)
            if col is not None:
                x[row, col] += 1.0
    x[:, -1] = 1.0
    return x


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def train_classifier(
    examples: list[tuple[str, str]],
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    types: tuple[str, ...] | None = None,
) -> QuestionTypeModel:
    """Fit the classifier by full-batch gradient descent on cross-entropy.

    Weights start at zero.  Any step that would raise the loss is retried
    at half the rate (the halving persists), so the per-epoch training
    loss never increases.  Training stops early at a step that is rejected
    below a rate of 1e-12 or leaves the weights unchanged.

    Args:
        examples: (question text, type label) pairs.
        epochs: gradient steps to run at most, >= 1.
        learning_rate: initial full-batch step size.
        types: declared label list; inferred from the examples when None
            (default-type order when all labels are default types).

    Raises:
        MissingClassError: a declared type has no examples, or fewer than
            two distinct labels are present.
        DegenerateDataError: no text produces any token.
        ParameterError: a label outside the declared types, a repeated
            declared type, or bad hyperparameters.
    """
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < learning_rate < math.inf:
        raise ParameterError(f"learning rate must be positive and finite, got {learning_rate}")
    texts = [text for text, _ in examples]
    labels = [label for _, label in examples]
    if types is None:
        declared = _infer_types(labels)
    else:
        declared = tuple(types)
        if len(set(declared)) < len(declared):
            raise ParameterError(f"declared types repeat: {list(declared)}")
    counts = {t: labels.count(t) for t in declared}
    missing = [t for t in declared if counts[t] == 0]
    if not examples or missing:
        raise MissingClassError(f"no training examples for types: {missing or list(declared)}")
    if len(declared) < 2:
        raise MissingClassError(f"need at least two classes, got {list(declared)}")
    unknown = sorted(set(labels) - set(declared))
    if unknown:
        raise ParameterError(f"labels outside the declared types: {unknown}")

    vocabulary = {token: i for i, token in enumerate(sorted({t for text in texts for t in tokenize(text)}))}
    if not vocabulary:
        raise DegenerateDataError("training texts contain no tokens")

    x = _featurize(texts, vocabulary)
    y = np.array([declared.index(label) for label in labels])
    m, n_classes = len(examples), len(declared)
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), y] = 1.0

    def mean_loss(w: np.ndarray) -> float:
        logp = _log_softmax(x @ w.T)
        return float(-logp[np.arange(m), y].mean())

    weights = np.zeros((n_classes, len(vocabulary) + 1))
    losses = [mean_loss(weights)]
    rate = float(learning_rate)
    # A rate too large overflows to a NaN loss, which the halving rule
    # rejects like any loss increase, so overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            probs = np.exp(_log_softmax(x @ weights.T))
            grad = (probs - onehot).T @ x / m
            while True:
                stepped = weights - rate * grad
                new_loss = mean_loss(stepped)
                if new_loss <= losses[-1] or rate < 1e-12:
                    break
                rate *= 0.5
            # Every later epoch would repeat this step: the weights are final.
            if not new_loss <= losses[-1] or np.array_equal(stepped, weights):
                break
            weights = stepped
            losses.append(new_loss)
    return QuestionTypeModel(
        types=declared,
        vocabulary=vocabulary,
        weights=weights,
        training_loss=tuple(losses),
    )


def predict_type(model: QuestionTypeModel, text: str) -> tuple[str, np.ndarray]:
    """Predict the question type; returns (type, class probability vector).

    Out-of-vocabulary tokens are ignored; text with no known tokens is
    scored on the bias column alone.  Ties go to the earlier type.
    """
    x = _featurize([text], model.vocabulary)[0]
    # Huge finite weights can overflow the logits; the argmax stays deterministic.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = model.weights @ x
        probs = np.exp(_log_softmax(logits))
    return model.types[int(np.argmax(logits))], probs


@dataclass(frozen=True)
class ClassifierEvaluation:
    """Accuracy plus a true-type x predicted-type confusion matrix."""

    accuracy: float
    confusion: np.ndarray
    total: int


def evaluate_classifier(
    model: QuestionTypeModel,
    examples: list[tuple[str, str]],
) -> ClassifierEvaluation:
    index = {t: i for i, t in enumerate(model.types)}
    unknown = sorted({label for _, label in examples} - set(model.types))
    if unknown:
        raise ParameterError(f"labels outside the model's types: {unknown}")
    confusion = np.zeros((len(model.types), len(model.types)), dtype=np.int64)
    hits = 0
    for text, label in examples:
        predicted, _ = predict_type(model, text)
        confusion[index[label], index[predicted]] += 1
        hits += predicted == label
    total = len(examples)
    accuracy = hits / total if total else 0.0
    return ClassifierEvaluation(accuracy=accuracy, confusion=confusion, total=total)


@dataclass(frozen=True)
class RoutingTable:
    """Per-type best preset, with the accuracy table it came from."""

    mapping: dict[str, str]
    provenance: dict[str, dict[str, float]]


def _are_accuracies(values) -> bool:
    """Finite numbers in [0, 1]: the rule for every validation accuracy read."""
    return all_of_kind(values, float) and all(0.0 <= a <= 1.0 for a in values)


def fit_routing(accuracy_table: dict[str, dict[str, float]]) -> RoutingTable:
    """Pick, per type, the preset with the highest validation accuracy.

    Ties go to the preset earlier in ``PRESET_ORDER``.

    Raises:
        IncompleteTableError: empty table, or a type missing a preset cell
            or holding a cell for a name outside ``PRESET_ORDER``.
    """
    if not accuracy_table:
        raise IncompleteTableError("empty accuracy table")
    mapping: dict[str, str] = {}
    provenance: dict[str, dict[str, float]] = {}
    for qtype, row in accuracy_table.items():
        missing = [p for p in PRESET_ORDER if p not in row]
        if missing:
            raise IncompleteTableError(f"type {qtype!r} lacks accuracy for presets: {missing}")
        unknown = [p for p in row if p not in PRESET_ORDER]
        if unknown:
            raise IncompleteTableError(f"type {qtype!r} has accuracy for unknown presets: {unknown}")
        best = PRESET_ORDER[0]
        for name in PRESET_ORDER[1:]:
            if row[name] > row[best]:
                best = name
        mapping[qtype] = best
        provenance[qtype] = {name: float(value) for name, value in row.items()}
    return RoutingTable(mapping=mapping, provenance=provenance)


def route_for_type(table: RoutingTable, qtype: str, lam: float = DEFAULT_LAMBDA) -> Preset:
    """Oracle-routing bypass: look up the preset for a ground-truth type."""
    if qtype not in table.mapping:
        raise RoutingGapError(f"no preset mapped for question type {qtype!r}")
    return make_preset(table.mapping[qtype], lam)


def route(model: QuestionTypeModel, table: RoutingTable, text: str, lam: float = DEFAULT_LAMBDA) -> Preset:
    """Predict the question's type, then apply that type's preset."""
    qtype, _ = predict_type(model, text)
    return route_for_type(table, qtype, lam)


def model_doc(model: QuestionTypeModel) -> dict:
    return {
        "types": list(model.types),
        "vocabulary": dict(model.vocabulary),
        "weights": [float(w) for w in model.weights.ravel()],
        "featurization": FEATURIZATION,
    }


def write_model(model: QuestionTypeModel, path) -> None:
    write_json(path, model_doc(model))


def read_model(path) -> QuestionTypeModel:
    doc = read_json(path)
    where = str(path)
    types = require_key(doc, "types", list, where, of=str)
    vocabulary = require_key(doc, "vocabulary", dict, where, of=int)
    weights = require_key(doc, "weights", list, where, of=float)
    featurization = require_key(doc, "featurization", str, where)
    if featurization != FEATURIZATION:
        raise FormatError(f"{where}: featurization {featurization!r} is not {FEATURIZATION!r}")
    if not types or len(set(types)) < len(types):
        raise FormatError(f"{where}: types must be a non-empty list of distinct strings")
    if sorted(vocabulary.values()) != list(range(len(vocabulary))):
        raise FormatError(f"{where}: vocabulary indices must cover 0..{len(vocabulary) - 1}")
    expected = len(types) * (len(vocabulary) + 1)
    if len(weights) != expected:
        raise FormatError(f"{where}: expected {expected} weights, got {len(weights)}")
    return QuestionTypeModel(
        types=tuple(types),
        vocabulary=vocabulary,
        weights=np.array(weights, dtype=np.float64).reshape(len(types), len(vocabulary) + 1),
    )


def routing_table_doc(table: RoutingTable) -> dict:
    return {
        "mapping": dict(table.mapping),
        "provenance": {t: dict(row) for t, row in table.provenance.items()},
    }


def write_routing_table(table: RoutingTable, path) -> None:
    write_json(path, routing_table_doc(table))


def read_routing_table(path) -> RoutingTable:
    """Load a routing table whose mapping is the one its provenance fits.

    Provenance accuracies are finite numbers in [0, 1].  :func:`fit_routing`
    refits the mapping from them, ties going to the earlier preset, and
    the file's ``mapping`` must equal the refit one, which is returned.
    """
    doc = read_json(path)
    where = str(path)
    mapping = require_key(doc, "mapping", dict, where)
    provenance = require_key(doc, "provenance", dict, where, of=dict)
    for qtype, row in provenance.items():
        if not _are_accuracies(row.values()):
            raise FormatError(f"{where}: type {qtype!r} accuracies must be finite numbers in [0, 1]")
    try:
        table = fit_routing(provenance)
    except IncompleteTableError as exc:
        raise FormatError(f"{where}: {exc}") from None
    if table.mapping != mapping:
        raise FormatError(f"{where}: mapping is not the best preset per type that provenance gives")
    return table


def read_training_examples(path) -> list[tuple[str, str]]:
    """Parse ``type<TAB>question`` lines into (text, type) pairs."""
    examples: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{lineno}: expected type<TAB>question")
        qtype, question = line.split("\t", 1)
        if not qtype:
            raise FormatError(f"{path}:{lineno}: empty type label")
        examples.append((question, qtype))
    return examples


def read_accuracy_table(path) -> dict[str, dict[str, float]]:
    """Parse the accuracy CSV into a type -> preset -> accuracy table."""
    expected_header = ["type", *PRESET_ORDER]
    try:
        rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise FormatError(f"{path}: not valid CSV: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: empty accuracy table")
    if rows[0] != expected_header:
        raise IncompleteTableError(
            f"{path}: header must be {','.join(expected_header)}, got {','.join(rows[0])}"
        )
    table: dict[str, dict[str, float]] = {}
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(expected_header):
            raise IncompleteTableError(
                f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}"
            )
        qtype = row[0]
        if qtype in table:
            raise FormatError(f"{path}:{lineno}: duplicate type {qtype!r}")
        cells: dict[str, float] = {}
        for name, text in zip(PRESET_ORDER, row[1:]):
            try:
                value = float(text)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: accuracy {text!r} is not a number") from None
            if not _are_accuracies((value,)):
                raise FormatError(f"{path}:{lineno}: accuracy {value} outside [0, 1]")
            cells[name] = value
        table[qtype] = cells
    return table
