"""Question-type prediction and type-to-preset routing.

A bag-of-words multinomial logistic regression predicts a question type
from raw text; a routing table derived from a per-type validation accuracy
table maps that type to the preset that scored best for it.  Both halves
are deterministic: training is full-batch gradient descent from zero
initialization, and every argmax has one tie order, ``PRESET_ORDER``.

File formats (all UTF-8):
  - training data: one ``type<TAB>question`` pair per line;
  - model: JSON with ``types``, ``vocabulary``, ``weights`` (row-major),
    ``featurization``; ``QuestionTypeModel`` checks the first three;
  - routing table: JSON with ``mapping`` and ``provenance``; ``RoutingTable``
    checks the provenance and derives the mapping the file must hold;
  - accuracy table: CSV with header ``type`` then the ``PRESET_ORDER`` names.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, FormatError, ParameterError
from .fileio import all_of_kind, in_file, read_json, read_text, require_key, write_json
from .pool import _count, _finite, _floats
from .selection import DEFAULT_LAMBDA, PRESET_ORDER, Preset, make_preset

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


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, eq=False)
class QuestionTypeModel:
    """Multinomial logistic regression over token counts.

    ``weights`` is read-only |types| x (|vocabulary| + 1) float64, row-major
    if flat; the last column is the bias, the rest weigh ``FEATURIZATION``
    token counts.  ``training_loss``, the mean cross-entropy before training
    and after each epoch run (training may stop early), is not serialized.

    Raises:
        ParameterError: no types, a repeated or empty type, a vocabulary key
            not a string, vocabulary indices not covering 0..V-1, or weights
            not |types| x (V + 1) finite numbers.
    """

    types: tuple[str, ...]
    vocabulary: dict[str, int]
    weights: np.ndarray
    training_loss: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _refuse_bad_types(self.types)
        if not all_of_kind(self.vocabulary, str):
            raise ParameterError("vocabulary keys must be strings")
        indices = self.vocabulary.values()
        if not all_of_kind(indices, int) or sorted(indices) != list(range(len(indices))):
            raise ParameterError(f"vocabulary indices must cover 0..{len(indices) - 1}")
        shape = (len(self.types), len(self.vocabulary) + 1)
        weights = _floats(self.weights, "weights must be an array of numbers", copy=True, overflow="weights must be finite numbers")
        if weights.shape not in ((shape[0] * shape[1],), shape):
            raise ParameterError(f"expected {shape[0] * shape[1]} weights, got {weights.size if weights.ndim == 1 else weights.shape}")
        if not np.isfinite(weights).all():
            raise ParameterError("weights must be finite numbers")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights.reshape(shape))


def _refuse_bad_types(types) -> None:
    """A model's types are distinct, non-empty strings, at least one: checked on building and before training."""
    if not types or not all_of_kind(types, str) or len(set(types)) < len(types):
        raise ParameterError("types must be a non-empty list of distinct strings")
    _refuse_empty_type(types)


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
        epochs: gradient steps to run at most, an integer >= 1 (not a bool).
        learning_rate: initial full-batch step size.
        types: declared label list; inferred from the examples when None
            (default-type order when all labels are default types).

    Raises:
        ParameterError: a declared type has no examples, fewer than two
            distinct labels are present, no text produces any token, a label
            lies outside the declared types, a declared type is repeated or
            empty, or a hyperparameter is bad.
    """
    epochs = _count("epochs", epochs)
    if not (_finite(learning_rate) and learning_rate > 0):
        raise ParameterError(f"learning rate must be positive and finite, got {learning_rate!r}")
    texts = [text for text, _ in examples]
    labels = [label for _, label in examples]
    if types is None:
        declared = _infer_types(labels)
    else:
        declared = tuple(types)
        _refuse_bad_types(declared)  # before the example check: a bad declared list is named as such
    missing = [t for t in declared if t not in labels]
    if not examples or missing:
        raise ParameterError(f"no training examples for types: {missing or list(declared)}")
    if len(declared) < 2:
        raise ParameterError(f"need at least two classes, got {list(declared)}")
    _refuse_bad_types(declared)  # inferred types meet the rule once each has examples
    unknown = sorted(set(labels) - set(declared))
    if unknown:
        raise ParameterError(f"labels outside the declared types: {unknown}")

    vocabulary = {token: i for i, token in enumerate(sorted({t for text in texts for t in tokenize(text)}))}
    if not vocabulary:
        raise ParameterError("training texts contain no tokens")

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


@dataclass(frozen=True, eq=False)
class ClassifierEvaluation:
    """Accuracy plus a true-type x predicted-type confusion matrix."""

    accuracy: float
    confusion: np.ndarray
    total: int


def evaluate_classifier(
    model: QuestionTypeModel,
    examples: list[tuple[str, str]],
) -> ClassifierEvaluation:
    """Score ``model`` on labelled (text, type) ``examples``; an empty list has accuracy 0.0.

    Raises:
        ParameterError: a label that is not one of the model's types.
    """
    index = {t: i for i, t in enumerate(model.types)}
    unknown = sorted({label for _, label in examples} - set(model.types))
    if unknown:
        raise ParameterError(f"labels outside the model's types: {unknown}")
    confusion = np.zeros((len(model.types), len(model.types)), dtype=np.int64)
    for text, label in examples:
        predicted, _ = predict_type(model, text)
        confusion[index[label], index[predicted]] += 1
    total = len(examples)
    accuracy = int(np.trace(confusion)) / total if total else 0.0
    return ClassifierEvaluation(accuracy=accuracy, confusion=confusion, total=total)


@dataclass(frozen=True)
class RoutingTable:
    """Per-type best preset, derived from the accuracy table it keeps.

    ``provenance`` holds a float accuracy per type and ``PRESET_ORDER`` name.
    ``mapping`` is derived from it, never passed in: each type's most accurate
    preset, ties to the earlier in ``PRESET_ORDER``.

    Raises:
        ParameterError: an empty type, or an accuracy not an int or float in [0, 1].
        FormatError: an empty table, or a type missing a cell or naming another.
    """

    provenance: dict[str, dict[str, float]]
    mapping: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        _refuse_empty_type(self.provenance)
        for qtype, row in self.provenance.items():
            if not _are_accuracies(row.values()):
                raise ParameterError(f"type {qtype!r} accuracies must be finite numbers in [0, 1]")
        if not self.provenance:
            raise FormatError("empty accuracy table")
        for qtype, row in self.provenance.items():
            missing = [p for p in PRESET_ORDER if p not in row]
            if missing:
                raise FormatError(f"type {qtype!r} lacks accuracy for presets: {missing}")
            unknown = [p for p in row if p not in PRESET_ORDER]
            if unknown:
                raise FormatError(f"type {qtype!r} has accuracy for unknown presets: {unknown}")
        object.__setattr__(self, "provenance", {t: {p: float(a) for p, a in row.items()} for t, row in self.provenance.items()})
        # max keeps the first of equal maxima: the earlier preset wins a tie.
        object.__setattr__(self, "mapping", {t: max(PRESET_ORDER, key=row.__getitem__) for t, row in self.provenance.items()})


def _refuse_empty_type(types) -> None:
    """A question type is a non-empty string: the rule for every input that names types."""
    if "" in types:
        raise ParameterError("empty type label")


def _are_accuracies(values) -> bool:
    """Finite numbers in [0, 1]: the rule for every validation accuracy read."""
    return all_of_kind(values, float) and all(0.0 <= a <= 1.0 for a in values)


def fit_routing(accuracy_table: dict[str, dict[str, float]]) -> RoutingTable:
    """The ``RoutingTable`` of ``accuracy_table``: per type, its most accurate preset.

    Raises:
        ParameterError, FormatError: as ``RoutingTable`` does.
    """
    return RoutingTable(provenance=accuracy_table)


def route_for_type(table: RoutingTable, qtype: str, lam: float = DEFAULT_LAMBDA) -> Preset:
    """Oracle-routing bypass: look up the preset for a ground-truth type.

    Raises:
        AlignmentError: the table maps no preset for ``qtype``.
        ParameterError: ``lam`` is refused, as by ``make_preset``.
    """
    if qtype not in table.mapping:
        raise AlignmentError(f"no preset mapped for question type {qtype!r}")
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
    """Load a model file that ``write_model`` wrote.

    Raises:
        FormatError: the file is not UTF-8 JSON holding an object; a key is
            missing or of the wrong kind; another featurization; or a model
            that ``QuestionTypeModel`` refuses (the message names the file).
    """
    doc = read_json(path)
    where = str(path)
    types = require_key(doc, "types", list, where, of=str)
    vocabulary = require_key(doc, "vocabulary", dict, where, of=int)
    weights = require_key(doc, "weights", list, where, of=float)
    featurization = require_key(doc, "featurization", str, where)
    if featurization != FEATURIZATION:
        raise FormatError(f"{where}: featurization {featurization!r} is not {FEATURIZATION!r}")
    return in_file(where, QuestionTypeModel, types=tuple(types), vocabulary=vocabulary, weights=weights)


def routing_table_doc(table: RoutingTable) -> dict:
    return {
        "mapping": dict(table.mapping),
        "provenance": {t: dict(row) for t, row in table.provenance.items()},
    }


def write_routing_table(table: RoutingTable, path) -> None:
    write_json(path, routing_table_doc(table))


def read_routing_table(path) -> RoutingTable:
    """Load a routing table whose ``mapping`` is the one ``RoutingTable`` derives from its provenance.

    Raises:
        FormatError: the file is not UTF-8 JSON holding an object; a key is
            missing or of the wrong kind; a provenance that ``RoutingTable``
            refuses (the message names the file); or a ``mapping`` other
            than the derived one.
    """
    doc = read_json(path)
    where = str(path)
    mapping = require_key(doc, "mapping", dict, where)
    provenance = require_key(doc, "provenance", dict, where, of=dict)
    table = in_file(where, RoutingTable, provenance)
    if table.mapping != mapping:
        raise FormatError(f"{where}: mapping is not the best preset per type that provenance gives")
    return table


def read_training_examples(path) -> list[tuple[str, str]]:
    """Parse ``type<TAB>question`` lines into (text, type) pairs; blank lines are skipped.

    Raises:
        FormatError: the file is not UTF-8, or a line has no tab or an
            empty type (the message names the file and line).
    """
    examples: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise FormatError(f"{path}:{lineno}: expected type<TAB>question")
        qtype, question = line.split("\t", 1)
        in_file(f"{path}:{lineno}", _refuse_empty_type, (qtype,))
        examples.append((question, qtype))
    return examples


def read_accuracy_table(path) -> dict[str, dict[str, float]]:
    """Parse the accuracy CSV into a type -> preset -> accuracy table; blank lines are skipped.

    Raises:
        FormatError: the file is not UTF-8 or not valid CSV; a header other
            than ``type`` and ``PRESET_ORDER``; a row with the wrong field
            count, an empty or repeated type, or an accuracy that is not a
            number in [0, 1]; or no rows at all.
    """
    expected_header = ["type", *PRESET_ORDER]
    try:
        rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise FormatError(f"{path}: not valid CSV: {exc}") from None
    if rows and rows[0] != expected_header:
        raise FormatError(
            f"{path}: header must be {','.join(expected_header)}, got {','.join(rows[0])}"
        )
    table: dict[str, dict[str, float]] = {}
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(expected_header):
            raise FormatError(
                f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}"
            )
        qtype = row[0]
        in_file(f"{path}:{lineno}", _refuse_empty_type, (qtype,))
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
    if not table:
        raise FormatError(f"{path}: empty accuracy table")
    return table
