"""Classifier training, prediction, routing table fitting, file formats."""

import re
import signal

import numpy as np
import pytest

import framesel as fs
from framesel import routing
from conftest import HEADER
from reference import ref_softmax

KEYWORDS = {
    "plotQA": ["plot", "story", "character", "narrative", "ending"],
    "needle": ["needle", "moment", "exact", "appear", "instant"],
    "ego": ["ego", "wearer", "camera", "hand", "first-person"],
    "count": ["count", "many", "number", "times", "total"],
    "order": ["order", "sequence", "before", "after", "first"],
    "anomaly_reco": ["anomaly", "unusual", "strange", "abnormal", "odd"],
    "topic_reasoning": ["topic", "theme", "overall", "subject", "about"],
}


def separable_corpus(per_class=60, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for qtype, words in KEYWORDS.items():
        for i in range(per_class):
            picks = rng.choice(words, size=3, replace=True)
            examples.append((f"q{i} " + " ".join(picks), qtype))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


def full_table(best: dict[str, str]):
    table = {}
    for qtype in fs.DEFAULT_TYPES:
        row = {name: 0.5 for name in fs.PRESET_ORDER}
        row[best.get(qtype, "relevance_only")] = 0.9
        table[qtype] = row
    return table


class TestTokenize:
    def test_lowercase_and_split(self):
        assert fs.tokenize("How many TIMES does X2 appear?!") == [
            "how",
            "many",
            "times",
            "does",
            "x2",
            "appear",
        ]

    def test_empty_and_symbol_only(self):
        assert fs.tokenize("") == []
        assert fs.tokenize("!!! --- ???") == []


class TestTrainClassifier:
    def test_two_separable_classes_reach_perfect_training_accuracy(self):
        examples = []
        for i in range(50):
            examples.append((f"how many cats appear frame {i}", "count"))
            examples.append((f"what strange anomaly happens {i}", "anomaly_reco"))
        model = fs.train_classifier(examples)
        assert fs.evaluate_classifier(model, examples).accuracy == 1.0

    @pytest.mark.parametrize(
        ("corpus", "rate"),
        [
            # the step keeps raising the loss below a rate of 1e-12
            ([("c b", "anomaly_reco"), ("a b", "count"), ("b a", "anomaly_reco"), ("a", "anomaly_reco"), ("c", "count")], 5.0),
            # the step rounds back to the same weights
            ([("a", "count"), ("a", "count"), ("a", "order")], 0.5),
        ],
    )
    def test_training_stops_once_the_weights_are_final(self, corpus, rate):
        def hang(signum, frame):
            pytest.fail("training did not stop at its fixed point")

        # the same 10 s alarm as each fuzz-test case
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            model = fs.train_classifier(corpus, epochs=10**7, learning_rate=rate)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        epochs_run = len(model.training_loss) - 1
        assert epochs_run < 1000
        again = fs.train_classifier(corpus, epochs=epochs_run + 50, learning_rate=rate)
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.training_loss == model.training_loss

    def test_training_never_accepts_a_loss_raising_step(self):
        # Each question carries both labels, 2:1, so no weights fit it; at rate
        # 5.0 the whole first step would raise the loss from log 2 to about 1.03.
        corpus = [("how many cars", "count"), ("where is the key", "needle")] * 2
        corpus += [("how many cars", "needle"), ("where is the key", "count")]
        losses = fs.train_classifier(corpus, epochs=20, learning_rate=5.0).training_loss
        assert len(losses) > 1
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:])), losses

    def test_single_example_per_class_one_epoch(self):
        model = fs.train_classifier(
            [("alpha beta", "count"), ("gamma delta", "order")], epochs=1
        )
        for text, label in [("alpha beta", "count"), ("gamma delta", "order")]:
            predicted, probs = fs.predict_type(model, text)
            assert predicted == label
            assert probs.max() > 1.0 / len(model.types)

    def test_training_needs_two_classes(self):
        with pytest.raises(fs.ParameterError, match=r"^need at least two classes, got \['count'\]$"):
            fs.train_classifier([("a b c", "count")] * 4)

    def test_declared_type_without_examples(self):
        with pytest.raises(fs.ParameterError, match=r"^no training examples for types: \['needle'\]$"):
            fs.train_classifier(
                [("a b", "count"), ("c d", "order")], types=("count", "order", "needle")
            )

    def test_label_outside_declared_types(self):
        with pytest.raises(fs.ParameterError):
            fs.train_classifier([("a b", "count"), ("c d", "weird")], types=("count", "order"))

    def test_repeated_declared_type(self):
        # the repeat used to become a third class with no examples
        with pytest.raises(fs.ParameterError, match="types must be a non-empty list of distinct strings"):
            fs.train_classifier([("a b", "count"), ("c d", "order")], types=("count", "order", "count"))

    def test_training_texts_need_a_token(self):
        with pytest.raises(fs.ParameterError, match="^training texts contain no tokens$"):
            fs.train_classifier([("!!!", "count"), ("???", "order")])

    def test_inferred_types_follow_default_order(self):
        examples = [("c c", "count"), ("p p", "plotQA"), ("e e", "ego")]
        model = fs.train_classifier(examples, epochs=1)
        assert model.types == ("plotQA", "ego", "count")

    def test_determinism(self):
        corpus = separable_corpus(20, seed=3)
        a = fs.train_classifier(corpus)
        b = fs.train_classifier(corpus)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.vocabulary == b.vocabulary

    def test_bad_hyperparameters(self):
        corpus = [("a b", "count"), ("c d", "order")]
        with pytest.raises(fs.ParameterError):
            fs.train_classifier(corpus, epochs=0)
        with pytest.raises(fs.ParameterError):
            fs.train_classifier(corpus, learning_rate=0.0)
        # halving never brings a NaN or infinite rate below the floor; True
        # was taken as a rate of 1, and 10**400 raised a raw OverflowError
        for rate in (float("nan"), float("inf"), -1.0, True, 10**400, "0.1", None):
            with pytest.raises(fs.ParameterError, match="^learning rate must be positive and finite, got "):
                fs.train_classifier(corpus, learning_rate=rate)


    @pytest.mark.parametrize("bad", [0, 2.5, True])
    def test_epochs_follow_the_count_rule(self, bad):
        # 2.5 raised a raw TypeError, and True ran one epoch.
        with pytest.raises(fs.ParameterError, match=f"^{re.escape(f'epochs must be an integer >= 1, got {bad!r}')}$"):
            fs.train_classifier([("a b", "count"), ("c d", "order")], epochs=bad)

    def test_types_are_checked_before_the_first_epoch(self, monkeypatch):
        # An empty label was refused only by the model built after the last epoch.
        monkeypatch.setattr(routing, "_featurize", lambda *args: pytest.fail("featurized before checking the types"))
        with pytest.raises(fs.ParameterError, match="^empty type label$"):
            fs.train_classifier([("how many", ""), ("find the moment", "count")], epochs=2000)


class TestPredictType:
    def test_probabilities_are_a_distribution(self):
        model = fs.train_classifier(separable_corpus(20))
        for text in ("how many strange plots", "", "zz unseen words only"):
            _, probs = fs.predict_type(model, text)
            assert probs.min() >= 0
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_scores_on_bias_alone(self):
        model = fs.train_classifier(separable_corpus(20))
        predicted, probs = fs.predict_type(model, "")
        bias = model.weights[:, -1]
        assert predicted == model.types[int(np.argmax(bias))]
        np.testing.assert_allclose(probs, ref_softmax(bias.tolist()), atol=1e-9)

    def test_oov_tokens_are_ignored(self):
        model = fs.train_classifier(separable_corpus(20))
        a = fs.predict_type(model, "how many times")
        b = fs.predict_type(model, "how many times zzzunknownzzz")
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_keyword_text_routes_to_its_class(self):
        model = fs.train_classifier(separable_corpus(40))
        for qtype, words in KEYWORDS.items():
            predicted, _ = fs.predict_type(model, " ".join(words))
            assert predicted == qtype


class TestRoutingTable:
    def test_mapping_is_derived_from_provenance(self, rng):
        provenance = {qtype: {name: float(rng.uniform(0, 1)) for name in fs.PRESET_ORDER} for qtype in fs.DEFAULT_TYPES}
        table = fs.RoutingTable(provenance)
        assert table == fs.fit_routing(provenance)
        assert table.provenance == provenance and list(table.mapping) == list(provenance)

    def test_tie_row_goes_to_the_earlier_preset(self):
        tie = {name: 0.5 for name in fs.PRESET_ORDER}
        assert fs.RoutingTable({"count": tie}).mapping == {"count": "relevance_only"}
        later_tie = {**tie, "relevance_only": 0.1}
        assert fs.RoutingTable({"count": later_tie}).mapping == {"count": "relevance_oriented"}

    def test_mapping_is_never_passed_in(self):
        # A hand-built mapping once disagreed with its own provenance.
        tie = {"count": {name: 0.5 for name in fs.PRESET_ORDER}}
        with pytest.raises(TypeError):
            fs.RoutingTable(mapping={"count": "coverage_only"}, provenance=tie)

    @pytest.mark.parametrize("build", [fs.fit_routing, fs.RoutingTable], ids=["fit_routing", "RoutingTable"])
    @pytest.mark.parametrize(
        ("provenance", "match"),
        [
            ({}, "empty accuracy table"),
            ({"needle": {"relevance_only": 0.4, "relevance_oriented": 0.7, "coverage_only": 0.4}}, "lacks accuracy"),
            ({"needle": {**dict.fromkeys(fs.PRESET_ORDER, 0.5), "bogus": 0.9}}, "unknown presets: \\['bogus'\\]"),
        ],
    )
    def test_empty_table_or_wrong_cells_refused_when_built(self, build, provenance, match):
        with pytest.raises(fs.FormatError, match=match):
            build(provenance)

    @pytest.mark.parametrize("build", [fs.fit_routing, fs.RoutingTable], ids=["fit_routing", "RoutingTable"])
    @pytest.mark.parametrize(
        ("provenance", "match"),
        [
            # A NaN cell once won the argmax: nothing compares greater than it.
            ({"count": {**dict.fromkeys(fs.PRESET_ORDER, 0.5), "relevance_only": float("nan")}}, "'count' accuracies must be"),
            ({"count": {**dict.fromkeys(fs.PRESET_ORDER, 0.5), "coverage_only": 1.5}}, "'count' accuracies must be"),
            ({"count": {**dict.fromkeys(fs.PRESET_ORDER, 0.5), "coverage_only": -2.0}}, "'count' accuracies must be"),
            ({"": dict.fromkeys(fs.PRESET_ORDER, 0.5)}, "^empty type label$"),
        ],
        ids=["nan", "above-one", "negative", "empty-type"],
    )
    def test_bad_values_refused_when_built(self, build, provenance, match):
        with pytest.raises(fs.ParameterError, match=match):
            build(provenance)

    def test_every_table_built_writes_and_reads_back(self, rng, tmp_path):
        odd = [0, 1, True, "0.5", np.float64(0.5), float("nan"), float("inf"), -2.0, 1.5, 10**400]
        path = tmp_path / "t.json"
        built = 0
        for _ in range(300):
            types = [("count", "needle", "")[i] for i in rng.permutation(3)[: rng.integers(0, 4)]]
            provenance = {
                qtype: {name: odd[rng.integers(len(odd))] if rng.random() < 0.1 else float(rng.uniform()) for name in fs.PRESET_ORDER}
                for qtype in types
            }
            try:
                table = fs.fit_routing(provenance)
            except fs.FrameselError:
                continue
            fs.write_routing_table(table, path)
            assert fs.read_routing_table(path) == table
            built += 1
        assert built > 50


class TestRoute:
    def test_count_routes_to_relevance_oriented(self):
        model = fs.train_classifier(separable_corpus(40))
        table = fs.fit_routing(full_table({"count": "relevance_oriented"}))
        preset = fs.route(model, table, "how many goals in total", 0.5)
        assert preset.name == "relevance_oriented"
        assert (preset.alpha, preset.beta) == (1.0, 0.5)

    def test_unmapped_type_is_refused(self):
        model = fs.train_classifier(separable_corpus(40))
        partial = {
            qtype: {name: 0.5 for name in fs.PRESET_ORDER}
            for qtype in fs.DEFAULT_TYPES
            if qtype != "count"
        }
        table = fs.fit_routing(partial)
        with pytest.raises(fs.AlignmentError, match="^no preset mapped for question type 'count'$"):
            fs.route(model, table, "how many goals in total")

    def test_oracle_bypass_uses_the_table_entry(self):
        table = fs.fit_routing(full_table({"ego": "coverage_oriented"}))
        preset = fs.route_for_type(table, "ego", 0.25)
        assert preset.name == "coverage_oriented"
        assert (preset.alpha, preset.beta) == (0.25, 1.0)
        with pytest.raises(fs.AlignmentError, match="^no preset mapped for question type 'unheard_of'$"):
            fs.route_for_type(table, "unheard_of")


class TestQuestionTypeModel:
    def test_empty_label_refused_by_training(self):
        with pytest.raises(fs.ParameterError, match="^empty type label$"):
            fs.train_classifier([("how many", ""), ("find the moment", "count")])

    @pytest.mark.parametrize(
        ("types", "vocabulary", "weights", "match"),
        [
            (("a", "b"), {"x": 0}, np.zeros((3, 5)), "^expected 4 weights, got \\(3, 5\\)$"),
            (("a", "b"), {"x": 0}, [0.0] * 5, "^expected 4 weights, got 5$"),
            (("a", "a"), {"x": 0}, [0.0] * 4, "^types must be a non-empty list of distinct strings$"),
            ((), {}, [], "^types must be"),
            ((1, 2), {"x": 0}, [0.0] * 4, "^types must be"),
            (("a", "b"), {"x": 0.0}, [0.0] * 4, "^vocabulary indices must cover 0..0$"),
            (("a", ""), {"x": 0}, [0.0] * 4, "^empty type label$"),
            (("a", "b"), {"x": 0, "y": 2}, [0.0] * 6, "^vocabulary indices must cover 0..1$"),
            (("a", "b"), {"x": 0}, [0.0, float("nan"), 0.0, 0.0], "^weights must be finite numbers$"),
            # numpy's raw OverflowError and ValueError escaped from these two.
            (("a", "b"), {"x": 0}, [10**400, 0.0, 0.0, 0.0], "^weights must be finite numbers$"),
            (("a", "b"), {"x": 0}, [[0.0, 0.0], [0.0]], "^weights must be an array of numbers$"),
            # It predicted a for the text 1, and b once written and read back.
            (("a", "b"), {1: 0}, [0.0, 0.0, 5.0, 0.0], "^vocabulary keys must be strings$"),
        ],
        ids=[
            "matrix-shape", "count", "repeated-types", "no-types", "type-kind", "index-kind", "empty-type", "vocabulary-gap", "nan-weight",
            "int400-weight", "ragged-weights",
            "vocabulary-key-kind",
        ],
    )
    def test_bad_fields_refused_when_built(self, types, vocabulary, weights, match):
        with pytest.raises(fs.ParameterError, match=match):
            fs.QuestionTypeModel(types=types, vocabulary=vocabulary, weights=weights)

    def test_weights_are_stored_as_a_float64_matrix(self):
        model = fs.QuestionTypeModel(types=("a", "b"), vocabulary={"x": 0}, weights=[1, 2, 3, 4])
        assert model.weights.dtype == np.float64 and model.weights.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert fs.predict_type(model, "x")[0] == "b"

    def test_weights_are_read_only(self, tmp_path):
        # A frozen model predicts as built only if nothing can write its weights.
        model = fs.train_classifier(separable_corpus(5))
        fs.write_model(model, tmp_path / "model.json")
        for built in (model, fs.read_model(tmp_path / "model.json")):
            with pytest.raises(ValueError, match="read-only"):
                built.weights[1, -1] = 5


def test_array_records_compare_and_hash_by_identity():
    # Each holds an array, which a field-by-field == would read as one truth value.
    examples = [("how many", "count"), ("find the moment", "needle")]
    model = fs.train_classifier(examples, epochs=1)
    builders = {
        "EmbeddingSet": lambda: fs.EmbeddingSet(np.eye(2, 3), np.ones(3), np.eye(2)),
        "QuestionTypeModel": lambda: fs.train_classifier(examples, epochs=1),
        "ClassifierEvaluation": lambda: fs.evaluate_classifier(model, examples),
        "RandomInstance": lambda: next(iter(fs.random_instances(0, 1))),
    }
    for name, build in builders.items():
        a, b = build(), build()
        assert a == a and a != b and not (a == b), name
        assert a in [a] and a not in [b], name
        assert len({a, b}) == 2, name


def test_what_the_library_builds_writes_and_reads_back_byte_identical(tmp_path):
    built = [
        fs.fit_routing({"count": dict.fromkeys(fs.PRESET_ORDER, 1), "needle": {**dict.fromkeys(fs.PRESET_ORDER, 0), "coverage_only": 1}}),
        fs.RoutingTable({"ego": {name: i / 4 for i, name in enumerate(fs.PRESET_ORDER)}}),
        fs.train_classifier([("how many", "count"), ("find the moment", "needle")], epochs=1),
        fs.QuestionTypeModel(types=("a", "b"), vocabulary={}, weights=[1e308, -1e308]),
        fs.QuestionTypeModel(types=("a", "b", "c"), vocabulary={"y": 1, "x": 0}, weights=np.arange(9.0).reshape(3, 3)),
        fs.QuestionTypeModel(types=("a", "b", "c"), vocabulary={"y": 1, "x": 0}, weights=list(range(9))),
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for thing in built:
        model = isinstance(thing, fs.QuestionTypeModel)
        write, read = (fs.write_model, fs.read_model) if model else (fs.write_routing_table, fs.read_routing_table)
        write(thing, first)
        write(read(first), second)
        assert first.read_bytes() == second.read_bytes(), thing


class TestModelFile:
    def test_loaded_model_predicts_identically(self, tmp_path):
        model = fs.train_classifier(separable_corpus(15))
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        loaded = fs.read_model(path)
        for text in ("how many", "what plot twist", ""):
            assert fs.predict_type(loaded, text)[0] == fs.predict_type(model, text)[0]


class TestEvaluate:
    def test_confusion_matrix_counts(self):
        model = fs.train_classifier(separable_corpus(25))
        holdout = separable_corpus(10, seed=9)
        report = fs.evaluate_classifier(model, holdout)
        assert report.total == len(holdout)
        assert report.confusion.sum() == report.total
        assert report.confusion.shape == (7, 7)
        assert report.accuracy == report.confusion.trace() / report.total

    def test_unknown_label_rejected(self):
        model = fs.train_classifier([("a b", "count"), ("c d", "order")])
        with pytest.raises(fs.ParameterError):
            fs.evaluate_classifier(model, [("a b", "mystery")])


class TestDataFiles:
    def test_tsv_reader(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "count\thow many cars\n\norder\twhat came first\treally\n", encoding="utf-8"
        )
        examples = fs.read_training_examples(path)
        assert examples == [
            ("how many cars", "count"),
            ("what came first\treally", "order"),
        ]

    def test_accuracy_csv_round_trip(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text(HEADER + "count,0.5,0.9,0.2,0.1\nneedle,0.7,0.1,0.1,0.1\n", encoding="utf-8")
        table = fs.read_accuracy_table(path)
        assert table["count"]["relevance_oriented"] == 0.9
        fitted = fs.fit_routing(table)
        assert fitted.mapping == {"count": "relevance_oriented", "needle": "relevance_only"}

    def test_accuracy_csv_missing_column(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text(
            "type,relevance_only,relevance_oriented,coverage_oriented\ncount,0.5,0.9,0.2\n",
            encoding="utf-8",
        )
        with pytest.raises(fs.FormatError, match="header must be type,relevance_only,"):
            fs.read_accuracy_table(path)

    def test_accuracy_csv_short_row(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text(HEADER + "count,0.5,0.9\n", encoding="utf-8")
        with pytest.raises(fs.FormatError, match=":2: expected 5 fields, got 3$"):
            fs.read_accuracy_table(path)

    def test_line_breaks_split_rows_as_the_format_says(self, tmp_path):
        # CSV rows end at CRLF, LF or a lone CR outside quotes; U+0085 and
        # U+2028 are field text.  TSV lines end at every str.splitlines break.
        head = HEADER.rstrip("\n")
        csv_path, tsv_path = tmp_path / "acc.csv", tmp_path / "train.tsv"
        csv_path.write_bytes(
            (head + "\r\ncrlf,0.1,0.2,0.3,0.4\r\ncr,0.5,0.5,0.5,0.5\r"
             '"quoted\r\ncrlf",1,0,0,0\nnel\u0085x,0,1,0,0\nls\u2028x,0,0,1,0\n').encode("utf-8")
        )
        tsv_path.write_bytes(
            ("count\tcrlf one\r\norder\tlone cr\rego\tnel\u0085needle\tafter nel\n"
             "count\tls\u2028plotQA\tafter ls\nanomaly_reco\tlast").encode("utf-8")
        )
        table = fs.read_accuracy_table(csv_path)
        assert list(table) == ["crlf", "cr", "quoted\r\ncrlf", "nel\u0085x", "ls\u2028x"]
        assert table["cr"] == dict.fromkeys(fs.PRESET_ORDER, 0.5)
        assert fs.read_training_examples(tsv_path) == [
            ("crlf one", "count"),
            ("lone cr", "order"),
            ("nel", "ego"),
            ("after nel", "needle"),
            ("ls", "count"),
            ("after ls", "plotQA"),
            ("last", "anomaly_reco"),
        ]


def test_softmax_sums_to_one_for_arbitrary_text(rng):
    model = fs.train_classifier(separable_corpus(10))
    for _ in range(20):
        length = int(rng.integers(0, 12))
        words = ["".join(rng.choice(list("abcxyz123"), size=4)) for _ in range(length)]
        _, probs = fs.predict_type(model, " ".join(words))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert (probs >= 0).all()
