"""Classifier training, prediction, routing table fitting, file formats."""

import json
import signal

import numpy as np
import pytest

import framesel as fs
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

    def test_training_loss_is_monotone(self):
        model = fs.train_classifier(separable_corpus(30), epochs=10)
        losses = model.training_loss
        assert len(losses) == 11
        assert all(later <= earlier + 1e-6 for earlier, later in zip(losses, losses[1:]))

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

    def test_single_example_per_class_one_epoch(self):
        model = fs.train_classifier(
            [("alpha beta", "count"), ("gamma delta", "order")], epochs=1
        )
        for text, label in [("alpha beta", "count"), ("gamma delta", "order")]:
            predicted, probs = fs.predict_type(model, text)
            assert predicted == label
            assert probs.max() > 1.0 / len(model.types)

    def test_one_class_is_a_missing_class_error(self):
        with pytest.raises(fs.MissingClassError):
            fs.train_classifier([("a b c", "count")] * 4)

    def test_declared_type_without_examples(self):
        with pytest.raises(fs.MissingClassError):
            fs.train_classifier(
                [("a b", "count"), ("c d", "order")], types=("count", "order", "needle")
            )

    def test_label_outside_declared_types(self):
        with pytest.raises(fs.ParameterError):
            fs.train_classifier([("a b", "count"), ("c d", "weird")], types=("count", "order"))

    def test_repeated_declared_type(self):
        # the repeat used to become a third class with no examples
        with pytest.raises(fs.ParameterError, match="repeat"):
            fs.train_classifier([("a b", "count"), ("c d", "order")], types=("count", "order", "count"))

    def test_tokenless_corpus_is_degenerate(self):
        with pytest.raises(fs.DegenerateDataError):
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
        # halving never brings a NaN or infinite rate below the floor
        for rate in (float("nan"), float("inf")):
            with pytest.raises(fs.ParameterError):
                fs.train_classifier(corpus, learning_rate=rate)


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


class TestFitRouting:
    def test_row_argmax(self):
        table = fs.fit_routing(
            {
                "topic_reasoning": {
                    "relevance_only": 0.60,
                    "relevance_oriented": 0.62,
                    "coverage_oriented": 0.68,
                    "coverage_only": 0.70,
                }
            }
        )
        assert table.mapping["topic_reasoning"] == "coverage_only"

    def test_all_equal_breaks_to_relevance_only(self):
        table = fs.fit_routing({"count": {name: 0.5 for name in fs.PRESET_ORDER}})
        assert table.mapping["count"] == "relevance_only"

    def test_partial_tie_respects_fixed_order(self):
        row = {
            "relevance_only": 0.4,
            "relevance_oriented": 0.7,
            "coverage_oriented": 0.7,
            "coverage_only": 0.4,
        }
        assert fs.fit_routing({"needle": row}).mapping["needle"] == "relevance_oriented"

    def test_missing_cell(self):
        row = {"relevance_only": 0.4, "relevance_oriented": 0.7, "coverage_only": 0.4}
        with pytest.raises(fs.IncompleteTableError):
            fs.fit_routing({"needle": row})

    def test_unknown_preset_cell(self):
        # refused like a missing cell, as the accuracy CSV's header is
        row = {name: 0.5 for name in fs.PRESET_ORDER}
        with pytest.raises(fs.IncompleteTableError, match="bogus"):
            fs.fit_routing({"needle": {**row, "bogus": 0.9}})

    def test_empty_table(self):
        with pytest.raises(fs.IncompleteTableError):
            fs.fit_routing({})

    def test_mapping_attains_row_max(self, rng):
        for _ in range(50):
            table_in = {
                qtype: {name: float(rng.uniform(0, 1)) for name in fs.PRESET_ORDER}
                for qtype in fs.DEFAULT_TYPES
            }
            table = fs.fit_routing(table_in)
            for qtype, row in table.provenance.items():
                assert row[table.mapping[qtype]] == max(row.values())

    def test_argmax_invariant_under_positive_row_scaling(self, rng):
        for _ in range(25):
            row = {name: float(rng.uniform(0.1, 1)) for name in fs.PRESET_ORDER}
            scale = float(rng.uniform(0.01, 0.9))
            scaled = {name: value * scale for name, value in row.items()}
            assert (
                fs.fit_routing({"ego": row}).mapping["ego"]
                == fs.fit_routing({"ego": scaled}).mapping["ego"]
            )

    def test_provenance_stored_verbatim(self):
        row = {
            "relevance_only": 0.1,
            "relevance_oriented": 0.2,
            "coverage_oriented": 0.3,
            "coverage_only": 0.25,
        }
        assert fs.fit_routing({"count": row}).provenance["count"] == row


class TestRoute:
    def test_count_routes_to_relevance_oriented(self):
        model = fs.train_classifier(separable_corpus(40))
        table = fs.fit_routing(full_table({"count": "relevance_oriented"}))
        preset = fs.route(model, table, "how many goals in total", 0.5)
        assert preset.name == "relevance_oriented"
        assert (preset.alpha, preset.beta) == (1.0, 0.5)

    def test_missing_type_is_a_routing_gap(self):
        model = fs.train_classifier(separable_corpus(40))
        partial = {
            qtype: {name: 0.5 for name in fs.PRESET_ORDER}
            for qtype in fs.DEFAULT_TYPES
            if qtype != "count"
        }
        table = fs.fit_routing(partial)
        with pytest.raises(fs.RoutingGapError):
            fs.route(model, table, "how many goals in total")

    def test_oracle_bypass_uses_the_table_entry(self):
        table = fs.fit_routing(full_table({"ego": "coverage_oriented"}))
        preset = fs.route_for_type(table, "ego", 0.25)
        assert preset.name == "coverage_oriented"
        assert (preset.alpha, preset.beta) == (0.25, 1.0)
        with pytest.raises(fs.RoutingGapError):
            fs.route_for_type(table, "unheard_of")

    def test_routing_determinism(self):
        model = fs.train_classifier(separable_corpus(30))
        table = fs.fit_routing(full_table({}))
        text = "what is the overall theme"
        assert fs.route(model, table, text) == fs.route(model, table, text)


class TestModelFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        model = fs.train_classifier(separable_corpus(15))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        fs.write_model(model, first)
        fs.write_model(fs.read_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = fs.train_classifier(separable_corpus(15))
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        loaded = fs.read_model(path)
        for text in ("how many", "what plot twist", ""):
            assert fs.predict_type(loaded, text)[0] == fs.predict_type(model, text)[0]

    def test_weight_length_mismatch(self, tmp_path):
        model = fs.train_classifier([("a b", "count"), ("c d", "order")])
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        import json

        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["weights"] = doc["weights"][:-1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_model(path)

    def test_bad_vocabulary_indices(self, tmp_path):
        model = fs.train_classifier([("a b", "count"), ("c d", "order")])
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        import json

        doc = json.loads(path.read_text(encoding="utf-8"))
        first_token = next(iter(doc["vocabulary"]))
        doc["vocabulary"][first_token] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_model(path)


    def test_repeated_types_rejected(self, tmp_path):
        model = fs.train_classifier([("a b", "count"), ("c d", "order")])
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["types"] = ["count", "count"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError, match="distinct"):
            fs.read_model(path)

    def test_other_featurization_rejected(self, tmp_path):
        model = fs.train_classifier([("a b", "count"), ("c d", "order")])
        path = tmp_path / "model.json"
        fs.write_model(model, path)
        import json

        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["featurization"] == "token-counts:lowercase:[a-z0-9]+"
        doc["featurization"] = "token-counts:cased:[A-Za-z]+"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError, match="featurization"):
            fs.read_model(path)


class TestRoutingTableFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        table = fs.fit_routing(full_table({"needle": "coverage_only"}))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        fs.write_routing_table(table, first)
        fs.write_routing_table(fs.read_routing_table(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_tampered_mapping_rejected(self, tmp_path):
        table = fs.fit_routing(full_table({"needle": "coverage_only"}))
        path = tmp_path / "t.json"
        fs.write_routing_table(table, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["mapping"]["needle"] = "relevance_only"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_routing_table(path)

    def test_tie_mapped_to_a_later_preset_rejected(self, tmp_path):
        # every preset scores 0.5 for "needle": the tie goes to relevance_only
        path = tmp_path / "t.json"
        fs.write_routing_table(fs.fit_routing(full_table({"count": "coverage_only"})), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["provenance"]["needle"] = {name: 0.5 for name in fs.PRESET_ORDER}
        doc["mapping"]["needle"] = "coverage_only"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_routing_table(path)
        doc["mapping"]["needle"] = "relevance_only"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert fs.read_routing_table(path).mapping["needle"] == "relevance_only"

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"mapping": {}, "provenance": {}}', encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_routing_table(path)


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

    def test_tsv_without_tab(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("count how many cars\n", encoding="utf-8")
        with pytest.raises(fs.FormatError, match="1"):
            fs.read_training_examples(path)

    def test_tsv_empty_type_label(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("count\thow many cars\n\thow many\n", encoding="utf-8")
        with pytest.raises(fs.FormatError, match=f"^{path}:2: "):
            fs.read_training_examples(path)

    def test_accuracy_csv_round_trip(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text(
            "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
            "count,0.5,0.9,0.2,0.1\n"
            "needle,0.7,0.1,0.1,0.1\n",
            encoding="utf-8",
        )
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
        with pytest.raises(fs.IncompleteTableError):
            fs.read_accuracy_table(path)

    def test_accuracy_csv_short_row(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text(
            "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
            "count,0.5,0.9\n",
            encoding="utf-8",
        )
        with pytest.raises(fs.IncompleteTableError):
            fs.read_accuracy_table(path)

    def test_accuracy_csv_bad_values(self, tmp_path):
        head = "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
        path = tmp_path / "acc.csv"
        path.write_text(head + "count,0.5,abc,0.2,0.1\n", encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_accuracy_table(path)
        path.write_text(head + "count,0.5,1.9,0.2,0.1\n", encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_accuracy_table(path)

    def test_line_breaks_split_rows_as_the_format_says(self, tmp_path):
        # CSV rows end at CRLF, LF or a lone CR outside quotes; U+0085 and
        # U+2028 are field text.  TSV lines end at every str.splitlines break.
        head = "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only"
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

    def test_accuracy_csv_duplicate_type(self, tmp_path):
        head = "type,relevance_only,relevance_oriented,coverage_oriented,coverage_only\n"
        path = tmp_path / "acc.csv"
        path.write_text(head + "count,0.5,0.6,0.2,0.1\ncount,0.1,0.2,0.3,0.4\n", encoding="utf-8")
        with pytest.raises(fs.FormatError):
            fs.read_accuracy_table(path)


def test_softmax_sums_to_one_for_arbitrary_text(rng):
    model = fs.train_classifier(separable_corpus(10))
    for _ in range(20):
        length = int(rng.integers(0, 12))
        words = ["".join(rng.choice(list("abcxyz123"), size=4)) for _ in range(length)]
        _, probs = fs.predict_type(model, " ".join(words))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert (probs >= 0).all()
