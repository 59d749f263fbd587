from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.corpus import SentenceLabel, TokenLabel
from termex.evaluation import (
    ConfusionCounts,
    evaluate_end_to_end,
    evaluate_spans,
    evaluate_stage1,
    evaluate_stage2,
    f_score,
    report_to_json,
)

T, O = TokenLabel.T, TokenLabel.O


class TestFScore:
    def test_arithmetic(self):
        report = f_score(ConfusionCounts(tp=3, fp=1, tn=0, fn=3))
        assert report.precision == 0.75
        assert report.recall == 0.5
        assert abs(report.f_score - 0.6) < 1e-12

    def test_degenerate_zero_convention(self):
        report = f_score(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
        assert report.precision == report.recall == report.f_score == 0.0

    def test_equal_precision_recall_implies_f_equal(self):
        report = f_score(ConfusionCounts(tp=4, fp=2, tn=1, fn=2))
        assert report.precision == report.recall == report.f_score

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)

    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
        st.integers(0, 500),
    )
    @settings(max_examples=200)
    def test_rational_oracle(self, tp, fp, tn, fn):
        report = f_score(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        assert report.precision == float(precision)
        assert report.recall == float(recall)
        assert abs(report.f_score - float(f)) < 1e-12

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=100)
    def test_swap_symmetry(self, tp, fp, fn):
        a = f_score(ConfusionCounts(tp=tp, fp=fp, tn=0, fn=fn))
        b = f_score(ConfusionCounts(tp=tp, fp=fn, tn=0, fn=fp))
        assert a.f_score == pytest.approx(b.f_score, abs=1e-12)
        assert a.precision == b.recall and a.recall == b.precision


class TestStageEvaluations:
    def test_unit_counts_cover_dataset(self, small_run):
        test = small_run.split.test
        report = evaluate_stage1(small_run.models, test)
        assert report.counts.total == len(test)
        assert report.mode == "sentence"

        positives = [
            s for s in test if s.sentence_label is SentenceLabel.CONTAINS_TECH
        ]
        tokens = sum(len(s.token_labels) for s in positives)
        report2 = evaluate_stage2(small_run.models, positives)
        assert report2.counts.total == tokens
        assert report2.mode == "token"

        all_tokens = sum(len(s.token_labels) for s in test)
        report3 = evaluate_end_to_end(small_run.models, test)
        assert report3.counts.total == all_tokens
        assert report3.mode == "end_to_end"

    def test_stage2_scores_the_gold_positives_of_its_input(self, small_run):
        """The token report over the whole test split, negatives included,
        equals the one over its gold positives."""
        test = small_run.split.test
        positives = [
            s for s in test if s.sentence_label is SentenceLabel.CONTAINS_TECH
        ]
        assert 0 < len(positives) < len(test)
        assert evaluate_stage2(small_run.models, test) == evaluate_stage2(
            small_run.models, positives
        )

    def test_stage1_matches_the_vector_level_recount(self, small_run):
        """evaluate_stage1 decides with cascade.gate; the recount with
        predict on embed_sentence gives the same confusion counts."""
        from termex.classifier import predict
        from termex.embeddings import embed_sentence

        models = small_run.models
        outcomes = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for labeled in small_run.split.test:
            vec = embed_sentence(models.embedding, labeled.sentence)
            predicted = predict(models.classifier, vec).label is SentenceLabel.CONTAINS_TECH
            gold = labeled.sentence_label is SentenceLabel.CONTAINS_TECH
            outcomes[("t" if gold == predicted else "f") + ("p" if predicted else "n")] += 1
        report = evaluate_stage1(models, small_run.split.test)
        assert report.counts == ConfusionCounts(**outcomes)

    def test_end_to_end_matches_direct_recount(self, small_run):
        """Independent recount: replay the gating by hand per token."""
        from termex.classifier import predict
        from termex.crf import viterbi
        from termex.embeddings import embed_sentence
        from termex.features import sentence_features

        models = small_run.models
        test = small_run.split.test[:60]
        tp = fp = tn = fn = 0
        for labeled in test:
            vec = embed_sentence(models.embedding, labeled.sentence)
            gate = predict(models.classifier, vec).label
            if gate is SentenceLabel.CONTAINS_TECH:
                predicted = viterbi(
                    models.crf,
                    sentence_features(labeled.sentence, models.crf.feature_config),
                )
            else:
                predicted = [O] * len(labeled.token_labels)
            for g, p in zip(labeled.token_labels, predicted):
                if g is T and p is T:
                    tp += 1
                elif g is T:
                    fn += 1
                elif p is T:
                    fp += 1
                else:
                    tn += 1
        report = evaluate_end_to_end(models, test)
        assert (report.counts.tp, report.counts.fp, report.counts.tn, report.counts.fn) == (
            tp, fp, tn, fn,
        )

    def test_error_propagation_only_hurts(self, small_run):
        """End-to-end F cannot beat decoding exactly the stage-I true
        positives with perfect negatives: the cascade only adds false
        positives from gold-negative sentences it lets through."""
        from termex.classifier import predict
        from termex.embeddings import embed_sentence

        models = small_run.models
        test = small_run.split.test
        gated_positives = [
            s
            for s in test
            if s.sentence_label is SentenceLabel.CONTAINS_TECH
            and predict(
                models.classifier, embed_sentence(models.embedding, s.sentence)
            ).label
            is SentenceLabel.CONTAINS_TECH
        ]
        comparator = evaluate_stage2(models, gated_positives)
        end_to_end = evaluate_end_to_end(models, test)
        assert end_to_end.f_score <= comparator.f_score + 1e-12

    def test_span_view(self, small_run):
        positives = [
            s
            for s in small_run.split.test
            if s.sentence_label is SentenceLabel.CONTAINS_TECH
        ]
        report = evaluate_spans(small_run.models, positives)
        assert report.mode == "span"
        assert report.counts.tn == 0
        assert 0.0 <= report.f_score <= 1.0

    def test_report_json_schema(self, small_run):
        report = evaluate_stage1(small_run.models, small_run.split.test[:10])
        payload = report_to_json(report)
        assert set(payload) == {
            "mode", "tp", "fp", "tn", "fn", "precision", "recall", "f_score",
        }
        assert isinstance(payload["tp"], int)
        assert isinstance(payload["f_score"], float)
