"""Tests for survey persistence (save/load round-trips)."""

import json

import pytest

from repro.core import analysis, metrics, persistence


class TestRoundTrip:
    def test_save_load_identity(self, survey, registry, tmp_path):
        path = str(tmp_path / "survey.json")
        persistence.save_survey(survey, path)
        loaded = persistence.load_survey(path, registry=registry)
        assert loaded.conditions == survey.conditions
        assert loaded.domains == survey.domains
        assert loaded.visits_per_site == survey.visits_per_site
        for condition in survey.conditions:
            for domain in survey.domains:
                a = survey.measurement(condition, domain)
                b = loaded.measurement(condition, domain)
                assert a.features == b.features
                assert a.standards_by_round == b.standards_by_round
                assert a.invocations == b.invocations
                assert a.failure_reason == b.failure_reason

    def test_analyses_identical_after_roundtrip(self, survey, registry,
                                                tmp_path):
        path = str(tmp_path / "survey.json")
        persistence.save_survey(survey, path)
        loaded = persistence.load_survey(path, registry=registry)
        assert metrics.standard_site_counts(
            loaded, "default"
        ) == metrics.standard_site_counts(survey, "default")
        assert metrics.standard_block_rates(
            loaded
        ) == metrics.standard_block_rates(survey)
        original = analysis.headline_feature_statistics(survey)
        reloaded = analysis.headline_feature_statistics(loaded)
        assert original == reloaded

    def test_manual_only_and_weights_preserved(self, survey, registry,
                                               tmp_path):
        path = str(tmp_path / "survey.json")
        persistence.save_survey(survey, path)
        loaded = persistence.load_survey(path, registry=registry)
        assert loaded.manual_only == survey.manual_only
        assert loaded.visit_weights == survey.visit_weights


class TestValidation:
    def test_wrong_format_version_rejected(self, survey, registry,
                                           tmp_path):
        data = persistence.survey_to_dict(survey)
        data["format_version"] = 99
        with pytest.raises(persistence.PersistenceError):
            persistence.survey_from_dict(data, registry=registry)

    def test_registry_mismatch_rejected(self, survey, registry, tmp_path):
        data = persistence.survey_to_dict(survey)
        data["registry_fingerprint"] = "deadbeefdeadbeef"
        with pytest.raises(persistence.PersistenceError):
            persistence.survey_from_dict(data, registry=registry)

    def test_unknown_feature_rejected(self, survey, registry):
        data = persistence.survey_to_dict(survey)
        condition = data["conditions"][0]
        domain = data["domains"][0]
        data["measurements"][condition][domain]["features"].append(
            "Made.prototype.up"
        )
        with pytest.raises(persistence.PersistenceError):
            persistence.survey_from_dict(data, registry=registry)

    def test_garbage_file_rejected(self, registry, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        with pytest.raises(persistence.PersistenceError):
            persistence.load_survey(str(path), registry=registry)

    def test_survey_with_phase_seconds_still_loads(self, survey,
                                                   registry):
        """Surveys saved with per-phase wall times load unchanged."""
        data = persistence.survey_to_dict(survey)
        assert "phase_seconds" not in data
        data["phase_seconds"] = {"fetch": 0.5, "execute": 2.0}
        loaded = persistence.survey_from_dict(data, registry=registry)
        assert persistence.survey_digest(loaded) == (
            persistence.survey_digest(survey)
        )

    def test_fingerprint_stable(self, registry):
        assert persistence.registry_fingerprint(registry) == (
            persistence.registry_fingerprint(registry)
        )

    def test_file_is_plain_json(self, survey, tmp_path):
        path = str(tmp_path / "survey.json")
        persistence.save_survey(survey, path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["format_version"] == 1
        assert "measurements" in data
