"""Tests for the serve rule pack (V0xx) on repro.serve/v1 documents."""

import pytest

from repro.lint import lint_serve_config, lint_serve_report
from repro.serve import scenario_config


def doc(**overrides):
    """A minimal clean serving document, with overrides applied."""
    base = {
        "format": "repro.serve/v1",
        "num_gpus": 4,
        "gpus_per_query": 2,
        "degraded_gpus": 1,
        "horizon_ms": 500.0,
        "queue_capacity": 16,
        "overload_queue": 8,
        "max_retries": 2,
        "tenants": [
            {"name": "a", "model": "tiny", "rate_qps": 10.0, "deadline_ms": 100.0}
        ],
    }
    base.update(overrides)
    return base


def fired(document):
    return set(lint_serve_config(document).rule_ids())


def test_clean_document():
    assert fired(doc()) == set()


@pytest.mark.parametrize(
    "name", ["steady-state", "burst-overload", "gpu-loss", "gpu-loss-recovery"]
)
def test_real_scenarios_are_clean(name):
    assert fired(scenario_config(name).to_dict()) == set()


class TestV001Format:
    def test_wrong_marker(self):
        assert "V001" in fired(doc(format="repro.cache/v1"))

    def test_missing_marker(self):
        d = doc()
        del d["format"]
        assert "V001" in fired(d)


class TestV002Tenants:
    def test_empty_list(self):
        assert "V002" in fired(doc(tenants=[]))

    def test_not_a_list(self):
        assert "V002" in fired(doc(tenants="everyone"))

    def test_duplicate_names(self):
        t = {"name": "a", "model": "tiny", "rate_qps": 1.0}
        assert "V002" in fired(doc(tenants=[t, dict(t)]))

    def test_missing_model(self):
        assert "V002" in fired(doc(tenants=[{"name": "a", "rate_qps": 1.0}]))


class TestV003Arrivals:
    def test_negative_rate(self):
        assert "V003" in fired(
            doc(tenants=[{"name": "a", "model": "tiny", "rate_qps": -1.0}])
        )

    def test_no_request_source(self):
        assert "V003" in fired(doc(tenants=[{"name": "a", "model": "tiny"}]))

    def test_bad_arrival_time(self):
        assert "V003" in fired(
            doc(
                tenants=[
                    {"name": "a", "model": "tiny", "arrivals_ms": [1.0, "soon"]}
                ]
            )
        )

    def test_bad_deadline(self):
        assert "V003" in fired(
            doc(
                tenants=[
                    {
                        "name": "a",
                        "model": "tiny",
                        "rate_qps": 1.0,
                        "deadline_ms": 0,
                    }
                ]
            )
        )


class TestV004Pool:
    def test_lease_exceeds_pool(self):
        assert "V004" in fired(doc(num_gpus=2, gpus_per_query=3))

    def test_degraded_exceeds_lease(self):
        assert "V004" in fired(doc(gpus_per_query=2, degraded_gpus=3))

    def test_bad_horizon(self):
        assert "V004" in fired(doc(horizon_ms=-5))


class TestV005Algorithms:
    def test_unknown_algorithm(self):
        assert "V005" in fired(doc(algorithm="magic"))
        assert "V005" in fired(doc(degraded_algorithm="magic"))

    def test_absent_fields_use_defaults(self):
        assert "V005" not in fired(doc())

    @pytest.mark.parametrize("value", [["hios-lp"], {"name": "hios-lp"}], ids=["array", "object"])
    @pytest.mark.parametrize("field", ["algorithm", "degraded_algorithm"])
    def test_non_string_algorithm(self, field, value):
        assert "V005" in fired(doc(**{field: value}))


class TestV006Faults:
    def test_unparseable_spec(self):
        assert "V006" in fired(doc(faults=["bogus:1@2"]))

    def test_out_of_pool_target(self):
        assert "V006" in fired(doc(num_gpus=2, faults=["fail:5@1"]))

    def test_valid_specs_pass(self):
        assert "V006" not in fired(
            doc(faults=["fail:1@10", "slow:0@5x0.5", "loss:0.1:jitter"])
        )


class TestV007OverloadReachable:
    def test_unreachable_threshold_warns(self):
        report = lint_serve_config(doc(queue_capacity=4, overload_queue=8))
        assert "V007" in set(report.rule_ids())
        assert not report.errors  # warning, not error

    def test_errors_only_drops_warning(self):
        report = lint_serve_config(
            doc(queue_capacity=4, overload_queue=8), errors_only=True
        )
        assert "V007" not in set(report.rule_ids())


class TestV008RetryBudget:
    def test_zero_retries_with_failures_warns(self):
        assert "V008" in fired(doc(max_retries=0, faults=["fail:1@10"]))

    def test_zero_retries_without_failures_ok(self):
        assert "V008" not in fired(doc(max_retries=0))

    def test_bad_backoff(self):
        # the bound is V011's; V008 only warns about the retry budget
        for value in (-1.0, float("nan"), float("inf")):
            assert fired(doc(retry_backoff_ms=value)) == {"V011"}


class TestV004MaxBatch:
    def test_zero_and_non_integer_rejected(self):
        assert "V004" in fired(doc(max_batch=0))
        assert "V004" in fired(doc(max_batch=2.5))

    def test_absent_defaults_to_one(self):
        assert "V004" not in fired(doc())


def report_doc(**overrides):
    """A minimal clean servereport document, with overrides applied."""
    base = {
        "format": "repro.servereport/v1",
        "arrivals": 10,
        "admitted": 8,
        "completed": 6,
        "shed_queue_full": 2,
        "shed_deadline": 1,
        "failed": 1,
        "deadline_misses": 1,
        "retries": 0,
        "displaced": 0,
        "repairs": 0,
        "degraded_dispatches": 0,
        "revived": 0,
        "batched": 0,
        "elastic_grows": 0,
        "elastic_shrinks": 0,
    }
    base.update(overrides)
    return base


def report_fired(document):
    return set(lint_serve_report(document).rule_ids())


class TestV009ReportCounters:
    def test_clean_report(self):
        assert report_fired(report_doc()) == set()

    def test_real_report_is_clean(self):
        from repro.serve import run_scenario

        result = run_scenario("gpu-loss-recovery")
        document = result.report.to_dict()
        document["requests"] = [r.to_dict() for r in result.records]
        assert report_fired(document) == set()

    def test_wrong_format(self):
        assert "V009" in report_fired(report_doc(format="repro.serve/v1"))

    def test_non_integer_counter(self):
        assert "V009" in report_fired(report_doc(completed="six"))
        assert "V009" in report_fired(report_doc(revived=-1))
        assert "V009" in report_fired(report_doc(batched=True))

    def test_admission_identity(self):
        # an arrival that is neither admitted nor shed at the door
        assert "V009" in report_fired(report_doc(arrivals=11))

    def test_terminal_identity(self):
        # an admitted request with no terminal status
        assert "V009" in report_fired(report_doc(admitted=9, arrivals=11))

    def test_misses_bounded_by_completions(self):
        assert "V009" in report_fired(report_doc(deadline_misses=7))


class TestV010ReportRecords:
    def _records(self):
        return [
            {"id": "a-q0000", "status": "completed", "deadline_met": True},
            {
                "id": "a-q0001",
                "status": "completed",
                "deadline_met": True,
                "batched_with": "a-q0000",
            },
            {"id": "a-q0002", "status": "shed-queue"},
        ]

    def _doc(self, **overrides):
        base = report_doc(
            arrivals=3,
            admitted=2,
            completed=2,
            shed_queue_full=1,
            shed_deadline=0,
            failed=0,
            deadline_misses=0,
            batched=1,
            requests=self._records(),
        )
        base.update(overrides)
        return base

    def test_consistent_records_pass(self):
        assert report_fired(self._doc()) == set()

    def test_absent_records_skip_the_rule(self):
        assert report_fired(report_doc()) == set()

    def test_records_not_a_list(self):
        assert "V010" in report_fired(self._doc(requests="all of them"))

    def test_status_mismatch(self):
        records = self._records()
        records[0]["status"] = "failed"
        assert "V010" in report_fired(self._doc(requests=records))

    def test_batched_mismatch(self):
        assert "V010" in report_fired(self._doc(batched=0))

    def test_resize_sum_mismatch(self):
        records = self._records()
        records[0]["resizes"] = 2
        assert "V010" in report_fired(self._doc(requests=records))
