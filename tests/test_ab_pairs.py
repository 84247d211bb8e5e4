"""The parent/change claim protocol's verdicts (``scripts/ab_pairs.py``),
on hand-written metric values: no run, no subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = sys.modules.setdefault("ab_pairs", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(ab_pairs)

METRICS = {
    "round_wall_ref": {"unit": "refloops", "better": "lower", "bound": 0.25},
    "virtual_ms_total": {"unit": "virtual_ms", "better": "lower", "bound": 0.05},
    "requests_total": {"unit": "count", "better": "lower", "bound": 0.08},
    "rows_shipped_total": {"unit": "rows", "better": "lower", "bound": 0.03},
}
PARENT = {
    "round_wall_ref": 10.0, "virtual_ms_total": 1000.0,
    "requests_total": 100, "rows_shipped_total": 5000,
}  # fmt: skip


def _change(**values):
    return {**PARENT, **values}


class TestSeedFlags:
    def test_wall_claim_needs_every_clock_free_metric_bit_equal(self):
        change = _change(round_wall_ref=7.0, virtual_ms_total=999.0, requests_total=101)
        assert ab_pairs.seed_flags(METRICS, PARENT, change, moving=False) == {
            "virtual_ms_total": ab_pairs.NOT_BIT_EQUAL,
            "requests_total": ab_pairs.NOT_BIT_EQUAL,
        }

    def test_equal_runs_raise_no_flag(self):
        assert ab_pairs.seed_flags(METRICS, PARENT, _change(), moving=True) == {}
        assert ab_pairs.seed_flags(METRICS, PARENT, _change(), moving=False) == {}

    def test_clock_free_claim_judges_direction_and_bound(self):
        change = _change(
            round_wall_ref=30.0,  # a wall metric: never flagged at a seed
            virtual_ms_total=600.0,
            requests_total=105,  # 5% worse, bound 8%
            rows_shipped_total=5200,  # 4% worse, bound 3%
        )
        flags = ab_pairs.seed_flags(METRICS, PARENT, change, moving=True)
        assert flags == {
            "virtual_ms_total": "better",
            "requests_total": "worse",
            "rows_shipped_total": ab_pairs.REGRESSED,
        }
        assert {flag for flag in flags.values() if flag in ab_pairs.FAILING} == {
            ab_pairs.REGRESSED
        }

    def test_higher_is_better_metrics_flip_the_direction(self):
        metrics = {"hits": {"unit": "count", "better": "higher", "bound": 0.1}}
        flags = ab_pairs.seed_flags(metrics, {"hits": 10}, {"hits": 12}, moving=True)
        assert flags == {"hits": "better"}


class TestClaimVerdict:
    def test_clock_free_claim_met_when_better_at_every_seed(self):
        verdict = ab_pairs.claim_verdict(
            [3647.7, 3595.2, 3620.0], [2134.4, 2104.4, 2120.0], "lower", clock_free=True
        )
        assert verdict.met
        assert (verdict.ahead, verdict.behind) == (3, 0)
        assert verdict.worse == pytest.approx(2120.0 / 3620.0 - 1.0)

    def test_clock_free_claim_not_met_with_one_seed_tied(self):
        verdict = ab_pairs.claim_verdict(
            [3647.7, 3595.2, 3620.0], [2134.4, 3595.2, 2120.0], "lower", clock_free=True
        )
        assert not verdict.met and verdict.ahead == 2

    def test_clock_free_claim_needs_medians_apart_by_the_parent_iqr(self):
        verdict = ab_pairs.claim_verdict(
            [100.0, 200.0, 300.0], [99.0, 199.0, 299.0], "lower", clock_free=True
        )
        assert verdict.ahead == 3 and not verdict.met

    def test_wall_claim_needs_nine_tenths_of_ten_pairs(self):
        parent = [10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0]
        nine = [9.0] * 9 + [10.5]
        assert ab_pairs.claim_verdict(parent, nine, "lower", clock_free=False).met
        eight = [9.0] * 8 + [10.5, 10.5]
        assert not ab_pairs.claim_verdict(parent, eight, "lower", clock_free=False).met

    def test_wall_claim_needs_ten_pairs(self):
        verdict = ab_pairs.claim_verdict([10.0] * 5, [5.0] * 5, "lower", clock_free=False)
        assert verdict.ahead == 5 and not verdict.met
