"""Unit tests for the virtual-time network simulator and metrics."""

import pytest

from repro.exceptions import NetworkError
from repro.net import (
    ASK,
    BOUND,
    CENTRAL_US,
    LOCAL,
    MediatorCostModel,
    NetworkConfig,
    QueryMetrics,
    RequestRecord,
    SELECT,
    VirtualNetwork,
    assign_regions,
    geo_distributed_config,
    local_cluster_config,
    rtt_ms,
)
from repro.net.regions import EAST_US, NORTH_EUROPE, WEST_US


class TestRegions:
    def test_local_rtt_sub_millisecond(self):
        assert rtt_ms(LOCAL, LOCAL) < 1.0

    def test_symmetry(self):
        assert rtt_ms(CENTRAL_US, NORTH_EUROPE) == rtt_ms(NORTH_EUROPE, CENTRAL_US)

    def test_transatlantic_slower_than_domestic(self):
        assert rtt_ms(CENTRAL_US, NORTH_EUROPE) > rtt_ms(CENTRAL_US, EAST_US)

    def test_mixing_local_and_cloud_raises(self):
        with pytest.raises(NetworkError):
            rtt_ms(LOCAL, EAST_US)

    def test_assign_regions_avoids_mediator(self):
        regions = assign_regions(20, mediator_region=CENTRAL_US)
        assert len(regions) == 20
        assert CENTRAL_US not in regions


class TestVirtualNetwork:
    def make(self, config=None):
        metrics = QueryMetrics()
        return VirtualNetwork(config or local_cluster_config(), metrics), metrics

    def test_request_advances_time(self):
        net, metrics = self.make()
        end = net.request("ep1", LOCAL, SELECT, ready_at_ms=0.0, result_rows=10, request_bytes=100)
        assert end > 0
        assert metrics.request_count() == 1

    def test_lane_serializes_same_endpoint(self):
        net, __ = self.make()
        first = net.request("ep1", LOCAL, SELECT, 0.0, 10, 100)
        second = net.request("ep1", LOCAL, SELECT, 0.0, 10, 100)
        assert second >= first * 2 - 1e-9

    def test_different_endpoints_overlap(self):
        net, __ = self.make()
        first = net.request("ep1", LOCAL, SELECT, 0.0, 10, 100)
        second = net.request("ep2", LOCAL, SELECT, 0.0, 10, 100)
        assert second == pytest.approx(first)

    def test_more_rows_cost_more(self):
        net, __ = self.make()
        small = net.request("a", LOCAL, SELECT, 0.0, 1, 100)
        big = net.request("b", LOCAL, SELECT, 0.0, 10_000, 100)
        assert big > small

    def test_bytes_cost(self):
        net, __ = self.make()
        light = net.request("a", LOCAL, SELECT, 0.0, 1, 10, response_bytes=10)
        heavy = net.request("b", LOCAL, SELECT, 0.0, 1, 10, response_bytes=10_000_000)
        assert heavy > light + 10  # >=80ms of transfer at 1 Gb

    def test_cached_requests_are_free(self):
        net, metrics = self.make()
        end = net.request("ep1", LOCAL, ASK, 5.0, 0, 0, cached=True)
        assert end == 5.0
        assert metrics.request_count() == 0  # cache hits excluded
        assert metrics.request_count(include_cached=True) == 1

    def test_geo_config_slower_than_local(self):
        local_net, __ = self.make()
        geo_net, __ = self.make(geo_distributed_config())
        local_end = local_net.request("a", LOCAL, SELECT, 0.0, 10, 100)
        geo_end = geo_net.request("a", WEST_US, SELECT, 0.0, 10, 100)
        assert geo_end > local_end * 10

    def test_lane_free_at(self):
        net, __ = self.make()
        assert net.lane_free_at("ep1") == 0.0
        end = net.request("ep1", LOCAL, SELECT, 0.0, 1, 10)
        assert net.lane_free_at("ep1") == end


class TestQueryMetrics:
    def make_metrics(self):
        metrics = QueryMetrics()
        metrics.record(RequestRecord(ASK, "a", 0, 1, 1, 10, 20))
        metrics.record(RequestRecord(SELECT, "a", 1, 3, 100, 50, 5000))
        metrics.record(RequestRecord(BOUND, "b", 0, 2, 30, 40, 900))
        metrics.record(RequestRecord(ASK, "b", 0, 0, 0, 0, 0, cached=True))
        return metrics

    def test_request_count_by_kind(self):
        metrics = self.make_metrics()
        assert metrics.request_count() == 3
        assert metrics.request_count(ASK) == 1
        assert metrics.request_count(SELECT, BOUND) == 2

    def test_rows_and_bytes(self):
        metrics = self.make_metrics()
        assert metrics.rows_shipped() == 131
        assert metrics.rows_shipped(SELECT) == 100
        assert metrics.bytes_shipped() == 10 + 20 + 50 + 5000 + 40 + 900

    def test_phases_accumulate(self):
        metrics = QueryMetrics()
        metrics.add_phase("execution", 5.0)
        metrics.add_phase("execution", 2.5)
        assert metrics.phase_ms["execution"] == pytest.approx(7.5)

    def test_merge(self):
        a, b = self.make_metrics(), self.make_metrics()
        a.virtual_ms, b.virtual_ms = 10.0, 5.0
        a.merge(b)
        assert a.virtual_ms == 15.0
        assert a.request_count() == 6

    def test_merge_empty_metrics_is_identity(self):
        a = self.make_metrics()
        a.virtual_ms = 10.0
        a.add_phase("execution", 4.0)
        before = (a.request_count(), a.rows_shipped(), a.bytes_shipped())
        a.merge(QueryMetrics())
        assert (a.request_count(), a.rows_shipped(), a.bytes_shipped()) == before
        assert a.virtual_ms == 10.0
        assert a.phase_ms["execution"] == pytest.approx(4.0)
        empty = QueryMetrics()
        empty.merge(self.make_metrics())
        assert empty.request_count() == 3

    def test_cached_excluded_from_rows_and_bytes(self):
        metrics = QueryMetrics()
        metrics.record(RequestRecord(SELECT, "a", 0, 1, 50, 10, 600))
        metrics.record(RequestRecord(SELECT, "a", 1, 1, 70, 20, 800, cached=True))
        assert metrics.rows_shipped() == 50
        assert metrics.rows_shipped(include_cached=True) == 120
        assert metrics.bytes_shipped() == 610
        assert metrics.bytes_shipped(include_cached=True) == 610 + 820
        assert metrics.requests_by_kind()[SELECT] == 1
        assert metrics.requests_by_kind(include_cached=True)[SELECT] == 2

    def test_phase_accumulation_across_merge(self):
        a, b = QueryMetrics(), QueryMetrics()
        a.add_phase("source_selection", 2.0)
        a.add_phase("execution", 5.0)
        b.add_phase("execution", 3.0)
        b.add_phase("analysis", 1.0)
        a.merge(b)
        assert a.phase_ms["execution"] == pytest.approx(8.0)
        assert a.phase_ms["source_selection"] == pytest.approx(2.0)
        assert a.phase_ms["analysis"] == pytest.approx(1.0)

    def test_mark_and_since_helpers(self):
        metrics = self.make_metrics()
        mark = metrics.mark()
        assert metrics.requests_since(mark) == 0
        metrics.record(RequestRecord(SELECT, "c", 5, 6, 7, 10, 10))
        metrics.record(RequestRecord(ASK, "c", 6, 6, 0, 5, 5, cached=True))
        assert metrics.requests_since(mark) == 1
        assert metrics.requests_since(mark, include_cached=True) == 2
        assert metrics.rows_since(mark) == 7

    def test_endpoint_summary(self):
        metrics = self.make_metrics()
        summary = metrics.endpoint_summary()
        assert summary["a"]["by_kind"][ASK] == 1
        assert summary["a"]["rows"] == 101
        assert summary["b"]["cached"] == 1
        assert summary["b"]["by_kind"][BOUND] == 1

    def test_total_requests_include_cached(self):
        from repro.net.metrics import total_requests

        pair = [self.make_metrics(), self.make_metrics()]
        assert total_requests(pair) == 6
        assert total_requests(pair, include_cached=True) == 8


class TestMediatorCostModel:
    def test_scan(self):
        assert MediatorCostModel(row_ms=0.5).scan_ms(10) == pytest.approx(5.0)
