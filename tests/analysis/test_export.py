"""Tests for figure export (CSV/JSON) and strict-JSON emission."""

import csv
import io
import json
import math

import pytest

from repro.analysis.export import (
    INF_SENTINEL,
    NEG_INF_SENTINEL,
    dumps_strict,
    figure_to_csv,
    figure_to_json,
    result_to_json,
    strict_jsonable,
    to_jsonable,
    write_figure,
)
from repro.analysis.series import FigureData, Series


def strict_loads(text):
    """json.loads that rejects bare NaN/Infinity tokens (non-JSON)."""
    def reject(token):
        raise AssertionError(f"non-strict JSON token: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def figure():
    fig = FigureData("Fig T", "test figure", "cores", "traffic",
                     notes="a note")
    fig.add(Series.from_xy("a", [1, 2], [0.5, 1.5]))
    fig.add(Series.from_xy("b", [1], [3.0]))
    return fig


class TestCSV:
    def test_long_format(self, figure):
        text = figure_to_csv(figure)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["a", "1", "0.5"]
        assert len(rows) == 4

    def test_roundtrips_through_csv_reader(self, figure):
        rows = list(csv.DictReader(io.StringIO(figure_to_csv(figure))))
        assert {row["series"] for row in rows} == {"a", "b"}


class TestJSON:
    def test_metadata_preserved(self, figure):
        payload = json.loads(figure_to_json(figure))
        assert payload["figure_id"] == "Fig T"
        assert payload["x_label"] == "cores"
        assert payload["notes"] == "a note"

    def test_points_preserved(self, figure):
        payload = json.loads(figure_to_json(figure))
        by_name = {s["name"]: s["points"] for s in payload["series"]}
        assert by_name["a"] == [[1, 0.5], [2, 1.5]]
        assert by_name["b"] == [[1, 3.0]]


class TestWriteFigure:
    def test_write_csv(self, figure, tmp_path):
        path = write_figure(figure, tmp_path / "fig.csv")
        assert path.read_text().startswith("series,x,y")

    def test_write_json(self, figure, tmp_path):
        path = write_figure(figure, tmp_path / "fig.json")
        assert json.loads(path.read_text())["figure_id"] == "Fig T"

    def test_unknown_suffix(self, figure, tmp_path):
        with pytest.raises(ValueError):
            write_figure(figure, tmp_path / "fig.xlsx")

    def test_real_experiment_exports(self, tmp_path):
        from repro.experiments import fig03

        figure = fig03.run().figure
        path = write_figure(figure, tmp_path / "fig3.json")
        payload = json.loads(path.read_text())
        names = [s["name"] for s in payload["series"]]
        assert "# of Cores" in names


class TestStrictJSON:
    def test_nan_becomes_null(self):
        assert strict_jsonable(float("nan")) is None
        assert strict_jsonable([1.0, float("nan")]) == [1.0, None]

    def test_infinities_become_signed_sentinels(self):
        assert strict_jsonable(float("inf")) == INF_SENTINEL
        assert strict_jsonable(float("-inf")) == NEG_INF_SENTINEL

    def test_finite_values_and_structure_untouched(self):
        payload = {"a": [1, 2.5, "x", True, None], "b": {"c": (3, 4)}}
        assert strict_jsonable(payload) == \
            {"a": [1, 2.5, "x", True, None], "b": {"c": [3, 4]}}

    def test_dumps_strict_always_parses(self):
        text = dumps_strict({"v": [float("nan"), float("inf"), 1.5]})
        assert strict_loads(text) == {"v": [None, "Infinity", 1.5]}

    def test_plain_dumps_would_not_parse(self):
        # The regression this guards against: json.dumps defaults emit
        # bare NaN, which strict parsers reject.
        loose = json.dumps({"v": float("nan")})
        with pytest.raises(AssertionError):
            strict_loads(loose)

    def test_figure_to_json_with_nan_series_is_strict(self):
        figure = FigureData("Fig N", "nan-bearing", "x", "y")
        figure.add(Series.from_xy("speedup", [1, 2, 3],
                                  [1.0, float("nan"), float("inf")]))
        payload = strict_loads(figure_to_json(figure))
        assert payload["series"][0]["points"] == \
            [[1, 1.0], [2, None], [3, "Infinity"]]

    def test_result_to_json_with_nan_result_is_strict(self):
        payload = strict_loads(result_to_json({"ratio": float("nan")}))
        assert payload == {"__mapping__": [["ratio", None]]}


class TestGoldenPayloadRoundTrips:
    """to_jsonable -> strict JSON -> parse for every experiment golden."""

    def test_every_golden_payload_round_trips(self, serial_sweep):
        for run in serial_sweep.runs:
            encoded = to_jsonable(run.result)
            text = dumps_strict(encoded)
            decoded = strict_loads(text)
            # NaN degrades to null by design; everything else must
            # survive the round trip exactly.
            assert decoded == strict_jsonable(encoded), run.experiment_id

    def test_every_golden_file_is_strict_json(self):
        from tests.goldens import regen

        for experiment_id in regen.golden_ids():
            text = regen.golden_path(experiment_id).read_text()
            strict_loads(text)  # must not raise


class TestServiceResponsesAreStrict:
    """Property test: any solve dispatch yields json.loads-able bytes."""

    def test_random_solve_requests_always_emit_strict_json(self):
        from hypothesis import given, settings, strategies as st

        from repro.service.app import BandwidthWallService, ServiceConfig

        service = BandwidthWallService(ServiceConfig(cache_ttl=0.0))
        scalar = st.one_of(
            st.none(),
            st.booleans(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-10**6, max_value=10**6),
            st.text(max_size=12),
        )
        body = st.one_of(
            scalar,
            st.lists(scalar, max_size=4),
            st.dictionaries(
                st.sampled_from(["ceas", "alpha", "budget", "techniques",
                                 "bogus"]),
                st.one_of(scalar, st.lists(scalar, max_size=3)),
                max_size=4,
            ),
        )

        @settings(max_examples=60, deadline=None)
        @given(payload=body)
        def check(payload):
            raw = json.dumps(payload, allow_nan=True).encode()
            response = service.dispatch("POST", "/v1/solve", raw)
            # 422: well-formed but unsolvable (e.g. budget below the
            # single-core traffic floor — no bisection bracket).
            assert response.status in (200, 400, 422)
            strict_loads(response.body.decode("utf-8"))

        try:
            check()
        finally:
            service.shutdown_jobs()
