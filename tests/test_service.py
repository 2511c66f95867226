"""Tests of the batched sizing service: requests, cache, engine, CLI.

The parity tests are the contract of the service redesign: batched
decoding (padded sources, per-sequence EOS) must produce *bit-identical*
decoded texts and widths to the sequential ``SizingFlow.size`` path, and
the round-batched Stage IV (one ``measure_many`` per topology per round)
must produce bit-identical traces and accounting to the sequential
per-candidate verification backend.
"""

import json
import math

import numpy as np
import pytest

from repro.core import DesignSpec, PipelineConfig, SizingFlow, train_sizing_model
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.service import ResultCache, SizingEngine, SizingRequest, SizingResponse
from repro.service.cache import quantize_spec
from repro.solvers import BatchedBackend, ScalarBackend
from repro.spice import PerformanceMetrics
from repro.topologies import (
    FiveTransistorOTA,
    available_topologies,
    register,
    topology_by_name,
    unregister,
)

from tests.conftest import (
    BatchedOracleModel,
    CountingBackend,
    PoisonedFiveT,
    assert_responses_identical,
)

# ----------------------------------------------------------------------
# Topology registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_paper_topologies_registered(self):
        assert {"5T-OTA", "CM-OTA", "2S-OTA"} <= set(available_topologies())

    def test_register_and_unregister_custom(self):
        register(lambda: FiveTransistorOTA(), name="TEST-OTA")
        try:
            assert "TEST-OTA" in available_topologies()
            assert topology_by_name("TEST-OTA").name == "5T-OTA"
        finally:
            unregister("TEST-OTA")
        assert "TEST-OTA" not in available_topologies()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(FiveTransistorOTA)

    def test_replace_allows_shadowing(self):
        register(FiveTransistorOTA, replace=True)
        assert topology_by_name("5T-OTA").name == "5T-OTA"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="registered:"):
            topology_by_name("NOPE-OTA")

    def test_factory_without_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register(lambda: FiveTransistorOTA())


# ----------------------------------------------------------------------
# Request/response JSON round trips
# ----------------------------------------------------------------------
class TestRequestJSON:
    def test_round_trip(self):
        request = SizingRequest.for_spec(
            "5T-OTA", 25.0, 5e6, 8e7, id="r1", max_iterations=4, rel_tol=0.01,
            method="pso", budget=200,
        )
        restored = SizingRequest.from_json_line(request.to_json_line())
        assert restored == request

    def test_ids_auto_generated_and_unique(self):
        a = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7)
        b = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7)
        assert a.id != b.id

    def test_optional_fields_default(self):
        request = SizingRequest.from_json(
            {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6, "ugf_hz": 8e7}
        )
        assert request.max_iterations == 6
        assert request.rel_tol == 0.0
        assert request.method == "copilot"
        assert request.budget is None
        assert request.iteration_budget == 6

    def test_budget_overrides_copilot_iterations(self):
        request = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, budget=2)
        assert request.iteration_budget == 2

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SizingRequest.from_json({"topology": "5T-OTA", "gain_db": 25.0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SizingRequest.from_json(
                {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6,
                 "ugf_hz": 8e7, "bogus": 1}
            )

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", -1.0, 5e6, 8e7)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, max_iterations=-1)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, rel_tol=1.5)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, method="")
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, budget=-1)


class TestResponseJSON:
    def _response(self, **overrides):
        payload = dict(
            request_id="r1",
            topology="5T-OTA",
            success=True,
            widths={"M1": 1.2e-6, "M3": 1.5e-5},
            metrics=PerformanceMetrics(25.3, 5.4e6, 9.1e7),
            iterations=1,
            spice_simulations=1,
            wall_time_s=0.25,
            decoded_texts=("gmM1=2.50mS",),
        )
        payload.update(overrides)
        return SizingResponse(**payload)

    def test_round_trip(self):
        response = self._response()
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response

    def test_round_trip_failure_without_metrics(self):
        response = self._response(success=False, widths=None, metrics=None, error="boom")
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response

    def test_nan_metrics_serialize_as_null(self):
        response = self._response(metrics=PerformanceMetrics(25.0, float("nan"), 9e7))
        payload = json.loads(response.to_json_line())
        assert payload["metrics"]["f3db_hz"] is None
        restored = SizingResponse.from_json(payload)
        assert math.isnan(restored.metrics.f3db_hz)
        assert restored.metrics.gain_db == 25.0

    def test_single_simulation_property(self):
        assert self._response().single_simulation
        assert not self._response(spice_simulations=2).single_simulation
        assert not self._response(success=False).single_simulation

    def test_method_round_trips_and_defaults(self):
        response = self._response(method="de")
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored.method == "de"
        # Pre-redesign payloads (no method key) parse as copilot responses.
        payload = json.loads(self._response().to_json_line())
        del payload["method"]
        assert SizingResponse.from_json(payload).method == "copilot"


# ----------------------------------------------------------------------
# Spec quantization
# ----------------------------------------------------------------------
class TestQuantizeSpec:
    def test_rounds_to_three_significant_digits(self):
        assert quantize_spec(25.004) == 25.0
        assert quantize_spec(1.23456e6) == 1.23e6
        assert quantize_spec(9.999e-7, sig_digits=2) == 1.0e-6

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan")]
    )
    def test_non_finite_value_rejected(self, value):
        # Regression: inf survives %g formatting and nan never equals
        # itself, so a non-finite target used to poison cache keys
        # silently instead of failing at the bad request.
        with pytest.raises(ValueError, match="non-finite"):
            quantize_spec(value)

    def test_non_finite_spec_cannot_form_a_cache_key(self):
        # inf passes DesignSpec's positivity validation, so the cache key
        # is the last line of defense.
        request = SizingRequest.for_spec("5T-OTA", float("inf"), 5e6, 8e7)
        with pytest.raises(ValueError, match="non-finite"):
            ResultCache.key(request)


# ----------------------------------------------------------------------
# LRU result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _request(self, gain=25.0, **kwargs):
        return SizingRequest.for_spec("5T-OTA", gain, 5e6, 8e7, **kwargs)

    def _response(self, request, success=True, metrics="auto"):
        if metrics == "auto":
            # Comfortably above the default request targets.
            metrics = PerformanceMetrics(26.0, 6e6, 9e7)
        return SizingResponse(
            request_id=request.id, topology=request.topology, success=success,
            widths={"M1": 1e-6}, metrics=metrics, iterations=1,
            spice_simulations=1, wall_time_s=0.1,
        )

    def test_near_duplicate_hits_after_quantization(self):
        cache = ResultCache()
        request = self._request(gain=25.0)
        cache.put(request, self._response(request))
        # 25.004 quantizes to 25.0 at 3 significant digits, and the cached
        # design's 26.0 dB measurement satisfies the new exact target too.
        near = self._request(gain=25.004, id="other")
        hit = cache.get(near)
        assert hit is not None
        assert hit.cached
        assert hit.request_id == "other"

    def test_near_duplicate_not_served_when_metrics_fall_short(self):
        """A cached success must not transfer to a (quantization-equal)
        request whose exact targets the cached design misses."""
        cache = ResultCache()
        request = self._request(gain=25.0)
        # Measured gain 25.01: satisfies 25.0 but not 25.04.
        cache.put(
            request,
            self._response(request, metrics=PerformanceMetrics(25.01, 6e6, 9e7)),
        )
        tighter = self._request(gain=25.04, id="tighter")
        assert cache.get(tighter) is None

    def test_failure_served_only_for_exact_spec(self):
        cache = ResultCache()
        request = self._request(gain=25.0)
        cache.put(request, self._response(request, success=False, metrics=None))
        # Identical spec: deterministic flow, failure transfers.
        assert cache.get(self._request(gain=25.0, id="same")) is not None
        # Near-duplicate: a fresh run might succeed — don't serve the failure.
        assert cache.get(self._request(gain=25.004, id="near")) is None

    def test_different_loop_params_miss(self):
        cache = ResultCache()
        request = self._request()
        cache.put(request, self._response(request))
        assert cache.get(self._request(max_iterations=3)) is None
        assert cache.get(self._request(rel_tol=0.01)) is None

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        first, second, third = (self._request(gain=20.0 + i) for i in range(3))
        cache.put(first, self._response(first))
        cache.put(second, self._response(second))
        assert cache.get(first) is not None  # refresh: now `second` is LRU
        cache.put(third, self._response(third))
        assert len(cache) == 2
        assert cache.get(second) is None
        assert cache.get(first) is not None
        assert cache.get(third) is not None


# ----------------------------------------------------------------------
# Engine parity with the sequential path (real tiny transformer)
# ----------------------------------------------------------------------
TINY_SERVICE = PipelineConfig(
    designs_per_topology=(("5T-OTA", 25), ("CM-OTA", 16)),
    epochs=2,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=150,
    encoder_max_paths=1,
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=7,
)


@pytest.fixture(scope="module")
def tiny_artifacts():
    return train_sizing_model(TINY_SERVICE)


class TestBatchedDecodeParity:
    """Batched and sequential decodes are compared with *exact* equality.

    This leans on row independence (padding masks contribute exact zeros;
    per-row matmul slices reduce in the same order for any batch size on
    numpy's BLAS).  If a future BLAS build breaks the bitwise assumption,
    these asserts are the early-warning signal — expect at most a last-ulp
    logit difference flipping a near-tie argmax.
    """

    def test_predict_params_batch_matches_sequential(self, tiny_artifacts):
        model = tiny_artifacts.model
        for name in ("5T-OTA", "CM-OTA"):
            records = (tiny_artifacts.val_records[name] + tiny_artifacts.train_records[name])[:8]
            specs = [DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz) for r in records]
            sequential = [model.predict_params(name, spec)[1] for spec in specs]
            batched = [text for _, text in model.predict_params_batch(name, specs)]
            assert batched == sequential

    def test_predict_params_many_fuses_topologies(self, tiny_artifacts):
        """A cross-topology fused decode must match per-spec decodes."""
        model = tiny_artifacts.model
        specs_by_topology = {
            name: [
                DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz)
                for r in tiny_artifacts.val_records[name][:3]
            ]
            for name in ("5T-OTA", "CM-OTA")
        }
        fused = model.predict_params_many(specs_by_topology)
        for name, specs in specs_by_topology.items():
            sequential = [model.predict_params(name, spec)[1] for spec in specs]
            assert [text for _, text in fused[name]] == sequential

    def test_empty_batch(self, tiny_artifacts):
        assert tiny_artifacts.model.predict_params_batch("5T-OTA", []) == []

    def test_size_batch_matches_sequential_flows(self, tiny_artifacts):
        """The headline parity contract over mixed topologies."""
        requests = []
        for name in ("5T-OTA", "CM-OTA"):
            for record in tiny_artifacts.val_records[name][:2]:
                requests.append(
                    SizingRequest.for_spec(
                        name, record.gain_db, record.f3db_hz, record.ugf_hz,
                        max_iterations=2,
                    )
                )
        flows = {
            name: SizingFlow(topology_by_name(name), tiny_artifacts.model)
            for name in ("5T-OTA", "CM-OTA")
        }
        sequential = [
            flows[r.topology].size(r.spec, max_iterations=r.max_iterations)
            for r in requests
        ]
        engine = SizingEngine(tiny_artifacts.model, cache_size=0)
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == [r.id for r in requests]
        # The wire schema stamps the request's method explicitly, never
        # relying on the dataclass default.
        assert [r.method for r in responses] == ["copilot"] * len(requests)
        for result, response in zip(sequential, responses, strict=True):
            assert [t.decoded_text for t in result.trace] == list(response.decoded_texts)
            assert result.widths == response.widths
            assert result.success == response.success
            assert result.iterations == response.iterations
            assert result.spice_simulations == response.spice_simulations


# ----------------------------------------------------------------------
# Engine semantics through a deterministic oracle model (SPICE exercised)
# ----------------------------------------------------------------------
# The oracle model and the measured mini-dataset (``oracle_setup``)
# moved to tests/conftest.py — they are shared with test_serve.py.


class TestEngineServing:
    def _engine(self, oracle_setup, **kwargs):
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        engine = SizingEngine(model, **kwargs)
        engine.adopt_topology(topology)
        return engine, model, records

    def _achievable(self, record, **kwargs):
        return SizingRequest.for_spec(
            "5T-OTA",
            record.gain_db * 0.995,
            record.f3db_hz * 0.98,
            record.ugf_hz * 0.98,
            **kwargs,
        )

    def test_batch_uses_batched_decode_and_sizes(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        requests = [self._achievable(r) for r in records[:4]]
        responses = engine.size_batch(requests)
        assert all(r.success for r in responses)
        # The oracle is near-perfect: most specs close in one simulation,
        # the rest within the copilot budget.
        assert sum(r.single_simulation for r in responses) >= 3
        assert model.batch_calls >= 1
        assert engine.stats.spice_simulations == sum(r.spice_simulations for r in responses)

    def test_single_request_uses_single_path(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        response = engine.size(self._achievable(records[0]))
        assert response.success
        assert model.batch_calls == 0
        assert model.single_calls >= 1

    def test_cache_skips_inference_for_duplicates(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        request = self._achievable(records[0], id="first")
        first = engine.size(request)
        sequences_after_first = engine.stats.inference_sequences
        repeat = self._achievable(records[0], id="repeat")
        second = engine.size(repeat)
        assert engine.stats.inference_sequences == sequences_after_first
        assert engine.stats.cache_hits == 1
        assert second.cached and not first.cached
        assert second.request_id == "repeat"
        assert second.widths == first.widths

    def test_in_batch_duplicates_coalesce(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        requests = [
            self._achievable(records[0], id="lead"),
            self._achievable(records[1], id="other"),
            self._achievable(records[0], id="dupe"),
        ]
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == ["lead", "other", "dupe"]
        assert responses[2].cached
        assert responses[2].widths == responses[0].widths
        assert engine.stats.spice_simulations == 2

    def test_cache_and_coalesce_counters_agree(self, oracle_setup):
        """``EngineStats.cache_hits`` must mirror ``ResultCache.hits``;
        in-batch duplicate followers are counted under ``coalesced``."""
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        warm = self._achievable(records[0], id="warm")
        engine.size(warm)  # populates the cache (a miss on the way in)
        requests = [
            self._achievable(records[0], id="hit"),       # cache hit
            self._achievable(records[1], id="lead"),
            self._achievable(records[1], id="dupe"),      # in-batch duplicate
            self._achievable(records[2], id="fresh"),
        ]
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == ["hit", "lead", "dupe", "fresh"]
        assert engine.stats.cache_hits == 1
        assert engine.stats.coalesced == 1
        # The drift this pins: engine counters and cache counters agree.
        assert engine.stats.cache_hits == engine.cache.hits
        # warm, lead, dupe and fresh consulted the cache and missed (the
        # duplicate coalesces on the in-batch leader, not on the cache).
        assert engine.cache.misses == 4

    def test_responses_stamp_request_method(self, oracle_setup):
        """Success, failure and error responses all carry the request's
        method explicitly (never the dataclass default)."""
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        ok = engine.size(self._achievable(records[0]))
        assert ok.success and ok.method == "copilot"
        failed = engine.size(
            SizingRequest.for_spec("5T-OTA", 90.0, 1e9, 1e11, max_iterations=1)
        )
        assert not failed.success and failed.method == "copilot"
        error = engine.size(SizingRequest.for_spec("MISSING-OTA", 25.0, 5e6, 8e7))
        assert error.error is not None and error.method == "copilot"

    def test_unknown_topology_yields_error_response(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        good = self._achievable(records[0])
        bad = SizingRequest.for_spec("MISSING-OTA", 25.0, 5e6, 8e7)
        responses = engine.size_batch([bad, good])
        assert not responses[0].success
        assert "MISSING-OTA" in responses[0].error
        assert responses[1].success

    def test_failed_request_reports_best_iterate(self, oracle_setup):
        """The 'best' tracker must keep the closest attempt, not the last."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        impossible = SizingRequest.for_spec(
            "5T-OTA", 90.0, 1e9, 1e11, max_iterations=3
        )
        response = engine.size(impossible)
        assert not response.success
        assert response.metrics is not None  # best effort reported
        result = engine.size_result(impossible)
        shortfalls = [
            sum(impossible.spec.miss_fractions(t.metrics).values())
            for t in result.trace if t.metrics is not None
        ]
        best_reported = sum(impossible.spec.miss_fractions(result.metrics).values())
        assert best_reported == min(shortfalls)

    def test_zero_iteration_budget_fails_gracefully(self, oracle_setup):
        """max_iterations=0 returns a failed result without inference
        (the pre-engine SizingFlow behavior)."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        response = engine.size(self._achievable(records[0], max_iterations=0))
        assert not response.success
        assert response.iterations == 0
        assert response.spice_simulations == 0
        assert model.single_calls == 0

        topology, _, luts = oracle_setup
        flow = SizingFlow(topology, model)
        result = flow.size(DesignSpec(25.0, 3e6, 6e7), max_iterations=0)
        assert not result.success and result.iterations == 0

    def test_run_sizing_study_uses_batched_inference(self, oracle_setup):
        """Table VIII studies must ride the engine's fused-decode path and
        stay identical to the sequential facade."""
        from repro.core import run_sizing_study

        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        flow = SizingFlow(topology, model)
        specs = [
            DesignSpec(r.gain_db * 0.995, r.f3db_hz * 0.98, r.ugf_hz * 0.98)
            for r in records[:4]
        ]
        study = run_sizing_study(flow, specs)
        assert study.total == len(specs)
        assert model.batch_calls >= 1  # fused decode, not a per-spec loop

        reference_flow = SizingFlow(topology, BatchedOracleModel(topology, records, luts))
        for spec, result in zip(specs, study.results, strict=True):
            reference = reference_flow.size(spec)
            assert reference.widths == result.widths
            assert reference.success == result.success
            assert reference.spice_simulations == result.spice_simulations
            assert reference.iterations == result.iterations

    def test_flow_delegates_to_engine(self, oracle_setup):
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        flow = SizingFlow(topology, model)
        record = records[0]
        spec = DesignSpec(record.gain_db * 0.995, record.f3db_hz * 0.98, record.ugf_hz * 0.98)
        result = flow.size(spec)
        assert result.success
        assert result.single_simulation
        assert model.batch_calls == 0  # sequential facade stays single-shot


# ----------------------------------------------------------------------
# Round-batched Stage IV parity with the sequential verification backend
# ----------------------------------------------------------------------
class _MixedOracleModel(SizingModel):
    """The oracle stand-in generalized to several topologies: answers each
    request with the parameters of that topology's closest dataset design."""

    def __init__(self, topologies, records_by_name, luts):
        builders = {
            topology.name: SequenceBuilder(topology, SequenceConfig())
            for topology in topologies
        }
        super().__init__(
            transformer=None,
            bpe=None,
            vocab=None,
            sequence_config=SequenceConfig(),
            builders=builders,
            luts=luts,
        )
        self._records = records_by_name

    def predict_params(self, topology_name, spec, max_len=None):
        from repro.datagen.serialize import ParsedParams

        def distance(record):
            return (
                abs(np.log(record.gain_db / spec.gain_db))
                + abs(np.log(record.f3db_hz / spec.f3db_hz))
                + abs(np.log(record.ugf_hz / spec.ugf_hz))
            )

        best = min(self._records[topology_name], key=distance)
        values = {g: dict(p) for g, p in best.device_params.items()}
        return ParsedParams(values=values, complete=True), f"<oracle:{best.gain_db:.3f}>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec, max_len) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


@pytest.fixture(scope="module")
def mixed_oracle_setup():
    """Small measured datasets for both paper topologies plus shared LUTs."""
    from repro.datagen import DesignFilter, generate_dataset
    from repro.devices import NMOS_65NM, PMOS_65NM
    from repro.lut import build_lut

    topologies = {name: topology_by_name(name) for name in ("5T-OTA", "CM-OTA")}
    records_by_name = {}
    for seed, (name, topology) in enumerate(topologies.items(), start=21):
        dataset = generate_dataset(
            topology, 6, np.random.default_rng(seed),
            design_filter=DesignFilter(topology, check_icmr=False),
            max_attempts=400,
        )
        assert len(dataset) >= 3
        records_by_name[name] = dataset.records
    luts = {NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)}
    return topologies, records_by_name, luts


def _near_record_requests(records, **kwargs):
    """Achievable 5T-OTA requests just below each record's metrics."""
    return [
        SizingRequest.for_spec(
            "5T-OTA",
            r.gain_db * 0.995,
            r.f3db_hz * 0.98,
            r.ugf_hz * 0.98,
            id=f"p-{i}",
            **kwargs,
        )
        for i, r in enumerate(records)
    ]


class TestBatchedStageIVParity:
    """The tentpole contract: routing Stage IV through ``measure_many``
    changes throughput, never results."""

    def _engines(self, oracle_setup, topology=None):
        setup_topology, records, luts = oracle_setup
        engines = []
        for backend in (ScalarBackend(), BatchedBackend()):
            model = BatchedOracleModel(setup_topology, records, luts)
            engine = SizingEngine(model, cache_size=0, backend=backend)
            engine.adopt_topology(topology if topology is not None else setup_topology)
            engines.append(engine)
        return engines

    def _requests(self, records, **kwargs):
        return _near_record_requests(records, **kwargs)

    def test_round_batched_verification_matches_sequential(self, oracle_setup):
        _, records, _ = oracle_setup
        engine_seq, engine_batched = self._engines(oracle_setup)
        requests = self._requests(records[:4])
        sequential = engine_seq.size_batch(requests)
        batched = engine_batched.size_batch(requests)
        assert_responses_identical(sequential, batched)
        assert engine_seq.stats.spice_simulations == engine_batched.stats.spice_simulations
        # Traces too (size_results exposes them): requested specs, parse
        # flags, widths, metrics and verdicts, iteration by iteration.
        traces_seq = engine_seq.size_results(requests)
        traces_batched = engine_batched.size_results(requests)
        for ref, got in zip(traces_seq, traces_batched, strict=True):
            assert len(ref.trace) == len(got.trace)
            for t_ref, t_got in zip(ref.trace, got.trace, strict=True):
                assert t_ref.requested_spec == t_got.requested_spec
                assert t_ref.parsed_ok == t_got.parsed_ok
                assert t_ref.widths == t_got.widths
                assert t_ref.satisfied == t_got.satisfied

    def test_one_measure_many_call_per_round(self, oracle_setup):
        """All verifiable candidates of a round share one backend call."""
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        backend = CountingBackend()
        engine = SizingEngine(model, cache_size=0, backend=backend)
        engine.adopt_topology(topology)
        requests = self._requests(records[:4], max_iterations=1)
        engine.size_batch(requests)
        assert backend.calls == [("5T-OTA", 4)]

    def test_poisoned_candidate_inside_a_round_is_isolated(self, oracle_setup):
        """One non-converging design must cost its own request a retry and
        nothing else — identically on both backends."""
        _, records, _ = oracle_setup
        # Learn the deterministic Stage III widths of one request, then
        # poison exactly that design's DC solve.
        _, probe = self._engines(oracle_setup)
        requests = self._requests(records[:3], max_iterations=2)
        probe_response = probe.size_batch([requests[1]])[0]
        assert probe_response.widths is not None
        poisoned_topology = PoisonedFiveT(probe_response.widths["M1"])

        engine_seq, engine_batched = self._engines(oracle_setup, topology=poisoned_topology)
        sequential = engine_seq.size_batch(requests)
        batched = engine_batched.size_batch(requests)
        assert_responses_identical(sequential, batched)
        # The neighbors still verified and sized normally.
        assert batched[0].success and batched[2].success
        # The poisoned first iteration consumed no simulation but the
        # request kept iterating (retry-nudge semantics intact).
        assert batched[1].iterations == 2
        assert batched[1].spice_simulations < batched[1].iterations

    def test_zero_iteration_budget_skips_the_backend(self, oracle_setup):
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        backend = CountingBackend()
        engine = SizingEngine(model, cache_size=0, backend=backend)
        engine.adopt_topology(topology)
        responses = engine.size_batch(self._requests(records[:2], max_iterations=0))
        assert all(not r.success and r.iterations == 0 for r in responses)
        assert all(r.spice_simulations == 0 for r in responses)
        assert backend.calls == []

    def test_mixed_topology_round_groups_by_topology(self, mixed_oracle_setup):
        """Mixed-topology batches verify per topology, bit-identically to
        the sequential backend."""
        topologies, records_by_name, luts = mixed_oracle_setup
        requests = []
        for name, records in records_by_name.items():
            for i, record in enumerate(records[:3]):
                requests.append(
                    SizingRequest.for_spec(
                        name,
                        record.gain_db * 0.995,
                        record.f3db_hz * 0.98,
                        record.ugf_hz * 0.98,
                        id=f"{name}-{i}",
                        max_iterations=2,
                    )
                )

        def engine(backend):
            model = _MixedOracleModel(topologies.values(), records_by_name, luts)
            eng = SizingEngine(model, cache_size=0, backend=backend)
            for topology in topologies.values():
                eng.adopt_topology(topology)
            return eng

        counting = CountingBackend()
        sequential = engine(ScalarBackend()).size_batch(requests)
        batched = engine(counting).size_batch(requests)
        assert_responses_identical(sequential, batched)
        # Round 1: one bulk verification per topology, spanning all of its
        # surviving candidates (the oracle's decodes all survive Stage III).
        assert counting.calls[:2] == [("5T-OTA", 3), ("CM-OTA", 3)]
        assert {name for name, _ in counting.calls} <= {"5T-OTA", "CM-OTA"}


class _ZeroGmBelowGain(BatchedOracleModel):
    """Predicts ``gm = 0`` on M1 for every spec below ``gain_db``."""

    def __init__(self, topology, records, luts, gain_db):
        super().__init__(topology, records, luts)
        self._gain_db = gain_db

    def predict_params(self, topology_name, spec, max_len=None):
        parsed, text = super().predict_params(topology_name, spec, max_len)
        if spec.gain_db < self._gain_db:
            parsed.values["M1"]["gm"] = 0.0
        return parsed, text


class TestRoundBatchedStageIII:
    """Stage III runs once per (round, LUT) over every parsed request."""

    def test_one_width_estimation_per_lut_per_round(self, oracle_setup, monkeypatch):
        from repro.service import engine as engine_module

        topology, records, luts = oracle_setup
        calls = []
        original = engine_module.estimate_widths

        def counting(lut, *columns, **kwargs):
            calls.append((lut.tech.name, len(columns[0])))
            return original(lut, *columns, **kwargs)

        monkeypatch.setattr(engine_module, "estimate_widths", counting)
        engine = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=0)
        engine.adopt_topology(topology)
        engine.size_batch(_near_record_requests(records[:4], max_iterations=1))
        devices = {lut: 0 for lut in luts}
        for group in topology.groups:
            devices[group.tech.name] += 4
        assert sorted(calls) == sorted(devices.items())

    def test_many_matches_one_at_a_time(self, mixed_oracle_setup):
        topologies, records_by_name, luts = mixed_oracle_setup
        model = _MixedOracleModel(topologies.values(), records_by_name, luts)
        engine = SizingEngine(model, cache_size=0)
        items = [
            (topologies[name], record.device_params)
            for name, records in records_by_name.items()
            for record in records[:3]
        ]
        # One non-physical design mid-batch is rejected on its own.
        broken = {group: dict(params) for group, params in items[1][1].items()}
        broken[next(iter(broken))]["gds"] = float("nan")
        items[1] = (items[1][0], broken)
        batched = engine.widths_from_params_many(items)
        assert batched[1] is None
        assert batched == [engine.widths_from_params(t, values) for t, values in items]
        # Widths keep the topology's group order.
        for (topology, _), widths in zip(items, batched, strict=True):
            if widths is not None:
                assert list(widths) == [group.name for group in topology.groups]

    def test_zero_gm_fails_only_its_own_request(self, oracle_setup):
        """A decode with ``gm = 0`` is rejected like an inconsistent
        prediction -- traced and nudged -- instead of failing the batch."""
        topology, records, luts = oracle_setup
        healthy, poisoned = _near_record_requests(records[:2], max_iterations=3)
        poisoned = SizingRequest(
            topology="5T-OTA",
            spec=poisoned.spec.scaled({"gain_db": 0.5}),
            id="poisoned",
            max_iterations=3,
        )
        model = _ZeroGmBelowGain(topology, records, luts, gain_db=0.6 * healthy.spec.gain_db)
        engine = SizingEngine(model, cache_size=0)
        engine.adopt_topology(topology)
        requests = [poisoned, healthy]
        responses = engine.size_batch(requests)
        assert responses[0].error is None and not responses[0].success
        assert responses[0].iterations == 3
        assert responses[0].spice_simulations == 0
        assert responses[1].success
        result = engine.size_results(requests)[0]
        assert [(t.parsed_ok, t.widths) for t in result.trace] == [(True, None)] * 3
        # Nudged between attempts, as after any Stage III rejection.
        assert result.trace[1].requested_spec != result.trace[0].requested_spec


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_topologies_subcommand(self, capsys):
        from repro.service.cli import main

        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "5T-OTA" in out and "CM-OTA" in out and "2S-OTA" in out

    def test_size_jsonl_round_trip(self, tiny_artifacts, tmp_path):
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            id="cli-1", max_iterations=1,
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            request.to_json_line() + "\n" + "this is not json\n"
        )
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle),
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        lines = responses_file.read_text().splitlines()
        assert len(lines) == 2
        # Every output line — including error lines — parses with the
        # stable response schema.
        response = SizingResponse.from_json_line(lines[0])
        assert response.request_id == "cli-1"
        assert response.iterations == 1
        bad = SizingResponse.from_json_line(lines[1])
        assert bad.success is False and "bad request line" in bad.error
        assert exit_code == 1  # the malformed line is a tool-level failure

    def test_bad_corners_flag_is_a_tool_error(self, capsys):
        from repro.service.cli import main

        # Rejected before the bundle is even opened.
        exit_code = main(["size", "--bundle", "/nonexistent", "--corners", "tt,sf"])
        assert exit_code == 2
        assert "bad --corners" in capsys.readouterr().err
        # An empty override would silently disable per-request corner
        # verification stream-wide; it must be refused the same way.
        exit_code = main(["size", "--bundle", "/nonexistent", "--corners", " , "])
        assert exit_code == 2
        assert "bad --corners" in capsys.readouterr().err

    def test_corners_flag_overrides_requests(self, tiny_artifacts, tmp_path):
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            id="cli-c1", max_iterations=1,
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle), "--corners", "tt,ss",
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        assert exit_code == 0
        response = SizingResponse.from_json_line(responses_file.read_text().splitlines()[0])
        assert response.request_id == "cli-c1"
        # Corner-aware verification: whenever a design was measured, the
        # response reports it per corner with the binding worst corner.
        if response.metrics is not None:
            assert set(response.corner_metrics) == {"tt", "ss"}
            assert response.worst_corner in {"tt", "ss"}
        else:
            assert response.corner_metrics is None

    def test_size_infeasible_spec_is_not_a_tool_failure(self, tiny_artifacts, tmp_path):
        """success=false with error=null must exit 0: the service worked."""
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            max_iterations=1,
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle),
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        response = SizingResponse.from_json_line(responses_file.read_text().splitlines()[0])
        assert response.error is None
        assert exit_code == 0
