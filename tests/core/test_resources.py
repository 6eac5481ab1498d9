"""Tests for the resource model."""

import copy
import json
import pickle

import pytest

from repro.core.resources import (
    CORES,
    DISK,
    MEMORY,
    PAPER_EXPLORATORY_ALLOCATION,
    PAPER_WORKER_CAPACITY,
    RESOURCES,
    TIME,
    Resource,
    ResourceVector,
    resource,
)


class TestResource:
    def test_predefined_resources_exist(self):
        assert CORES.key == "cores"
        assert MEMORY.unit == "MB"
        assert DISK.unit == "MB"
        assert TIME.unit == "s"

    def test_equality_is_by_key(self):
        assert Resource("cores") == CORES
        assert Resource("cores", unit="whatever") == CORES

    def test_hashable_by_key(self):
        assert len({CORES, Resource("cores"), MEMORY}) == 2

    def test_lookup_by_key(self):
        assert resource("memory") is MEMORY

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown resource"):
            resource("plutonium")

    def test_register_new_resource(self):
        gpus = RESOURCES.register("gpus", unit="devices")
        assert resource("gpus") is gpus
        # Re-registering the same key returns the same object.
        assert RESOURCES.register("gpus", unit="devices") is gpus

    def test_register_conflicting_unit_raises(self):
        RESOURCES.register("fpga_luts", unit="luts")
        with pytest.raises(ValueError, match="already registered"):
            RESOURCES.register("fpga_luts", unit="gates")

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            Resource("")
        with pytest.raises(ValueError):
            Resource("no spaces")


class TestInterning:
    """One instance per key: equality and hashing are identity."""

    def test_construction_returns_the_canonical_instance(self):
        assert Resource("cores") is CORES
        assert Resource("cores", unit="whatever") is CORES
        assert CORES.unit == "cores"  # a later constructor changes nothing
        fresh = Resource("interned_kind", unit="widgets")
        assert Resource("interned_kind") is fresh
        assert RESOURCES.register("interned_kind") is fresh
        assert resource("interned_kind") is fresh

    def test_register_and_constructor_share_one_table(self):
        registered = RESOURCES.register("shared_table_kind", unit="u")
        assert Resource("shared_table_kind") is registered

    def test_instances_are_immutable(self):
        with pytest.raises(AttributeError):
            CORES.unit = "MB"
        with pytest.raises(AttributeError):
            CORES.key = "memory"
        with pytest.raises(AttributeError):
            del CORES.divisible
        assert CORES.key == "cores" and CORES.unit == "cores"

    @pytest.mark.parametrize(
        "round_trip",
        [
            lambda r: pickle.loads(pickle.dumps(r)),
            lambda r: pickle.loads(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-highest", "copy", "deepcopy"],
    )
    def test_round_trips_return_the_same_instance(self, round_trip):
        for res in (CORES, MEMORY, DISK, TIME):
            assert round_trip(res) is res
        vector = round_trip(ResourceVector.of(cores=2, memory=512))
        assert all(key is resource(key.key) for key in vector.raw)
        assert vector[CORES] == 2.0 and vector[MEMORY] == 512.0

    def test_from_state_keeps_identity_keys(self):
        vector = ResourceVector.of(cores=1.5, memory=700, disk=30, time=60)
        state = json.loads(json.dumps(vector.state_dict()))
        back = ResourceVector.from_state(state)
        assert back == vector
        assert [key is orig for key, orig in zip(back.raw, vector.raw)] == [True] * 4


class TestResourceVector:
    def test_of_constructor_drops_zeros(self):
        v = ResourceVector.of(cores=2, memory=0)
        assert CORES in v
        assert MEMORY not in v
        assert v[MEMORY] == 0.0  # absent means zero

    def test_string_keys_resolve(self):
        v = ResourceVector({"cores": 4})
        assert v[CORES] == 4.0

    def test_kwargs_constructor(self):
        v = ResourceVector(cores=2, memory=512)
        assert v[CORES] == 2 and v[MEMORY] == 512

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ResourceVector.of(cores=-1)

    def test_nan_component_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ResourceVector({CORES: float("nan")})

    def test_fits_within(self):
        usage = ResourceVector.of(cores=2, memory=900)
        limit = ResourceVector.of(cores=4, memory=1000)
        assert usage.fits_within(limit)
        assert not limit.fits_within(usage)

    def test_fits_within_handles_missing_components(self):
        usage = ResourceVector.of(cores=1)
        limit = ResourceVector.of(cores=2, memory=100)
        assert usage.fits_within(limit)
        # A component present in usage but missing from the limit fails.
        assert not ResourceVector.of(disk=1).fits_within(limit)

    def test_exceeded_by(self):
        limit = ResourceVector.of(cores=2, memory=1000)
        usage = ResourceVector.of(cores=3, memory=500)
        assert limit.exceeded_by(usage) == (CORES,)

    def test_exceeded_by_boundary_is_not_exceeding(self):
        limit = ResourceVector.of(cores=2)
        assert limit.exceeded_by(ResourceVector.of(cores=2)) == ()

    def test_add_and_subtract(self):
        a = ResourceVector.of(cores=2, memory=100)
        b = ResourceVector.of(cores=1, memory=300)
        assert (a + b)[CORES] == 3
        # Subtraction clamps at zero.
        assert (a - b)[MEMORY] == 0.0

    def test_scale(self):
        v = ResourceVector.of(cores=2) * 2.5
        assert v[CORES] == 5.0
        with pytest.raises(ValueError):
            v * -1

    def test_componentwise_max_min(self):
        a = ResourceVector.of(cores=1, memory=800)
        b = ResourceVector.of(cores=4, memory=200)
        assert a.componentwise_max(b) == ResourceVector.of(cores=4, memory=800)
        assert a.componentwise_min(b) == ResourceVector.of(cores=1, memory=200)

    def test_replace_and_restrict(self):
        v = ResourceVector.of(cores=1, memory=100, disk=50)
        assert v.replace(CORES, 8)[CORES] == 8
        restricted = v.restrict([CORES, MEMORY])
        assert DISK not in restricted

    def test_equality_ignores_explicit_zeros(self):
        assert ResourceVector({CORES: 1.0, MEMORY: 0.0}) == ResourceVector({CORES: 1.0})

    def test_hash_consistent_with_equality(self):
        a = ResourceVector({CORES: 1.0, MEMORY: 0.0})
        b = ResourceVector({CORES: 1.0})
        assert hash(a) == hash(b)

    def test_is_zero(self):
        assert ResourceVector().is_zero()
        assert not ResourceVector.of(cores=1).is_zero()

    def test_paper_constants(self):
        assert PAPER_WORKER_CAPACITY[CORES] == 16
        assert PAPER_WORKER_CAPACITY[MEMORY] == 64_000
        assert PAPER_EXPLORATORY_ALLOCATION == ResourceVector.of(
            cores=1, memory=1000, disk=1000
        )

    def test_mapping_protocol(self):
        v = ResourceVector.of(cores=2, memory=100)
        assert len(v) == 2
        assert set(v) == {CORES, MEMORY}
        assert dict(v)[CORES] == 2.0

    def test_raw_exposes_components(self):
        v = ResourceVector.of(cores=2)
        assert v.raw == {CORES: 2.0}
