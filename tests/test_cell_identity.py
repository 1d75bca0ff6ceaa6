"""Cell identity: every backend's cache key is pinned, and the memos that
derive it once per object never change what it derives.

Cache keys, shard seeds and batch plan file names are the identity of a
cell across processes and across versions of this package: a key that
drifts turns every existing cache directory cold.  The values below are
literal, so a change to how a key is derived — a memoised rendering, a
memoised chip signature — must reproduce them byte for byte.
"""

import dataclasses
import os
import pickle

import pytest

from repro import diy
from repro.api import RunSpec, Session
from repro.api.spec import _chip_signature
from repro.apps import STRESS, ScenarioSpec, get_scenario
from repro.exhaustive import exhaustive_session
from repro.litmus import library, write_litmus
from repro.sim import CHIPS, have_numpy

requires_numpy = pytest.mark.skipif(not have_numpy(),
                                    reason="numpy not installed")

MP_FINGERPRINT = ("d788afe594b5d7b5d6d0ff08336d279a"
                  "206f4c60febc46105e30786fd7dbc5aa")
DOT_FINGERPRINT = ("8aa9fdbbd587690fa89aef84202a09a4"
                   "46c49072f9ab8321394b164de0285275")

#: A fenced, CTA-scoped test of the Sec. 5.4 soundness corpus.
DIY_NAME = "Coe-cta+PodWW+FenceddWR.cta+Fre-cta"


def _mp_spec(engine="fast"):
    return RunSpec.make(library.build("mp"), "Titan", iterations=1000,
                        seed=7, engine=engine)


def _dot_spec(engine, runs=2000):
    return ScenarioSpec.make("dot-cbe", "Titan", runs=runs, seed=17,
                             intensity=STRESS, engine=engine)


def _diy_test():
    pool = diy.default_pool(scopes=diy.scopes_from_names(["dev", "cta"]),
                            fences=diy.fences_from_names(["cta", "gl"]))
    for test in diy.generate_tests(pool, max_length=4, max_tests=12):
        if test.name == DIY_NAME:
            return test
    raise AssertionError("%s left the soundness corpus" % DIY_NAME)


class TestPinnedKeys:

    @pytest.mark.parametrize("engine", ("fast", "batch", "reference"))
    def test_sim_backend(self, engine):
        assert Session(cache=False)._cache_key(_mp_spec(engine)) \
            == "sim-shard1000-%s-%s" % (MP_FINGERPRINT, engine)

    def test_model_backend(self):
        assert Session(backend="model", cache=False)._cache_key(_mp_spec()) \
            == ("model_ptx-28e198ecd69e4b6bd03ab8bdf761c2a0"
                "8f3968a78f1e7e946b57bdcaf1186d55")

    def test_analysis_backend(self):
        assert Session(backend="analysis", cache=False)._cache_key(
            _mp_spec()) == ("analysis-9969f7d933789e0a7556cf99cc5e3ba8"
                            "88a8da9d045435fe67ca6b02dcf5fd7e")

    def test_diy_soundness_cell(self):
        spec = RunSpec.make(_diy_test(), "Titan", iterations=300, seed=17,
                            engine="fast")
        assert Session(cache=False)._cache_key(spec) \
            == ("sim-shard300-4c5ee9b047d3607f4774bfa119b8dc8a"
                "5a36ebb352abaa19d2cc5c0dfc7cb12d-fast")
        assert Session(backend="model", cache=False)._cache_key(spec) \
            == ("model_ptx-7a3370db4cfdcaf4bc7162c3b237c177"
                "65f5751f621698994f2d3550c614cec7")

    @pytest.mark.parametrize("engine", ("fast", "batch"))
    def test_app_backend(self, engine):
        assert Session(backend="app", cache=False)._cache_key(
            _dot_spec(engine)) == "app-shard2000-%s-%s" % (DOT_FINGERPRINT,
                                                           engine)

    def test_exhaustive_backend(self):
        spec = ScenarioSpec(scenario=get_scenario("deque-mp"),
                            chip=CHIPS["HD7970"], iterations=1, seed=0,
                            intensity=1.0)
        assert exhaustive_session(cache=False)._cache_key(spec) \
            == ("exhaustive-61cb280ca478fb4283efc553f55b4e91"
                "cedcacf9f1323256e7b595fee8869660")

    @requires_numpy
    def test_batch_plan_file_names(self, tmp_path):
        litmus_dir, app_dir = tmp_path / "litmus", tmp_path / "app"
        Session(cache_dir=str(litmus_dir)).run(
            RunSpec.make(library.build("mp"), "Titan", iterations=200,
                         seed=7, engine="batch"))
        Session(backend="app", cache_dir=str(app_dir)).run_specs(
            [_dot_spec("batch", runs=200)])
        assert os.listdir(litmus_dir / "plans") == [
            "7b7d769a9cb007cd3084ec60baf6596e"
            "f90347ea36f5ee1648570bcc2f62f08e.plan"]
        assert os.listdir(app_dir / "plans") == [
            "1031ccfe0490ffaf5b28fc604494b9c6"
            "f87d1a8505746eaabb0b6f1c48729b86.plan"]


class TestMemos:

    def test_second_rendering_is_the_stored_text(self):
        test = library.build("mp")
        assert write_litmus(test) is write_litmus(test)

    def test_replaced_test_renders_its_own_text(self):
        test = library.build("mp")
        text = write_litmus(test)
        renamed = dataclasses.replace(test, name="mp-renamed")
        assert write_litmus(renamed) == text.replace("GPU_PTX mp\n",
                                                     "GPU_PTX mp-renamed\n")

    def test_pickled_test_renders_the_same_text(self):
        test = library.build("sb")
        text = write_litmus(test)
        assert write_litmus(pickle.loads(pickle.dumps(test))) == text
        fresh = library.build("sb")
        assert write_litmus(pickle.loads(pickle.dumps(fresh))) == text

    def test_replaced_chip_gets_its_own_signature(self):
        chip = CHIPS["Titan"]
        signature = _chip_signature(chip)
        assert _chip_signature(chip) is signature
        assert signature == repr(chip)
        faster = dataclasses.replace(chip, short="Titan-2")
        assert _chip_signature(faster) == repr(faster) != signature
