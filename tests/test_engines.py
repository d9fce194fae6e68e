"""The engine capability seam (``repro.engines``).

The headline acceptance test registers a *dummy fourth engine* and
shows it picked up — without any further edits — by CLI ``--engine``
validation, RunSpec cache-key labelling, the CHK243 verify gate, and
the CHK5xx agreement-spec enumeration.  The rest covers the registry
itself, the canonical capability/protocol errors that replaced the
three drifting interferer guards, and the registry's engine-name and
per-engine protocol-set lookups.
"""

import dataclasses

import pytest

from repro import engines
from repro.check.config import check_run_spec
from repro.check.packet import all_engine_agreement_specs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.background import background_scenario
from repro.experiments.protocols import build_protocol
from repro.experiments.runner import run_fluid_scenario, run_scenario
from repro.experiments.static_bw import static_scenario
from repro.runtime.executor import run_many
from repro.runtime.spec import RunSpec
from repro.units import mib


def interferer_scenario():
    return background_scenario(2, 0.05, download_bytes=mib(1))


@pytest.fixture
def dummy_engine():
    """A fourth engine: fluid semantics under a new name."""
    eng = engines.register_engine(
        engines.Engine(
            name="dummy",
            protocols=("emptcp", "tcp-wifi"),
            features=frozenset(
                {
                    engines.FEATURE_BYTES,
                    engines.FEATURE_DURATION,
                    engines.FEATURE_UPLOAD,
                }
            ),
            run=lambda protocol, scenario, seed: run_fluid_scenario(
                protocol, scenario, seed
            ),
            compile=lambda scenario, sim, streams: ("dummy", scenario.name),
            obs_fidelity="sampled",
            agreement_protocols=("emptcp",),
        )
    )
    try:
        yield eng
    finally:
        engines.unregister_engine("dummy")


class TestRegistry:
    def test_builtins_registered(self):
        assert engines.engine_names() == ("fluid", "flow", "packet")
        assert engines.get_engine("fluid").protocols[0] == "mptcp"

    def test_default_engine_listed_first(self):
        assert engines.engine_names()[0] == engines.DEFAULT_ENGINE

    def test_unknown_engine_canonical_error(self):
        with pytest.raises(ConfigurationError, match="unknown engine 'ns3'"):
            engines.get_engine("ns3")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            engines.register_engine(
                dataclasses.replace(engines.get_engine("packet"))
            )

    def test_engine_validates_features(self):
        with pytest.raises(ConfigurationError, match="unknown features"):
            engines.Engine(
                name="bad",
                protocols=("emptcp",),
                features=frozenset({"quantum-tunnelling"}),
                run=lambda *a: None,
                compile=lambda *a: None,
            )

    def test_engine_validates_agreement_subset(self):
        with pytest.raises(ConfigurationError, match="agreement protocols"):
            engines.Engine(
                name="bad",
                protocols=("emptcp",),
                features=frozenset(),
                run=lambda *a: None,
                compile=lambda *a: None,
                agreement_protocols=("mdp",),
            )


class TestCanonicalGuards:
    def test_capability_error_is_shared_by_all_layers(self):
        scenario = interferer_scenario()
        message = engines.capability_error("packet", scenario)
        assert "interferers" in message and "'packet'" in message
        # run_scenario, the compiler, and the backend's own lowering
        # all surface the one canonical message.
        with pytest.raises(ConfigurationError, match="interferers"):
            run_scenario("emptcp", scenario, engine="packet")
        with pytest.raises(ConfigurationError) as exc:
            engines.compile_scenario("packet", scenario, None, None)
        assert str(exc.value) == message

    def test_flow_engine_same_guard(self):
        scenario = interferer_scenario()
        with pytest.raises(ConfigurationError, match="interferers"):
            run_scenario("emptcp", scenario, engine="flow")

    def test_fluid_models_interferers(self):
        assert engines.capability_error("fluid", interferer_scenario()) is None

    def test_run_many_rejects_interferers_pre_dispatch(self):
        # Regression for the old behaviour, where the guard only fired
        # inside a pool worker at run time: the batch must be refused
        # by Tier-2 verification before any dispatch happens.
        spec = RunSpec(
            protocol="emptcp",
            builder="background",
            kwargs={"n_interferers": 2, "lambda_off": 0.05,
                    "download_bytes": mib(1)},
            engine="flow",
        )
        with pytest.raises(ConfigurationError) as exc:
            run_many([spec], jobs=2)
        assert "pre-dispatch verification failed" in str(exc.value)
        assert "interferers" in str(exc.value)

    def test_required_features_derivation(self):
        from repro.energy.power import Direction

        scenario = static_scenario(True, download_bytes=mib(1))
        assert engines.required_features(scenario) == {engines.FEATURE_BYTES}
        scenario.direction = Direction.UP
        assert engines.FEATURE_UPLOAD in engines.required_features(scenario)
        assert engines.FEATURE_INTERFERERS in engines.required_features(
            interferer_scenario()
        )


class TestBuildProtocolErrors:
    def test_unknown_protocol_cites_the_actual_engine(self):
        # The old error cited the packet set regardless of engine.
        with pytest.raises(ConfigurationError) as exc:
            build_protocol(
                "mdp", None, None, None, None, None, engine="packet"
            )
        assert "'packet'" in str(exc.value)
        assert "emptcp, mptcp, tcp-wifi" in str(exc.value)
        assert "wifi-first" not in str(exc.value)

    def test_fluid_error_cites_fluid_set(self):
        with pytest.raises(ConfigurationError) as exc:
            build_protocol(
                "quic", None, None, None, None, None, engine="fluid"
            )
        assert "'fluid'" in str(exc.value)
        assert "wifi-first" in str(exc.value)

    def test_flow_has_no_per_connection_objects(self):
        with pytest.raises(ConfigurationError, match="flow"):
            build_protocol(
                "emptcp", None, None, None, None, None, engine="flow"
            )


class TestDerivedLegacyViews:
    """Engine names and per-engine protocol sets come from the
    registry, and a new registration shows up in them."""

    def test_views_derive_from_registrations(self):
        from repro.experiments.protocols import PROTOCOLS

        assert engines.get_engine("fluid").protocols == PROTOCOLS
        assert engines.get_engine("packet").protocols == (
            "emptcp", "mptcp", "tcp-wifi")
        assert engines.get_engine("flow").protocols == (
            "emptcp", "mptcp", "tcp-wifi")
        assert set(engines.engine_names()) == set(
            engines.registered_engines())
        assert {
            name: engines.get_engine(name).protocols
            for name in engines.engine_names()
        } == {
            name: eng.protocols
            for name, eng in engines.registered_engines().items()
        }

    def test_views_are_live(self, dummy_engine):
        assert "dummy" in engines.engine_names()
        assert engines.get_engine("dummy").protocols == ("emptcp", "tcp-wifi")


class TestDummyEngineForFree:
    """One registration buys the whole seam."""

    def test_cli_engine_validation(self, dummy_engine, capsys):
        code = main(["run", "emptcp", "good", "--engine", "dummy",
                     "--runs", "1", "--size-mb", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dummy engine" in out

    def test_cli_rejects_unregistered_engine(self, capsys):
        code = main(["run", "emptcp", "good", "--engine", "dummy"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown engine 'dummy'" in err

    def test_cache_key_label(self, dummy_engine):
        spec = RunSpec(protocol="emptcp", builder="static", engine="dummy")
        fluid = RunSpec(protocol="emptcp", builder="static")
        assert spec.label.endswith("@dummy")
        assert spec.content_hash() != fluid.content_hash()

    def test_chk243_passes_supported_spec(self, dummy_engine):
        spec = RunSpec(protocol="emptcp", builder="static", engine="dummy")
        assert check_run_spec(spec) == []

    def test_chk243_rejects_unsupported_protocol(self, dummy_engine):
        spec = RunSpec(protocol="mptcp", builder="static", engine="dummy")
        findings = check_run_spec(spec)
        assert [f.rule for f in findings] == ["CHK243"]
        assert "'dummy'" in findings[0].message

    def test_chk243_rejects_unsupported_feature(self, dummy_engine):
        spec = RunSpec(
            protocol="emptcp",
            builder="background",
            kwargs={"n_interferers": 1, "lambda_off": 0.05,
                    "download_bytes": mib(1)},
            engine="dummy",
        )
        findings = check_run_spec(spec)
        assert [f.rule for f in findings] == ["CHK243"]
        assert "interferers" in findings[0].message

    def test_agreement_spec_enumeration(self, dummy_engine):
        by_engine = all_engine_agreement_specs()
        assert set(by_engine) == {"packet", "flow", "dummy"}
        labels = {label for label, _f, _d in by_engine["dummy"]}
        assert labels == {
            "emptcp on good-wifi seed 0", "emptcp on bad-wifi seed 0"
        }
        for _label, fluid_spec, dummy_spec in by_engine["dummy"]:
            assert fluid_spec.engine == "fluid"
            assert dummy_spec.engine == "dummy"
            assert fluid_spec.kwargs == dummy_spec.kwargs

    def test_run_scenario_dispatches_to_registration(self, dummy_engine):
        result = run_scenario(
            "emptcp", static_scenario(True, download_bytes=mib(1)),
            engine="dummy",
        )
        assert result.download_time is not None

    def test_compile_scenario_uses_registered_hook(self, dummy_engine):
        scenario = static_scenario(True, download_bytes=mib(1))
        assert engines.compile_scenario("dummy", scenario, None, None) == (
            "dummy", scenario.name
        )
