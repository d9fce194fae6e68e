"""Registrations for the three built-in backends.

Each registration is declaration plus lazy-import closures: the heavy
backend modules (fluid runner, packet stack, numpy flow tier) load on
first *run*, not on first registry lookup, and the import direction
stays acyclic (``repro.engines`` never imports a backend at module
scope — the backends import ``repro.engines``).

The per-engine protocol tuples declared here are the single source of
truth: callers read them through ``get_engine(name).protocols``, so
there is no second copy to drift apart.
"""

from __future__ import annotations

from repro.engines.base import (
    DERIVED_FEATURES,
    FEATURE_BYTES,
    FEATURE_DURATION,
    FEATURE_UPLOAD,
    Engine,
)
from repro.engines.registry import register_engine

#: Protocols available at segment granularity and on the analytic
#: tier (both backends implement exactly the control-plane protocols).
_SEGMENT_PROTOCOLS = ("emptcp", "mptcp", "tcp-wifi")


def _fluid_run(protocol, scenario, seed):
    from repro.experiments.runner import run_fluid_scenario

    return run_fluid_scenario(protocol, scenario, seed)


def _fluid_compile(scenario, sim, streams):
    from repro.experiments.runner import build_paths

    return build_paths(sim, scenario, streams)


def _fluid_factory(protocol, **kwargs):
    from repro.experiments.protocols import _build_fluid_protocol

    return _build_fluid_protocol(protocol, **kwargs)


def _packet_run(protocol, scenario, seed):
    from repro.packet.runner import run_packet_scenario

    return run_packet_scenario(protocol, scenario, seed)


def _packet_compile(scenario, sim, streams):
    from repro.packet.runner import compile_packet_scenario

    return compile_packet_scenario(scenario, sim, streams)


def _packet_factory(protocol, **kwargs):
    from repro.experiments.protocols import _build_packet_protocol

    return _build_packet_protocol(protocol, **kwargs)


def _flow_run(protocol, scenario, seed):
    from repro.flow.single import run_flow_scenario

    return run_flow_scenario(protocol, scenario, seed)


def _flow_compile(scenario, sim, streams):
    from repro.flow.single import compile_flow_scenario

    return compile_flow_scenario(scenario, sim, streams)


def register_builtin_engines() -> None:
    """Register fluid, packet, and flow (idempotent via ``replace``)."""
    from repro.experiments.protocols import PROTOCOLS

    register_engine(
        Engine(
            name="fluid",
            protocols=PROTOCOLS,
            features=DERIVED_FEATURES,
            run=_fluid_run,
            compile=_fluid_compile,
            obs_fidelity="full",
            protocol_factory=_fluid_factory,
            description="rate-based reference model (§4/§5 results)",
        ),
        replace=True,
    )
    register_engine(
        Engine(
            name="packet",
            protocols=_SEGMENT_PROTOCOLS,
            features=frozenset(
                {FEATURE_UPLOAD, FEATURE_DURATION, FEATURE_BYTES}
            ),
            run=_packet_run,
            compile=_packet_compile,
            obs_fidelity="full",
            protocol_factory=_packet_factory,
            # Plain MPTCP is deliberately excluded from agreement: its
            # aggregate completion time is dominated by scheduler and
            # coupling details the engines model differently (see
            # EXPERIMENTS.md).
            agreement_protocols=("tcp-wifi", "emptcp"),
            description="segment-granularity validation substrate",
        ),
        replace=True,
    )
    register_engine(
        Engine(
            name="flow",
            protocols=_SEGMENT_PROTOCOLS,
            features=frozenset(
                {FEATURE_UPLOAD, FEATURE_DURATION, FEATURE_BYTES}
            ),
            run=_flow_run,
            compile=_flow_compile,
            obs_fidelity="sampled",
            # The vectorized tier has no per-connection objects, so
            # build_protocol refuses flow with a pointer to
            # run_scenario(..., engine="flow").
            protocol_factory=None,
            agreement_protocols=("tcp-wifi", "mptcp", "emptcp"),
            description="analytic vectorized tier (population scale)",
        ),
        replace=True,
    )
