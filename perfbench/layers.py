"""Per-layer tracing from outside the program.

Every probe wraps a public function or method of one layer of
``repro`` — the sim kernel, the packet and fluid stacks, the control
plane, energy, experiments/engines/check, the runtime, and the flow
engine — and counts calls and busy seconds.  Nothing under ``src/``
changes: :func:`install` patches the attributes at run time and the
callable it returns puts the originals back.

Spans nest: a probe only charges the outermost entry of its own name,
so a method that calls itself, or two methods sharing one probe, are
counted once.  Every workload runs its simulations in its own process
(``workloads.JOBS``), so every probe fires where it is counted.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

perf_counter = time.perf_counter

#: Event-handler groups, by the module of the callback a simulator
#: dispatches.  Checked in order; the first prefix that matches wins.
HANDLER_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("repro.packet.tcp", "packet.tcp"),
    ("repro.packet.link", "packet.link"),
    ("repro.packet.mptcp", "packet.mptcp"),
    ("repro.packet.emptcp", "packet.emptcp"),
    ("repro.tcp.", "tcp"),
    ("repro.mptcp.", "mptcp"),
    ("repro.net.", "net"),
    ("repro.workloads.", "workloads"),
    ("repro.control.", "control"),
    ("repro.core.", "core"),
    ("repro.energy.", "energy"),
    ("repro.experiments.", "experiments"),
)
OTHER_GROUP = "other"
GROUP_NAMES = tuple(group for _, group in HANDLER_GROUPS) + (OTHER_GROUP,)


class Registry:
    """Probe totals, ``name -> [calls, seconds]``, safe to share
    between threads, plus each thread's nesting depth per probe."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, calls: float, seconds: float) -> None:
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                self.totals[name] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def enter(self, name: str) -> bool:
        depths = self._depths()
        depth = depths.get(name, 0)
        depths[name] = depth + 1
        return depth == 0

    def leave(self, name: str) -> None:
        self._depths()[name] -= 1

    def snapshot(self) -> Dict[str, Tuple[float, float]]:
        with self._lock:
            return {name: (v[0], v[1]) for name, v in self.totals.items()}

    def since(
        self, before: Dict[str, Tuple[float, float]]
    ) -> Dict[str, Tuple[float, float]]:
        """Totals accrued after ``before`` was taken."""
        out = {}
        for name, (calls, seconds) in self.totals.items():
            c0, s0 = before.get(name, (0.0, 0.0))
            if calls != c0 or seconds != s0:
                out[name] = (calls - c0, seconds - s0)
        return out

    def calls(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0.0))[1]


REGISTRY = Registry()


def _timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    reg = REGISTRY

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        outer = reg.enter(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            reg.leave(name)
            if outer:
                reg.add(name, 1, perf_counter() - start)

    return wrapper


class Patcher:
    """Swaps attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> Any:
        old = owner.__dict__[attr]
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)
        return old

    def time(self, target: str, probe: str) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in a probe."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self.replace(owner, attr, staticmethod(_timed(probe, original.__func__)))
        elif isinstance(original, property):
            self.replace(owner, attr, original.getter(_timed(probe, original.fget)))
        else:
            self.replace(owner, attr, _timed(probe, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


#: ``target -> probe`` for every plain timing probe.
TIMED: Tuple[Tuple[str, str], ...] = (
    # packet stack
    ("repro.packet.link:PacketLink.send", "packet.link.send"),
    ("repro.packet.tcp:SubflowReceiver.on_segment", "packet.tcp.on_segment"),
    ("repro.packet.mptcp:DsnReassembly.on_data", "packet.mptcp.on_data"),
    # control plane / core / energy
    ("repro.control.plane:ControlPlane._control_tick", "control.decide"),
    ("repro.core.predictor:BandwidthPredictor.observe", "core.predictor.observe"),
    ("repro.core.eib:EnergyInformationBase.decide", "core.eib.decide"),
    ("repro.energy.meter:EnergyMeter.set_rate", "energy.meter.set_rate"),
    ("repro.energy.rrc:RrcMachine.on_activity", "energy.rrc.on_activity"),
    ("repro.energy.meter:EnergyMeter.add_rate", "energy"),
    ("repro.energy.meter:EnergyMeter.set_rrc_state", "energy"),
    ("repro.energy.meter:EnergyMeter.add_one_shot", "energy"),
    ("repro.energy.meter:EnergyMeter.checkpoint", "energy"),
    ("repro.energy.meter:EnergyMeter.total_energy", "energy"),
    # experiments / engines / check
    ("repro.runtime.spec:RunSpec.execute", "runtime.execute"),
    ("repro.experiments.runner:run_scenario", "experiments.run_scenario"),
    ("repro.experiments.runner:validate_run", "engines.compile"),
    ("repro.experiments.runner:build_paths", "engines.compile"),
    ("repro.packet.runner:compile_packet_scenario", "engines.compile"),
    ("repro.engines.compiler:compile_scenario", "engines.compile"),
    ("repro.check.config:verify_specs", "check.verify"),
    # runtime
    ("repro.runtime.queue:JobQueue.submit", "runtime.queue.submit"),
    ("repro.runtime.queue:JobQueue.mark_done", "runtime.queue.mark_done"),
    ("repro.runtime.queue:JobQueue.note_retry", "runtime.retried"),
    ("repro.runtime.queue:JobQueue.mark_failed", "runtime.failed"),
    ("repro.runtime.cache:ResultCache.put", "runtime.cache.put"),
    ("repro.runtime.store:SegmentStore.get", "runtime.store.get"),
    ("repro.runtime.store:SegmentStore.put", "runtime.store.put"),
    # flow engine
    ("repro.flow.fleet:build_fleet", "flow.build"),
    ("repro.flow.engine:FleetEngine.step", "flow.step"),
    ("repro.flow.engine:epoch_rate_bytes_per_sec", "flow.models"),
    ("repro.flow.engine:holt_winters_update", "flow.models"),
    ("repro.flow.engine:holt_winters_forecast_mbps", "flow.models"),
    ("repro.flow.engine:cell_share_bytes_per_sec", "flow.contention"),
)

#: Energy probes whose time also counts towards the ``energy`` total.
ENERGY_PROBES = ("energy.meter.set_rate", "energy.rrc.on_activity", "energy")


def _handler_group(
    callback: Any, cache: Dict[Any, str], wrappers: Tuple[type, ...]
) -> str:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, wrappers):
        callback = owner._callback
    func = getattr(callback, "__func__", callback)
    group = cache.get(func)
    if group is None:
        module = getattr(func, "__module__", None) or ""
        group = next(
            (g for prefix, g in HANDLER_GROUPS if module.startswith(prefix)),
            OTHER_GROUP,
        )
        cache[func] = group
    return group


def _install_sim(patch: Patcher) -> None:
    """Time the kernel: scheduling, each dispatched callback by the
    module that owns it, and the rest of ``Simulator.run`` as self."""
    from repro.sim.engine import Simulator
    from repro.sim.process import PeriodicProcess, Timer

    reg = REGISTRY
    wrappers = (PeriodicProcess, Timer)
    groups: Dict[Any, str] = {}
    handler_total = [0.0]
    orig_schedule_at = Simulator.schedule_at
    orig_run = Simulator.run

    def timed_callback(group: str, callback: Any) -> Callable[..., Any]:
        def dispatch(*args: Any) -> Any:
            start = perf_counter()
            try:
                return callback(*args)
            finally:
                elapsed = perf_counter() - start
                handler_total[0] += elapsed
                reg.add(group + ".handler", 1, elapsed)

        return dispatch

    def schedule_at(self: Any, time_s: float, callback: Any, *args: Any) -> Any:
        start = perf_counter()
        group = _handler_group(callback, groups, wrappers)
        handle = orig_schedule_at(self, time_s, timed_callback(group, callback), *args)
        reg.add("sim.schedule", 1, perf_counter() - start)
        return handle

    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        handled = handler_total[0]
        start = perf_counter()
        try:
            return orig_run(self, *args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            reg.add("sim.run.self", 1, elapsed - (handler_total[0] - handled))

    patch.replace(Simulator, "schedule_at", functools.wraps(orig_schedule_at)(schedule_at))
    patch.replace(Simulator, "run", functools.wraps(orig_run)(run))


def _install_runtime(patch: Patcher) -> None:
    """Runtime probes that need more than a timer: queue wait, cache
    hit ratio and run_many overhead."""
    from repro.runtime import executor
    from repro.runtime.cache import ResultCache
    from repro.runtime.queue import JobQueue

    reg = REGISTRY
    submitted_at: Dict[int, float] = {}

    orig_submit = JobQueue.submit

    def submit(self: Any, spec: Any, *args: Any, **kwargs: Any) -> Any:
        job, fresh = orig_submit(self, spec, *args, **kwargs)
        if fresh:
            submitted_at[id(job)] = perf_counter()
        return job, fresh

    orig_pop = JobQueue.pop

    def pop(self: Any) -> Any:
        start = perf_counter()
        job = orig_pop(self)
        end = perf_counter()
        reg.add("runtime.queue.pop", 1, end - start)
        if job is not None:
            queued = submitted_at.pop(id(job), None)
            if queued is not None:
                reg.add("runtime.queue.wait", 1, end - queued)
        return job

    orig_get = ResultCache.get

    def get(self: Any, spec: Any) -> Any:
        start = perf_counter()
        hit = orig_get(self, spec)
        reg.add("runtime.cache.get", 1, perf_counter() - start)
        if hit is not None:
            reg.add("runtime.cache.hit", 1, 0.0)
        return hit

    orig_run_many = executor.run_many

    def run_many(specs: Any, *args: Any, **kwargs: Any) -> Any:
        specs = list(specs)
        jobs = kwargs.get("jobs")
        if jobs is None:
            jobs = executor.current_context().jobs
        executed = reg.seconds("runtime.execute")
        start = perf_counter()
        try:
            return orig_run_many(specs, *args, **kwargs)
        finally:
            wall = perf_counter() - start
            slots = max(1, min(jobs, len(specs)))
            busy = (reg.seconds("runtime.execute") - executed) / slots
            reg.add("runtime.run_many", 1, wall)
            reg.add("runtime.overhead", 0, wall - busy)

    patch.replace(JobQueue, "submit", functools.wraps(orig_submit)(submit))
    patch.replace(JobQueue, "pop", functools.wraps(orig_pop)(pop))
    patch.replace(ResultCache, "get", functools.wraps(orig_get)(get))
    # Callers reach run_many through run_specs, which looks the name up
    # in the executor module at call time.
    patch.replace(executor, "run_many", functools.wraps(orig_run_many)(run_many))


def install() -> Callable[[], None]:
    """Wrap every layer; returns the function that unwraps them."""
    patch = Patcher()
    _install_runtime(patch)
    for target, probe in TIMED:
        patch.time(target, probe)
    _install_sim(patch)
    return patch.restore


# -- per-layer metrics ----------------------------------------------


def _layer_metric_names() -> List[Tuple[str, str]]:
    names: List[Tuple[str, str]] = [
        ("sim.scheduled", "count"),
        ("sim.dispatched", "count"),
        ("sim.dispatch_ratio", "ratio"),
        ("sim.schedule_s", "s"),
        ("sim.run.self_s", "s"),
    ]
    for group in GROUP_NAMES:
        names += [(f"{group}.handler_s", "s"), (f"{group}.handler_calls", "count")]
    names += [
        ("packet.link.send_s", "s"),
        ("packet.link.send_calls", "count"),
        ("packet.tcp.on_segment_s", "s"),
        ("packet.tcp.on_segment_calls", "count"),
        ("packet.mptcp.on_data_s", "s"),
        ("packet.segments_per_mib", "count/MiB"),
        ("control.decide_calls", "count"),
        ("control.decide_s", "s"),
        ("core.predictor.observe_calls", "count"),
        ("core.eib.decide_calls", "count"),
        ("energy.meter.set_rate_calls", "count"),
        ("energy.rrc.on_activity_calls", "count"),
        ("energy.s", "s"),
        ("experiments.build_s", "s"),
        ("engines.compile_s", "s"),
        ("experiments.run_scenario_s", "s"),
        ("check.verify_s", "s"),
        ("runtime.run_many_s", "s"),
        ("runtime.run_many_calls", "count"),
        ("runtime.execute_s", "s"),
        ("runtime.overhead_s", "s"),
        ("runtime.queue.submit_s", "s"),
        ("runtime.queue.pop_s", "s"),
        ("runtime.queue.mark_done_s", "s"),
        ("runtime.queue.wait_s", "s"),
        ("runtime.cache.get_s", "s"),
        ("runtime.cache.put_s", "s"),
        ("runtime.cache.hit_ratio", "ratio"),
        ("runtime.store.get_s", "s"),
        ("runtime.store.put_s", "s"),
        ("runtime.retried", "count"),
        ("runtime.failed", "count"),
        ("flow.build_s", "s"),
        ("flow.step_s", "s"),
        ("flow.epochs", "count"),
        ("flow.session_steps", "count"),
        ("flow.models_s", "s"),
        ("flow.contention_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return names


#: Every per-layer metric the traced run prints, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = tuple(_layer_metric_names())


def layer_metrics(
    delta: Dict[str, Tuple[float, float]],
    passes: int,
    scale: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Turn probe deltas over ``passes`` traced passes into per-pass
    layer metrics, with host seconds times ``scale`` in reference
    seconds (see ``calibrate.py``).  ``extra`` carries what the
    workload measured itself: ``mib`` (payload delivered),
    ``session_steps``, ``overhead_pct``."""
    per = 1.0 / max(1, passes)

    def calls(name: str) -> float:
        return delta.get(name, (0.0, 0.0))[0]

    def secs(name: str) -> float:
        return delta.get(name, (0.0, 0.0))[1] * scale

    dispatched = sum(calls(f"{g}.handler") for g in GROUP_NAMES)
    scheduled = calls("sim.schedule")
    execute_s = secs("runtime.execute")
    scenario_s = secs("experiments.run_scenario")
    gets = calls("runtime.cache.get")
    mib = extra.get("mib", 0.0)
    out: Dict[str, float] = {
        "sim.scheduled": scheduled * per,
        "sim.dispatched": dispatched * per,
        "sim.dispatch_ratio": dispatched / scheduled if scheduled else 0.0,
        "sim.schedule_s": secs("sim.schedule") * per,
        "sim.run.self_s": secs("sim.run.self") * per,
    }
    for group in GROUP_NAMES:
        out[f"{group}.handler_s"] = secs(f"{group}.handler") * per
        out[f"{group}.handler_calls"] = calls(f"{group}.handler") * per
    out.update({
        "packet.link.send_s": secs("packet.link.send") * per,
        "packet.link.send_calls": calls("packet.link.send") * per,
        "packet.tcp.on_segment_s": secs("packet.tcp.on_segment") * per,
        "packet.tcp.on_segment_calls": calls("packet.tcp.on_segment") * per,
        "packet.mptcp.on_data_s": secs("packet.mptcp.on_data") * per,
        "packet.segments_per_mib": (
            calls("packet.link.send") / mib if mib else 0.0
        ),
        "control.decide_calls": calls("control.decide") * per,
        "control.decide_s": secs("control.decide") * per,
        "core.predictor.observe_calls": calls("core.predictor.observe") * per,
        "core.eib.decide_calls": calls("core.eib.decide") * per,
        "energy.meter.set_rate_calls": calls("energy.meter.set_rate") * per,
        "energy.rrc.on_activity_calls": calls("energy.rrc.on_activity") * per,
        "energy.s": sum(secs(p) for p in ENERGY_PROBES) * per,
        # Spec execution that is not the scenario run: building the
        # scenario from the builder and applying config overrides.
        "experiments.build_s": max(0.0, execute_s - scenario_s) * per,
        "engines.compile_s": secs("engines.compile") * per,
        "experiments.run_scenario_s": scenario_s * per,
        "check.verify_s": secs("check.verify") * per,
        "runtime.run_many_s": secs("runtime.run_many") * per,
        "runtime.run_many_calls": calls("runtime.run_many") * per,
        "runtime.execute_s": execute_s * per,
        "runtime.overhead_s": secs("runtime.overhead") * per,
        "runtime.queue.submit_s": secs("runtime.queue.submit") * per,
        "runtime.queue.pop_s": secs("runtime.queue.pop") * per,
        "runtime.queue.mark_done_s": secs("runtime.queue.mark_done") * per,
        "runtime.queue.wait_s": secs("runtime.queue.wait") * per,
        "runtime.cache.get_s": secs("runtime.cache.get") * per,
        "runtime.cache.put_s": secs("runtime.cache.put") * per,
        "runtime.cache.hit_ratio": calls("runtime.cache.hit") / gets if gets else 0.0,
        "runtime.store.get_s": secs("runtime.store.get") * per,
        "runtime.store.put_s": secs("runtime.store.put") * per,
        "runtime.retried": calls("runtime.retried") * per,
        "runtime.failed": calls("runtime.failed") * per,
        "flow.build_s": secs("flow.build") * per,
        "flow.step_s": secs("flow.step") * per,
        "flow.epochs": calls("flow.step") * per,
        "flow.session_steps": extra.get("session_steps", 0.0) * per,
        "flow.models_s": secs("flow.models") * per,
        "flow.contention_s": secs("flow.contention") * per,
        "trace.overhead_pct": extra.get("overhead_pct", 0.0),
    })
    return out
