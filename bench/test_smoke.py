"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "press-stream": dict(presses=600, round_presses=100),
    "policy-matrix": dict(count=70),
    "oracle-sweep": dict(counter_bits=1),
}


def _make(name, seed, workdir):
    return workloads.WORKLOADS[name](seed, str(workdir), **TINY[name])


def _inputs(workload):
    if hasattr(workload, "text"):
        return workload.text
    return [text for _, text, _ in workload.files]


@pytest.mark.parametrize("name", sorted(TINY))
def test_generation_is_deterministic_per_seed(name, tmp_path):
    first = _inputs(_make(name, 5, tmp_path))
    assert _inputs(_make(name, 5, tmp_path)) == first
    assert _inputs(_make(name, 6, tmp_path)) != first


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [1, 9001])
def test_every_operation_passes_its_checks(name, seed, tmp_path):
    workload = _make(name, seed, tmp_path)
    workload.write_inputs()
    workload.warm_up(tracing.NullTracer())
    for _ in range(2):
        for index in workload.ops():
            workload.prepare()
            workload.check_op(index, workload.run_op(tracing.NullTracer(), index))


def test_check_rejects_a_wrong_signature(tmp_path):
    workload = _make("policy-matrix", 1, tmp_path)
    workload.write_inputs()
    index = next(i for i, f in enumerate(workload.files) if f[2][0] != "NOT VULNERABLE")
    wrong = workloads.analyzer.VariantSignature(vulnerable=False)
    with pytest.raises(workloads.CheckFailed):
        workload.check_op(index, wrong)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_times_layers_and_restores_them(name, tmp_path):
    workload = _make(name, 1, tmp_path)
    workload.write_inputs()
    original = workloads.sim.receive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index in workload.ops():
            with tracer.span("op"):
                workload.run_op(tracer, index)
    finally:
        tracer.uninstall()
    assert workloads.sim.receive is original
    assert tracer.totals["fob.press"][0] > 0
    assert any(name.startswith("receiver.receive_us.") for name in tracer.totals)
    calls, total_ns, self_ns = tracer.totals["op"]
    layers_self = sum(t[2] for n, t in tracer.totals.items() if n != "op")
    assert layers_self + self_ns == total_ns
    probe = tracing.decode_probe(tracer.frames, seed=1)
    assert probe["miss"] > 0 and probe["hit"] > 0


def test_tracing_a_missing_name_raises():
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer._patch(types.SimpleNamespace(), "encode", lambda fn: fn)


def test_host_probe_scales_by_the_probes_around_an_interval():
    probe = hostspeed.HostProbe()
    # Probes end every 10 ms; the host runs at half the reference speed
    # in the first second and at the reference speed after it.  A short
    # interval is scaled by the median probe around it.
    for k in range(1, 200):
        probe.ends.append(k * 10_000_000)
        probe.durations.append(2 * hostspeed.REFERENCE_NS if k < 100 else hostspeed.REFERENCE_NS)
    assert probe.scale(400_000_000, 401_000_000) == 0.5
    assert probe.scale(1_500_000_000, 1_501_000_000) == 1.0
    # A long interval is scaled by the mean probe inside it.
    mean_ns = (99 * 2 + 100) * hostspeed.REFERENCE_NS / 199
    assert probe.scale(0, 2_000_000_000) == pytest.approx(hostspeed.REFERENCE_NS / mean_ns)
    assert probe.inside(15_000_000, 35_000_000) == 2 * 2 * hostspeed.REFERENCE_NS
    assert probe.inside(10_000_000, 10_000_000) == 2 * hostspeed.REFERENCE_NS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "press-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
