"""Benchmark of triquad, driven through ``triquad.cli.main`` in one process.

Run from the repository root, one workload at a time:

    python3 perfbench/run.py --workload table-low --seed 0 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

    table-low        generate rows d = 1..5 with the acceptance settings
    table-d6         generate row d = 6
    verify-registry  verify + weights on a frozen, digest-checked corpus

``--trace 0`` reports the end-to-end metrics, scaled to a nominal host
speed (see hostspeed.py).  ``--trace 1`` runs an untraced
pass, then the workload again with spans around every layer (on a table
workload, its generate rows alone), and reports the per-layer metrics and
the layer probes.  Every run checks
every output.  Informational lines come first; the last line of standard
output is the JSON result.
"""

import os

# one BLAS thread, set before numpy loads: default threading doubles the
# spread of layer timings on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = BENCH_DIR / "corpus"
WORK_PARENT = ROOT / ".perfbench_work"

#: Extra degrees per table row, as in tests/test_acceptance.py; the table
#: strength of row d is d + TABLE_E[d].
TABLE_E = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 5}
TABLE_ROWS = {"table-low": (1, 2, 3, 4, 5), "table-d6": (6,)}
WORKLOADS = ("table-low", "table-d6", "verify-registry")

#: The search instance (``generate --seed``) is fixed.  Its cost depends on
#: the seed by up to 4x, so a seed-varied instance would measure the seeds.
INSTANCE_SEED = 0
RESTARTS = 12

#: Newton-Cotes rules on collapsed Gauss-Legendre nodes in the verify corpus.
NC_DEGREES = tuple(range(1, 11))

#: Verify ops per generate pass on the table workloads, in equal blocks
#: after its rows.  Not a usage mix: the least that gives an untraced run
#: about 900 latency samples, 45 above p95, in the passes it makes (three
#: of table-low, two of table-d6).
VERIFY_OPS_PER_PASS = {"table-low": 300, "table-d6": 450}
NC_PASSES = 10          # untraced Newton-Cotes passes before a traced run

#: A run's work is fixed by ``--seconds`` alone, not by the clock, so every
#: run at the same ``--seconds`` attempts, and fails, the same operations.
#: The rates below are nominal, from a 2-core Xeon host with one BLAS
#: thread: a verify-registry round took about 0.17 s, a pass of table-low
#: with its verify blocks about 9.5 s (of which generate 7.5 s), a pass of
#: table-d6 about 25 s.  A slower host takes longer for the same work.
REGISTRY_ROUNDS_PER_S = 6
TABLE_PASS_S = {"table-low": 6.5, "table-d6": 20.0}
MIN_TABLE_PASSES = 2     # generate_s is a median over passes
SETUP_REPEATS = 5       # fresh interpreters timed for setup_s
PROBE_REPEATS = 7       # calls timed per layer probe

SETUP_CODE = "import triquad; triquad.BasisSpec(1)"
RESTART_LINE = re.compile(r"^restart \d+: residual \S+ after (\d+) iterations")

if __name__ == "__main__" and not (SRC / "triquad" / "__init__.py").is_file():
    sys.exit(f"perfbench: no triquad sources under {SRC}")
sys.path.insert(0, str(SRC))

from checks import (  # noqa: E402
    check_newton_cotes_text,
    check_rule_text,
    check_verify_output,
    check_weights_output,
)
from hostspeed import HostSpeed  # noqa: E402
from probes import collapsed_gauss_points, run_probes  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from triquad import cli  # noqa: E402
from triquad.domain import ref_to_bary  # noqa: E402
from triquad.ruleio import Registry, parse_rule  # noqa: E402


@dataclass
class Call:
    """One in-process CLI invocation."""

    code: object  # exit code, or the name of the exception main raised
    stdout: str
    stderr: str
    start: float  # perf_counter
    seconds: float

    def problems(self) -> list[str]:
        if self.code == 0:
            return []
        detail = self.stderr.strip().splitlines()
        return [f"exit {self.code}" + (f": {detail[-1]}" if detail else "")]


@dataclass
class Tally:
    """Operations attempted and failed, and every failure by name."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: dict = field(default_factory=dict)  # op -> [count, first problem]
    ops: set = field(default_factory=set)  # distinct operations attempted
    failed_ops: set = field(default_factory=set)  # distinct operations that failed

    def record(self, op: str, problems: list, wrong_output: bool = False) -> None:
        """Count one operation; `wrong_output` marks a reported success that is wrong."""
        self.attempted += 1
        self.ops.add(op)
        if problems:
            self.failed += 1
            self.failed_ops.add(op)
            self._note(op, "; ".join(problems))
            if wrong_output:
                self.correct = False

    def success_frac(self) -> float:
        """Distinct operations that never failed over distinct operations.

        Counted once per operation, so one newly failing row, rule or call
        moves it by a whole step however many times the run repeats it.
        """
        return 1.0 - len(self.failed_ops) / max(len(self.ops), 1)

    def mismatch(self, op: str, message: str) -> None:
        self.correct = False
        self._note(op, message)

    def _note(self, op: str, message: str) -> None:
        self.failures.setdefault(op, [0, message])[0] += 1


def _unit_scale(t0: float, t1: float) -> float:
    return 1.0


@dataclass
class Measured:
    """What a workload run measured: raw seconds, each with when it ran.

    A `scale(t0, t1)` function (HostSpeed.scale) turns them into seconds at
    the nominal host speed; without one they stay raw.
    """

    passes: list = field(default_factory=list)  # per pass: {row: (start, seconds)}
    # per verify round: (start, end, seconds in ops, [successful op latencies])
    rounds: list = field(default_factory=list)
    untraced_passes: list = field(default_factory=list)
    lm_iters: int = 0
    restarts: int = 0
    max_error: float = 0.0

    @staticmethod
    def pass_seconds(passes: list, scale=_unit_scale) -> float:
        """Median over passes of the pass time (summed over rows)."""
        if not passes:
            return 0.0
        return statistics.median(
            sum(t * scale(t0, t0 + t) for t0, t in p.values()) for p in passes
        )

    def verify(self, scale=_unit_scale) -> tuple[int, float, list]:
        """(successful ops, seconds in all ops, successful op latencies)."""
        ok, seconds, latencies = 0, 0.0, []
        for t0, t1, round_seconds, lats in self.rounds:
            k = scale(t0, t1)
            ok += len(lats)
            seconds += k * round_seconds
            latencies.extend(k * t for t in lats)
        return ok, seconds, latencies


@dataclass
class Entry:
    """A rule file the verify operation reads, with its records split out."""

    name: str
    d: int
    min_strength: int
    header: list
    records: list
    weights: object  # parsed weights, in record order

    @classmethod
    def from_text(cls, name: str, d: int, min_strength: int, text: str):
        lines = text.splitlines()
        weights = parse_rule(text).weights
        return cls(
            name, d, min_strength,
            [ln for ln in lines if ln.startswith("#")],
            [ln for ln in lines if ln.strip() and not ln.startswith("#")],
            weights,
        )

    def shuffled(self, rng: random.Random):
        order = list(range(len(self.records)))
        rng.shuffle(order)
        text = "\n".join(self.header + [self.records[i] for i in order]) + "\n"
        return text, self.weights[order]


def call_cli(argv, tracer=None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except Exception as exc:  # a raised error is a failed operation
            code = type(exc).__name__
            print(f"{code}: {exc}", file=err)
        seconds = time.perf_counter() - t0
    return Call(code, out.getvalue(), err.getvalue(), t0, seconds)


def generate_pass(rows, work, rng, tally, measured, tracer=None, after_row=None) -> dict:
    """Generate every row once, in a seeded order; return the rule texts.

    `after_row()` runs after each row, outside its timing.
    """
    order = list(rows)
    rng.shuffle(order)
    texts, seconds = {}, {}
    for d in order:
        out = work / f"generate_d{d}.txt"
        out.unlink(missing_ok=True)
        call = call_cli(
            ["generate", "--d", str(d), "--e", str(TABLE_E[d]),
             "--seed", str(INSTANCE_SEED), "--restarts", str(RESTARTS),
             "--verbose", "--out", str(out)],
            tracer,
        )
        seconds[d] = (call.start, call.seconds)
        iters = [int(m.group(1)) for m in map(RESTART_LINE.match, call.stdout.splitlines()) if m]
        measured.lm_iters += sum(iters)
        measured.restarts += len(iters)
        problems = call.problems()
        if problems:
            tally.record(f"generate d={d}", problems)
        else:
            texts[d] = out.read_text()
            tally.record(f"generate d={d}", check_rule_text(texts[d], d, d + TABLE_E[d]),
                         wrong_output=True)
        if after_row is not None:
            after_row()
    measured.passes.append(seconds)
    return texts


def newton_cotes_pass(inputs, tally, measured, tracer=None) -> dict:
    """Write the Newton-Cotes corpus through `weights`; return the rule texts."""
    texts, seconds = {}, {}
    for d, path in inputs.items():
        call = call_cli(["weights", str(path), "--d", str(d)], tracer)
        seconds[d] = (call.start, call.seconds)
        problems = call.problems()
        if problems:
            tally.record(f"weights nc_d{d}", problems)
            continue
        texts[d] = call.stdout
        tally.record(f"weights nc_d{d}", check_newton_cotes_text(texts[d], d),
                     wrong_output=True)
    measured.passes.append(seconds)
    return texts


def verify_op(entry, work, rng, tally, measured, tracer=None):
    """`verify FILE --json` then `weights FILE --d D` on shuffled records.

    Returns (seconds, whether the op succeeded).
    """
    text, weights = entry.shuffled(rng)
    path = work / "verify_op.txt"
    path.write_text(text)
    verify = call_cli(["verify", str(path), "--json"], tracer)
    seconds = verify.seconds
    problems = verify.problems()
    wrong = False
    if not problems:
        recompute = call_cli(["weights", str(path), "--d", str(entry.d)], tracer)
        seconds += recompute.seconds
        problems = recompute.problems()
        if not problems:
            problems = check_verify_output(verify.stdout, entry.min_strength)
            problems += check_weights_output(recompute.stdout, weights)
            wrong = bool(problems)
    tally.record(f"verify {entry.name}", problems, wrong_output=wrong)
    if not problems:
        report = json.loads(verify.stdout.strip().splitlines()[-1])
        measured.max_error = max(measured.max_error, float(report["max_error"]))
    return seconds, not problems


def compare_passes(first: dict, later: dict, tally: Tally, what: str) -> None:
    """Every rule file of a later pass must equal the first pass's, byte for byte."""
    for d, text in later.items():
        if d in first and first[d] != text:
            tally.mismatch(f"{what} d={d}", "rule file differs between passes")


def write_gauss_inputs(work: Path) -> dict:
    """Collapsed Gauss-Legendre nodes, equal weights, in the rule-file format."""
    inputs = {}
    for d in NC_DEGREES:
        bary = ref_to_bary(collapsed_gauss_points(d))
        w = 1.0 / bary.shape[0]
        path = work / f"gauss_d{d}.txt"
        path.write_text("".join(f"{b1:.17e} {b2:.17e} {w:.17e}\n" for b1, b2, _ in bary))
        inputs[d] = path
    return inputs


def load_corpus() -> list:
    """The frozen generated rules, each checked against its registry digest."""
    registry = Registry(CORPUS)
    entries = []
    for name in registry.names():
        rule = registry.load(name)
        strength = int(rule.metadata["header_strength"])
        text = (CORPUS / name).read_text()
        entries.append(Entry.from_text(name, rule.cardinal_degree, strength, text))
    if not entries:
        raise RuntimeError(f"empty rule corpus in {CORPUS}")
    return entries


def verify_round(entries, work, rng, tally, measured, tracer=None) -> None:
    """One verify op on every entry, in a seeded order."""
    order = list(entries)
    rng.shuffle(order)
    start, seconds, latencies = time.perf_counter(), 0.0, []
    for entry in order:
        op_seconds, ok = verify_op(entry, work, rng, tally, measured, tracer)
        seconds += op_seconds
        if ok:
            latencies.append(op_seconds)
    measured.rounds.append((start, time.perf_counter(), seconds, latencies))


def registry_rounds(seconds: float) -> int:
    """Verify rounds in a verify-registry run of nominally `seconds`."""
    return max(1, round(seconds * REGISTRY_ROUNDS_PER_S))


def table_passes(workload: str, seconds: float) -> int:
    """Generate passes in an untraced table run of nominally `seconds`."""
    return max(MIN_TABLE_PASSES, round(seconds / TABLE_PASS_S[workload]))


def run_registry(seed, seconds, work, tally, tracer=None) -> Measured:
    """Rounds of one Newton-Cotes corpus pass and one verify op per corpus rule.

    `registry_rounds(seconds)` rounds, so the short `weights` passes sample
    the whole run rather than one moment of it.  Traced, NC_PASSES untraced
    passes come first, as the baseline for the tracing overhead.
    """
    rng = random.Random(seed)
    inputs = write_gauss_inputs(work)
    measured = Measured()
    first = newton_cotes_pass(inputs, tally, measured)
    if tracer is not None:
        for _ in range(NC_PASSES - 1):
            compare_passes(first, newton_cotes_pass(inputs, tally, measured), tally, "nc")
        measured = Measured(untraced_passes=measured.passes)
    entries = load_corpus() + [
        Entry.from_text(f"nc_d{d}", d, d, text) for d, text in sorted(first.items())
    ]
    with tracer.installed() if tracer else contextlib.nullcontext():
        for _ in range(registry_rounds(seconds)):
            verify_round(entries, work, rng, tally, measured, tracer)
            later = newton_cotes_pass(inputs, tally, measured, tracer)
            compare_passes(first, later, tally, "nc")
    return measured


def run_table(workload, seed, seconds, work, tally, tracer=None) -> Measured:
    """Generate passes, each row followed by a block of verify rounds.

    Untraced: `table_passes(workload, seconds)` passes.  Traced: one
    untraced pass with its verify blocks, then one traced pass of the
    generate rows alone, so the spans cover generate only.  The verify
    rounds read the corpus rules of the workload's rows, VERIFY_OPS_PER_PASS
    ops a pass, so the verify samples spread over the whole run.
    """
    row_rng, verify_rng = random.Random(f"rows-{seed}"), random.Random(f"verify-{seed}")
    rows = TABLE_ROWS[workload]
    entries = [e for e in load_corpus() if e.d in rows]
    rounds_per_row = math.ceil(VERIFY_OPS_PER_PASS[workload] / (len(rows) * len(entries)))

    def verify_block():
        for _ in range(rounds_per_row):
            verify_round(entries, work, verify_rng, tally, measured)

    measured = Measured()
    first = generate_pass(rows, work, row_rng, tally, measured, after_row=verify_block)
    if tracer is not None:
        measured = Measured(untraced_passes=measured.passes, rounds=measured.rounds,
                            max_error=measured.max_error)
        with tracer.installed():
            later = generate_pass(rows, work, row_rng, tally, measured, tracer)
        compare_passes(first, later, tally, "generate")
        return measured
    for _ in range(table_passes(workload, seconds) - 1):
        later = generate_pass(rows, work, row_rng, tally, measured, after_row=verify_block)
        compare_passes(first, later, tally, "generate")
    return measured


def _quantiles_ms(seconds: list) -> tuple[float, float]:
    """(p50, p95) in milliseconds."""
    ms = [1e3 * s for s in seconds]
    if len(ms) < 2:
        return (ms[0], ms[0]) if ms else (0.0, 0.0)
    q = statistics.quantiles(ms, n=100)
    return q[49], q[94]


def end_to_end_metrics(measured: Measured, tally: Tally, setups: list,
                       scale=_unit_scale) -> dict:
    """The end-to-end metrics; `setups` holds (start, seconds) per fresh interpreter."""
    ok, verify_seconds, latencies = measured.verify(scale)
    p50, p95 = _quantiles_ms(latencies)
    return {
        "setup_s": statistics.median(t * scale(t0, t0 + t) for t0, t in setups),
        "generate_s": Measured.pass_seconds(measured.passes, scale),
        "verify_rules_per_s": ok / verify_seconds if verify_seconds else 0.0,
        "verify_ms_p50": p50,
        "verify_ms_p95": p95,
        "success_frac": tally.success_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, measured: Measured, probe_ms: dict, probe_failures: list) -> dict:
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.s"] = tracer.total[name]
        metrics[f"{name}.self_s"] = tracer.self_time[name]
    optimize_s = tracer.total["optimizer.optimize"]
    iters = measured.lm_iters
    traced_s = Measured.pass_seconds(measured.passes)
    untraced_s = Measured.pass_seconds(measured.untraced_passes)
    metrics.update({
        "optimizer.lm_iters": iters,
        "optimizer.restarts": measured.restarts,
        "optimizer.iters_per_s": iters / optimize_s if optimize_s else 0.0,
        "optimizer.evals_per_iter": (
            tracer.calls["basis.vandermonde_deriv"] / iters if iters else 0.0
        ),
        "rule.max_error": measured.max_error,
        "trace.wall_s": tracer.wall(),
        "trace.generate_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "probe.failed": len(probe_failures),
    })
    metrics.update(probe_ms)
    return metrics


def measure_setup() -> list:
    """(start, seconds) of fresh interpreters importing triquad and building a BasisSpec."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        samples.append((t0, time.perf_counter() - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return samples


def environment() -> dict:
    """Facts every result is recorded with."""
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def result_line(tally: Tally, metrics: dict, declared: list) -> str:
    """The JSON result; refuses a metric set that differs from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one CPU for the run, the interpreters it starts and the host speed
    # sampler, so the sampler sees the speed the timed work sees
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print("env " + json.dumps(environment(), sort_keys=True))
    tally = Tally()
    tracer = Tracer() if args.trace else None
    speed = HostSpeed(dict(os.environ))
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    with speed if tracer is None else contextlib.nullcontext():
        try:
            if args.workload == "verify-registry":
                measured = run_registry(args.seed, args.seconds, work, tally, tracer)
            else:
                measured = run_table(args.workload, args.seed, args.seconds, work, tally,
                                     tracer)
        finally:
            shutil.rmtree(work)
            with contextlib.suppress(OSError):
                WORK_PARENT.rmdir()
        setups = measure_setup() if tracer is None else []

    for op, (count, first) in tally.failures.items():
        print(f"failed: {op} ({count}x): {first}")
    print(f"samples: {len(measured.passes)} passes, {len(measured.rounds)} verify rounds, "
          f"{measured.verify()[0]} successful verify ops")
    if tracer is None:
        raw = end_to_end_metrics(measured, tally, setups)
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print(f"host speed: {len(speed.kernel)} samples, median scale {speed.median_scale():.4f}")
        metrics = end_to_end_metrics(measured, tally, setups, speed.scale)
        declared = spec["end_to_end"]
    else:
        probe_ms, probe_failures = run_probes(PROBE_REPEATS)
        for failure in probe_failures:
            print(f"probe failed: {failure}")
        metrics = per_layer_metrics(tracer, measured, probe_ms, probe_failures)
        self_sum = sum(tracer.self_time.values())
        print(f"trace: self times sum to {self_sum:.6f} s of {tracer.wall():.6f} s traced wall")
    print(result_line(tally, metrics, declared if tracer is None else spec["per_layer"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
