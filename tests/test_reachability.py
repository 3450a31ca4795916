"""tools/reachability.py on a toy package: attribution and the gate."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"
spec = importlib.util.spec_from_file_location("reachability", TOOL)
reachability = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reachability)

TOY = '''
import functools
import subprocess
import sys
import threading


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
@deco
def decorated():
    return 1


def outer():
    def nested():
        return 2
    return nested()


def in_child():
    return 3


def on_thread():
    return 4


def never_called():
    a = 1
    b = 2
    c = 3
    d = 4
    return a + b + c + d


def short_and_unreached():
    return 0


def one_line(): return 0  # noqa: E704


class Box:
    def get(self):
        x = 1
        y = 2
        z = 3
        w = 4
        return x + y + z + w


def main():
    decorated()
    outer()
    subprocess.run([sys.executable, "-c", "import toy.mod; toy.mod.in_child()"],
                   check=True)
    worker = threading.Thread(target=on_thread)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
'''


@pytest.fixture
def toy(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    return tmp_path


COMMANDS = [[sys.executable, "-c", "import toy.mod; toy.mod.main()"]]


def _reached_names(root):
    out = root / "out"
    out.mkdir()
    reached, failed = reachability.collect(root, COMMANDS, out)
    assert failed == []
    defs, _classes, _sizes = reachability.functions(root / "src")
    return {qual for _m, qual, path, first, _n, _o in defs if (path, first) in reached}


def test_each_kind_of_call_is_attributed(toy):
    names = _reached_names(toy)
    # decorated (keyed by its first decorator line), nested, run only in a
    # child process, run only on a worker thread
    assert {"decorated", "outer.<locals>.nested", "in_child", "on_thread"} <= names
    assert not {"never_called", "short_and_unreached", "one_line", "Box.get"} & names


def test_unreached_function_off_the_keep_list_fails(toy, capsys):
    keep = {"toy.mod:Box": ("protocol", "kept by its class")}
    assert reachability.run(toy, keep, {}, COMMANDS) == 1
    failures = capsys.readouterr().out.split("FAIL", 1)[1]
    assert "not on the keep-list: toy.mod:never_called" in failures
    assert "toy.mod:Box.get" not in failures
    # no size threshold: a two-line and a one-line function fail as well
    assert "2 lines, not on the keep-list: toy.mod:short_and_unreached" in failures
    assert "1 lines, not on the keep-list: toy.mod:one_line" in failures


TOY_KEEP = {
    "toy.mod:Box": ("protocol", "kept by its class"),
    "toy.mod:never_called": ("fault", "a rollback path"),
    "toy.mod:short_and_unreached": ("reference", "a scalar form"),
    "toy.mod:one_line": ("reference", "as short_and_unreached"),
}


def test_keep_list_passes_and_stale_entries_fail(toy, capsys):
    keep = dict(TOY_KEEP)
    assert reachability.run(toy, keep, {}, COMMANDS) == 0
    keep["toy.mod:deleted_last_year"] = ("fault", "gone")
    assert reachability.run(toy, keep, {}, COMMANDS) == 1
    assert "'toy.mod:deleted_last_year' names nothing" in capsys.readouterr().out
    del keep["toy.mod:deleted_last_year"]
    keep["toy.mod:never_called"] = ("because", "not one of the four reasons")
    assert reachability.run(toy, keep, {}, COMMANDS) == 1


def test_a_keep_entry_that_excuses_nothing_fails(toy, capsys):
    # ``decorated`` exists but an entry point reaches it: the entry is stale
    keep = {**TOY_KEEP, "toy.mod:decorated": ("fault", "once unreached")}
    assert reachability.run(toy, keep, {}, COMMANDS) == 1
    failures = capsys.readouterr().out.split("FAIL", 1)[1]
    assert "'toy.mod:decorated' excuses no unreached line" in failures
    assert failures.count("FAIL") == 0  # the only failure


def test_the_paper_reason_is_gone(toy, capsys):
    keep = {**TOY_KEEP, "toy.mod:never_called": ("paper", "a surface §2 names")}
    assert reachability.run(toy, keep, {}, COMMANDS) == 1
    assert "'toy.mod:never_called': unknown reason 'paper'" in capsys.readouterr().out
    assert "paper" not in reachability.REASONS


def test_a_failing_entry_point_fails_the_run(toy, capsys):
    keep = dict(TOY_KEEP)
    commands = COMMANDS + [[sys.executable, "-c", "raise SystemExit(3)"]]
    assert reachability.run(toy, keep, {}, commands) == 1
    assert "entry point failed" in capsys.readouterr().out


def test_repo_keep_list_is_well_formed():
    for name, (reason, what) in reachability.KEEP.items():
        assert reason in reachability.REASONS, name
        assert ":" in name and what, name


# ----------------------------------------------------------------------
# The options pass: which settable values does non-test code ever set?
# ----------------------------------------------------------------------
OPTIONS_TOY = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class Knobs:
    never_set: int = 1
    set_twice: int = 2
    from_cli: int = 3


def build(size: int = 8):
    return size


class ExperimentSpec:
    def __init__(self, exp_id):
        self.exp_id = exp_id


SPECS = (ExperimentSpec("fig99"),)
'''

OPTIONS_TRAFFIC = '''
from toy.opts import Knobs, build

a = Knobs(set_twice=5)
b = Knobs(set_twice=6)
overrides = dict()
overrides["from_cli"] = 4
c = Knobs(**overrides)
build()
'''


@pytest.fixture
def options_toy(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "opts.py").write_text(textwrap.dedent(OPTIONS_TOY))
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(textwrap.dedent(OPTIONS_TRAFFIC))
    return tmp_path


def _option_failures(root, keep):
    _lines, failures = reachability.options_pass(root, [], keep, {})
    return failures


def test_a_field_nobody_sets_fails_and_a_varied_one_passes(options_toy):
    failures = "\n".join(_option_failures(options_toy, {}))
    assert "no non-test code sets: toy.opts:Knobs.never_set" in failures
    assert "toy.opts:build.size" in failures  # called, never passed
    # two sites, two values; and the CLI idiom: a dict filled, then splatted
    assert "set_twice" not in failures and "from_cli" not in failures


def test_a_test_file_is_not_traffic(options_toy):
    (options_toy / "examples" / "test_use.py").write_text(
        "from toy.opts import Knobs\nKnobs(never_set=9)\n")
    assert "Knobs.never_set" in "\n".join(_option_failures(options_toy, {}))


def test_option_keep_list_discipline(options_toy):
    keep = {
        "toy.opts:Knobs.never_set": ("paper", "fig99 sweeps it (§9)"),
        "toy.opts:build.size": ("seam", "test-sized build"),
    }
    assert _option_failures(options_toy, keep) == []
    table, _ = reachability.options_pass(options_toy, [], keep, {})
    assert table[-1].split()[-3:] == ["4", "2", "2"]  # options / one-value / kept

    def failing(key, entry):
        return "\n".join(_option_failures(options_toy, {**keep, key: entry}))

    assert "names nothing" in failing(
        "toy.opts:Knobs.gone", ("seam", "deleted last year"))
    assert "unknown reason 'because'" in failing(
        "toy.opts:build.size", ("because", "not one of the four"))
    # a paper keep cites a registered experiment
    assert "registered experiment" in failing(
        "toy.opts:Knobs.never_set", ("paper", "the paper names it"))
    assert "registered experiment" in failing(
        "toy.opts:Knobs.never_set", ("paper", "fig98 sweeps it"))


def test_options_of_an_excused_function_are_not_counted(options_toy):
    _lines, failures = reachability.options_pass(
        options_toy, [], {}, {"toy.opts:build": ("reference", "kept unreached")})
    assert "build.size" not in "\n".join(failures)


def test_a_flag_needs_an_entry_point_or_a_doc(options_toy):
    (options_toy / "src" / "toy" / "cli.py").write_text(
        'def parser(p):\n    p.add_argument("--used")\n    p.add_argument("--unused")\n')
    commands = [["python", "-m", "toy", "--used", "3"]]
    _lines, failures = reachability.options_pass(options_toy, commands, {}, {})
    text = "\n".join(failures)
    assert "toy.cli:--unused" in text and "toy.cli:--used" not in text
    (options_toy / "README.md").write_text("Run `toy --unused 1` for the other mode.\n")
    _lines, failures = reachability.options_pass(options_toy, commands, {}, {})
    assert "--unused" not in "\n".join(failures)


def test_a_splat_of_parsed_flags_sets_only_the_flag_fields(options_toy):
    (options_toy / "src" / "toy" / "flagged.py").write_text(textwrap.dedent('''
        from dataclasses import dataclass, field


        def _flag(default, help):
            return field(default=default, metadata=dict(help=help))


        @dataclass(frozen=True)
        class Run:
            speed: int = _flag(1, "how fast")
            tuning: float = 0.5
    '''))
    (options_toy / "examples" / "cli.py").write_text(
        "from toy.flagged import Run\n"
        "given = {name: value for name, value in vars(args).items()}\n"
        "Run(**given)\n")
    failures = "\n".join(_option_failures(options_toy, {}))
    assert "no non-test code sets: toy.flagged:Run.tuning" in failures
    assert "Run.speed" not in failures


def test_repo_option_keep_list_is_well_formed():
    for key, (reason, what) in reachability.OPTION_KEEP.items():
        assert reason in reachability.OPTION_REASONS, key
        assert ":" in key and what, key


# ----------------------------------------------------------------------
# The defaults did not move: what survives on a config class reads as it did
# before the options census, and each constant is the deleted field's default.
# ----------------------------------------------------------------------
INF = float("inf")

#: (module, config-like class, its defaulted fields and their values).
CONFIGS = [
    ("repro.cluster.frontend", "ClusterConfig",
     dict(nodes=3, replication=2, placement="ring", seed=0)),  # + breaker
    ("repro.core.embedding_layer", "EmbeddingLayerConfig",
     dict(cache_ratio=None, capacity_entries=None)),  # + solver
    ("repro.core.refresher", "RefreshConfig", dict(update_batch_entries=4096)),
    ("repro.core.solver", "SolverConfig",
     dict(coarse_block_frac=0.005, integral=False, time_limit=60.0)),
    ("repro.serve.breaker", "BreakerConfig",
     dict(failure_threshold=3, cooldown_seconds=2.0, half_open_probes=2,
          success_threshold=2)),
    ("repro.serve.coalesce", "CoalesceConfig", dict(max_batch=8, linger_seconds=0.0)),
    ("repro.serve.queueing", "AdmissionConfig",
     dict(capacity=64, slo_seconds=INF, shed_on_slo=True)),  # + policy
    ("repro.serve.runtime", "ServeConfig",
     dict(hedge_enabled=True, hedge_headroom=1.25, source_timeout_seconds=INF)),
    ("repro.serve.soak", "SoakConfig",
     dict(scenario="steady", requests_per_gpu=300, load=0.8, closed_loop=False,
          clients=4, num_entries=20_000, entry_bytes=128, batch_keys=1024,
          max_batch=8, linger_factor=0.5,
          nodes=1, replication=1, placement="ring", tiers=None, drift=None,
          seed=0)),
]

#: module → the constants that replaced its deleted fields and parameters.
CONSTANTS = {
    "repro.hardware.topology": dict(NVLINK_LANE_BANDWIDTH=25e9),
    "repro.sim.congestion": dict(
        BETA=1.0, MAX_DEGRADATION=0.5, SWITCH_COLLISION_BETA=0.06, ITERATIONS=60,
        DAMPING=0.5),
    "repro.sim.trace": dict(GANTT_WIDTH=60),
    "repro.core.blocks": dict(MAX_LEVELS=40),
    "repro.core.evaluate": dict(BALANCE_TOP=128),
    "repro.core.location_table": dict(MAX_LOAD=0.7),
    "repro.core.pipeline": dict(
        NETWORK_LATENCY_SECONDS=50e-6, NETWORK_BANDWIDTH_BYTES=25e9),
    "repro.core.refresher": dict(
        FOREGROUND_IMPACT=0.10, TRIGGER_RATIO=1.05, SOLVE_SECONDS=10.0,
        ENTRIES_PER_SECOND=200_000.0, SAMPLE_INTERVAL=0.5),
    "repro.core.solver": dict(WARM_MAX_PROFILE_SHIFT=0.5, WARM_GUARD_RATIO=1.5),
    "repro.core.drift_adapt": dict(
        TOP_FRAC=0.01, JACCARD_FLOOR=0.5, CORR_FLOOR=0.2, HYSTERESIS=2,
        COOLDOWN_CHECKS=8, MIN_BATCHES=16),
    "repro.serve.adaptation": dict(DECAY=0.95, CHECK_EVERY=8),
    "repro.serve.policy_manager": dict(P99_REGRESSION=2.0),
    "repro.serve.queueing": dict(ESTIMATOR_ALPHA=0.2),
    "repro.serve.soak": dict(
        SWAP_AT=(0.6,), ZIPF_ALPHA=1.1, CACHE_RATIO=0.12, DEADLINE_FACTOR=10.0,
        QUEUE_CAPACITY=32),
    "repro.cluster.rpc": dict(TIMEOUT_FACTOR=8.0, HEDGE_FACTOR=3.0, RETRY=2),
    "repro.cluster.ring": dict(VNODES_PER_NODE=64),
    "repro.cluster.placement": dict(WIDE_REPLICATE_FRAC=0.01),
    "repro.cluster.node": dict(REPLICATE_FRACTION=0.5),
    "repro.repair.scrub": dict(
        SCAN_BYTES_PER_TICK=16 * 1024, REPAIR_BYTES_PER_TICK=16 * 1024),
    "repro.repair.restage": dict(CHUNK_ENTRIES=256),
    "repro.dlr.models": dict(MLP_LAYERS=6, MLP_WIDTH=512),
    "repro.dlr.nn": dict(
        DENSE_DIM=13, BOTTOM_DIMS=(64,), TOP_DIMS=(128, 64), DEEP_DIMS=(128, 64),
        CROSS_LAYERS=3),
    "repro.gnn.models": dict(HIDDEN=256),
    "repro.cli": dict(SOLVE_ENTRY_BYTES=512, SOLVE_BATCH_KEYS=100_000),
}


def test_surviving_defaults_and_new_constants_did_not_move():
    import dataclasses
    import importlib

    from repro.serve.breaker import BreakerConfig

    total = 0
    for module, name, pinned in CONFIGS:
        cls = getattr(importlib.import_module(module), name)
        cfg = cls()
        for field, value in pinned.items():
            assert getattr(cfg, field) == value, f"{name}.{field}"
        total += sum(f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING
                     for f in dataclasses.fields(cls))
    # 128 fields on 21 classes before the census; PrefetchConfig and two
    # SoakConfig fields went with the lookahead stage, two more with the
    # repair switch, SolverConfig.method with the orbit quotient,
    # ChaosConfig's six with the chaos batch loop, FallbackConfig's three
    # with the solver's retry, greedy and last-known-good rungs, and
    # RetryPolicy's four, SwapGuardrail's one and three SoakConfig fields
    # (queue policy, deadline factor, queue capacity) as settings no run
    # tells apart; SoakConfig's tenants went to the scenario row and adapt
    # into the drift value
    assert len(CONFIGS) == 9 and total == 45
    _found, _callables, _experiments, fields = reachability.options(TOOL.parents[1] / "src")
    in_src = {key.split(":")[1].rsplit(".", 1)[0] for key in fields}
    assert {name for _, name, _ in CONFIGS} == {
        name for name in in_src
        if name.endswith("Config")
        or name in ("NetworkTier", "CongestionModel")
    }
    for module, pinned in CONSTANTS.items():
        for constant, value in pinned.items():
            assert getattr(importlib.import_module(module), constant) == value, constant
    from repro.cluster.frontend import ClusterConfig

    assert ClusterConfig().breaker == BreakerConfig()
