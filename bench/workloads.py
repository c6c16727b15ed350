"""One benchmark run in one process: set a workload up, measure it, check
its outputs, and print the result as the last line of standard output.

run.py starts this file in a child process with one BLAS thread and
PYTHONPATH set to the checkout's ``src``; see run.py for the arguments.

Workloads (closed loop, one caller, each operation starts when the
previous one has finished):

  train      trainer.train on the reference dataset: arm c under the frozen
             acceptance config (epochs=40, mining warm-up 36), then arm d
             with the default 2-epoch mining warm-up, twice, so that the two
             arm-d runs can be compared byte for byte. This is where users
             spend their time; taped forward and backward dominate a step.
  score      eval, export-scores and mine through wvad.cli.main on a
             600-video test-only dataset, with a checkpoint trained during
             set-up. Forward without the tape, loading, frame expansion,
             metrics, CSV writing and parsing, mining; no backward, Adam or
             loss work, so a backward-only change must not move it.
  gradcheck  verification.run_all at 5 seeds: the same tensor ops on tiny
             float64 shapes with thousands of untaped evaluations, so the
             Python cost of each op dominates.

The seed picks the datasets (synth seed 7 + seed) and the training seed;
seed 0 is the reference dataset. The gradient suite seeds its own cases, so
the gradcheck inputs are the same for every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import spec
import wvad
from tracer import Stat, Tracer, clock, cost_per_span, delta
from wvad import cli, encoder, losses, synthdata, tensor, trainer, verification
from wvad.encoder import EncodedVideo, EncoderConfig, TransformerModel
from wvad.metrics import EvalRecord, evaluate
from wvad.mining import MiningConfig, mine_batch
from wvad.synthdata import SynthConfig
from wvad.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent

REF_SYNTH_SEED = 7         # the reference dataset of the README
SCORE_SYNTH_SEED = 1007    # the score test set, disjoint from the reference videos
SCORE_VIDEOS = 600
SCORE_CKPT_EPOCHS = 5
GRADCHECK_SEEDS = 5
# set-ups per run, setup_s being their median: five where a set-up takes
# well under a second, three for score's two-second one
SETUPS = {"train": 5, "score": 3, "gradcheck": 5}


class Run:
    """State of one run: arguments, tracer, work directory, check tally."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.small = args.size == "small"
        self.traced = bool(args.trace)
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.tracer = Tracer(keep_samples=("trainer.train_step",))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.op_samples: list[float] = []   # seconds of each operation in the window
        self.info: dict = {}          # readouts printed next to the metrics
        self.layer_extra: dict = {}   # per-layer values measured by the workload itself

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {name} {detail}".rstrip())

    def attempt(self, what: str, fn, *args, count: bool = True, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        if count:
            self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:  # the loop must keep going; the failure is reported
            if not count:
                self.attempted += 1
            self.failed += 1
            self.problems.append(f"{what} raised:\n{traceback.format_exc()}")
            return False, None

    def setups(self, setup):
        """Set up SETUPS[workload] times in fresh directories; returns
        (median seconds, last state)."""
        times, state = [], None
        for i in range(1 if self.small else SETUPS[self.workload]):
            start = clock()
            state = setup(self.work / f"setup{i}")
            times.append(clock() - start)
        return statistics.median(times), state

    def measure(self, op, group: int = 1) -> list[float]:
        """Repeat ``op(rep)`` in groups of ``group`` while the next group is
        expected to end inside the window; at least one group. Returns each
        repetition's seconds."""
        durations: list[float] = []
        start = clock()
        while True:
            t0 = clock()
            op(len(durations))
            durations.append(clock() - t0)
            if len(durations) % group == 0 and (
                    clock() - start + sum(durations[-group:]) > self.seconds):
                break
        # before the checks, whose parsing would otherwise set the peak
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return durations

    def signature(self, before) -> dict:
        """Call counts and counters since ``before``: the deterministic part."""
        stats, counters = delta(self.tracer.snapshot(), before)
        sig = {f"calls.{n}": s.calls for n, s in stats.items() if s.calls}
        sig.update({n: v for n, v in counters.items() if v})
        return sig


# ---------------------------------------------------------------------
# environment


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in spec.THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git directory, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------
# tracing


def count_graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the tape, as backward visits them."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install_base(run: Run):
    """The one wrapper per workload that times its operation, traced or not."""
    t = run.tracer
    if run.workload == "train":
        t.wrap(trainer, "train_step", "trainer.train_step")
    elif run.workload == "gradcheck":
        def evals(args, kwargs, result):
            params = args[1].items() if isinstance(args[1], dict) else args[1]
            t.count("verification.objective_evals",
                    1 + 2 * sum(p.data.size for _, p in params))
        t.wrap(verification, "grad_check", "verification.grad_check", evals)


def install_layers(run: Run):
    """Wrap each module's public functions where the others call them."""
    t = run.tracer

    def forward_name(*args, **kwargs):
        return "encoder.forward" if tensor._GRAD_ENABLED else "encoder.forward_nograd"

    def graph_nodes(args, kwargs, result):
        with t.span("bench.graph_count"):
            t.count("tensor.graph_nodes", count_graph_nodes(result[0]))

    def mined(args, kwargs, result):
        c = result.counts()
        for key in ("HA", "EA", "HN", "EN"):
            t.count(f"mining.{key}", c[key])
        if c["EA"] and c["EN"] and (c["HA"] or c["HN"]):
            t.count("mining.useful")

    def frames(args, kwargs, result):
        t.count("metrics.frames", args[0].frame_scores.size)

    def loaded(args, kwargs, result):
        t.count("synthdata.videos_loaded", len(result))

    t.wrap(TransformerModel, "forward", forward_name)
    t.wrap(encoder, "dws_conv1d", "encoder.conv")
    t.wrap(encoder, "multi_head_self_attention", "encoder.attention")
    t.wrap(encoder, "layer_norm", "encoder.ln_ff")
    t.wrap(encoder, "gelu", "encoder.ln_ff")
    t.wrap(cli, "load_checkpoint", "encoder.checkpoint_load")
    t.wrap(trainer, "loss_total", "losses.total", graph_nodes)
    t.wrap(verification, "loss_total", "losses.total")
    t.wrap(losses, "loss_snippet_topk", "losses.hinge")
    t.wrap(losses, "loss_video", "losses.video")
    t.wrap(losses, "loss_regularisation", "losses.reg")
    t.wrap(losses, "loss_contrastive", "losses.contrastive")
    t.wrap(trainer, "mine_batch", "mining.batch", mined)
    t.wrap(cli, "mine_batch", "mining.batch", mined)
    t.wrap(tensor.Tensor, "backward", "tensor.backward")
    t.wrap(trainer, "adam_step", "trainer.adam")
    t.wrap(trainer, "save_checkpoint", "trainer.checkpoint_save")
    t.wrap(cli, "evaluate", "metrics.evaluate", frames)
    t.wrap(synthdata, "generate_dataset", "synthdata.generate")
    t.wrap(synthdata, "load_split", "synthdata.load_split", loaded)
    t.wrap(cli, "load_split", "synthdata.load_split", loaded)
    t.wrap(cli, "cmd_eval", "cli.eval")
    t.wrap(cli, "cmd_export_scores", "cli.export_scores")
    t.wrap(cli, "cmd_mine", "cli.mine")
    t.wrap(verification, "check_case",
           lambda name, *args, **kwargs: f"verification.case.{name}")


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return 1000.0 * statistics.median(times)


def isolated_layers(seed: int) -> dict:
    """Input projection and heads, taped, on the reference shapes."""
    config = EncoderConfig()
    params = TransformerModel.init(config, seed).params
    rng = np.random.default_rng(seed)
    feats = tensor.Tensor(rng.normal(size=(config.num_snippets, config.d_in))
                          .astype(np.float32))
    enc = EncodedVideo(tensor.Tensor(
        rng.normal(size=(config.num_snippets + 1, config.d_model)).astype(np.float32),
        requires_grad=True))
    return {
        "encoder.input_proj_ms": median_ms(lambda: feats @ params.w_in + params.b_in, 300),
        "encoder.heads_ms": median_ms(lambda: (encoder.snippet_scores(enc, params),
                                               encoder.video_score(enc, params)), 300),
    }


def layer_metrics(run: Run, window, whole, reps: int, seconds: float,
                  work_per_s: float, span_cost: float) -> dict:
    """Every per-layer metric from the timed window (synthdata: whole run)."""
    stats, counters = window
    empty = Stat()

    def get(name):
        return stats.get(name, empty)

    def ms_per_call(name, source=None):
        s = (source or stats).get(name, empty)
        return 1000.0 * s.total / s.calls if s.calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_calls = get("encoder.forward").calls + get("encoder.forward_nograd").calls
    loss_calls = get("losses.total").calls
    mine_calls = get("mining.batch").calls
    step = get("trainer.train_step")
    steps = run.tracer.samples["trainer.train_step"]
    whole_stats, whole_counters = whole
    load = whole_stats.get("synthdata.load_split", empty)
    m = {
        "tensor.graph_nodes_per_step": ratio(counters.get("tensor.graph_nodes", 0), step.calls),
        "tensor.backward_ms": ms_per_call("tensor.backward"),
        "tensor.backward_calls": get("tensor.backward").calls / reps,
        "encoder.forward_ms_per_video": ms_per_call("encoder.forward"),
        "encoder.forward_nograd_ms_per_video": ms_per_call("encoder.forward_nograd"),
        "encoder.checkpoint_load_ms": ms_per_call("encoder.checkpoint_load"),
        "losses.total_ms": ms_per_call("losses.total"),
        "losses.contrastive_ms": ms_per_call("losses.contrastive"),
        "mining.batch_ms": ms_per_call("mining.batch"),
        "mining.calls": mine_calls / reps,
        "mining.useful_ratio": ratio(counters.get("mining.useful", 0), mine_calls),
        "trainer.step_ms": ms_per_call("trainer.train_step"),
        "trainer.step_ms.p90": 1000.0 * p90(steps) if len(steps) >= 10 else 0.0,
        "trainer.step_other_ms": ratio(1000.0 * step.self_total, step.calls),
        "trainer.adam_ms": ms_per_call("trainer.adam"),
        "trainer.checkpoint_save_ms": ms_per_call("trainer.checkpoint_save"),
        "trainer.steps": step.calls / reps,
        "metrics.evaluate_ms": ms_per_call("metrics.evaluate"),
        "metrics.frames": ratio(counters.get("metrics.frames", 0), get("metrics.evaluate").calls),
        "synthdata.generate_s": ms_per_call("synthdata.generate", whole_stats) / 1000.0,
        "synthdata.load_split_ms": ms_per_call("synthdata.load_split", whole_stats),
        "synthdata.videos_loaded": ratio(whole_counters.get("synthdata.videos_loaded", 0),
                                         load.calls),
        "cli.eval_ms": ms_per_call("cli.eval"),
        "cli.export_scores_ms": ms_per_call("cli.export_scores"),
        "cli.mine_ms": ms_per_call("cli.mine"),
        "verification.objective_evals": counters.get("verification.objective_evals", 0) / reps,
        "bench.traced_work_per_s": work_per_s,
    }
    for part in ("conv", "attention", "ln_ff"):
        m[f"encoder.{part}_ms"] = ratio(1000.0 * get(f"encoder.{part}").self_total, fwd_calls)
    # terms called inside loss_total: time per loss_total call
    for term in ("hinge", "video", "reg"):
        m[f"losses.{term}_ms"] = ratio(1000.0 * get(f"losses.{term}").total, loss_calls)
    for key in ("ha", "ea", "hn", "en"):
        m[f"mining.n_{key}"] = ratio(counters.get(f"mining.{key.upper()}", 0), mine_calls)
    for case in spec.VERIFICATION_CASES:
        m[f"verification.case_ms.{case}"] = ms_per_call(f"verification.case.{case}")
    spans = sum(s.calls for s in stats.values())
    overhead = spans * span_cost + get("bench.graph_count").total
    m["bench.trace_spans"] = spans / reps
    m["bench.trace_overhead_pct"] = 100.0 * overhead / seconds
    # measured by one workload only
    m.update({"trainer.checkpoint_bytes": 0.0, "metrics.auc": 0.0, "metrics.ap": 0.0,
              "cli.csv_bytes_written": 0.0})
    m.update(run.layer_extra)
    return m


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[-1]


# ---------------------------------------------------------------------
# helpers


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def triples_of(videos):
    return [(v.record.id, v.record.video_label, v.features) for v in videos]


def run_cli(run: Run, argv: list[str]) -> str:
    """One subcommand through wvad.cli.main in this process; returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        ok, code = run.attempt(f"wvad {argv[0]}", cli.main, argv)
    if ok and code != 0:
        run.failed += 1
        run.problems.append(f"wvad {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------
# train


def train_configs(run: Run):
    accept = TrainConfig(epochs=40, mining_warmup_epochs=36)
    arm_c = cli.ablation_train_config(accept, "c", run.seed)
    arm_d = cli.ablation_train_config(
        replace(accept, mining_warmup_epochs=TrainConfig().mining_warmup_epochs), "d", run.seed)
    if run.small:
        arm_c, arm_d = replace(arm_c, epochs=1), replace(arm_d, epochs=3)
    warm = replace(arm_d, epochs=1, mining_warmup_epochs=0)
    return arm_c, arm_d, warm


def train_workload(run: Run):
    arm_c, arm_d, warm = train_configs(run)

    def setup(where: Path):
        synthdata.generate_dataset(SynthConfig(seed=REF_SYNTH_SEED + run.seed), where)
        triples = triples_of(synthdata.load_split(where, "train"))
        test = synthdata.load_split(where, "test")
        trainer.train(triples, warm)
        return triples, test

    setup_s, (triples, test) = run.setups(setup)
    install_base(run)
    before = run.tracer.snapshot()
    plans: list[dict] = []
    models = {}

    arms = (("c", arm_c), ("d1", arm_d), ("d2", arm_d))

    def train_arm(rep: int):
        arm, config = arms[rep % len(arms)]
        if arm == "c":
            plans.append({})
        mark = run.tracer.snapshot()
        out = run.work / "train" / arm
        ok, result = run.attempt(f"train arm {arm}", trainer.train, triples, config,
                                 out_dir=out, count=False)
        if not ok:
            return
        models[arm] = result.model
        log = read_csv(out / "log.csv")
        plans[-1][arm] = {
            "checkpoint": sha256(out / "checkpoint.wvck"),
            "log": sha256(out / "log.csv"),
            "checkpoint_bytes": (out / "checkpoint.wvck").stat().st_size,
            "rows": len(log) - 1 == result.steps,
            "finite": all(math.isfinite(float(x)) for row in log[1:] for x in row[2:7]),
            "counts": run.signature(mark),
        }

    durations = run.measure(train_arm, group=len(arms))
    window = delta(run.tracer.snapshot(), before)
    steps = run.op_samples = run.tracer.samples["trainer.train_step"]
    run.attempted += len(steps)
    for rep, outputs in enumerate(plans):
        for arm, o in outputs.items():
            run.check(f"plan {rep} arm {arm}: log has one row per step", o["rows"])
            run.check(f"plan {rep} arm {arm}: every loss is finite", o["finite"])
        if "d1" in outputs and "d2" in outputs:
            d1, d2 = outputs["d1"], outputs["d2"]
            run.check(f"plan {rep}: arm d repeats give identical checkpoint bytes",
                      d1["checkpoint"] == d2["checkpoint"])
            run.check(f"plan {rep}: arm d repeats give identical log.csv bytes",
                      d1["log"] == d2["log"])
            run.check(f"plan {rep}: arm d repeats give identical counts",
                      d1["counts"] == d2["counts"], f"{d1['counts']} != {d2['counts']}")
        if rep:
            run.check(f"plan {rep} repeats plan 0", outputs == plans[0])
    for arm in ("c", "d1"):
        if arm in models:
            auc, ap, _ = cli.evaluate_model(models[arm], test)
            run.info[f"arm_{arm[0]}_auc"] = auc
            run.info[f"arm_{arm[0]}_ap"] = ap
            run.check(f"arm {arm[0]} AUC/AP are in [0, 1]", 0.0 <= auc <= 1.0 and 0.0 <= ap <= 1.0)
    run.info["steps"] = len(steps)
    run.info["step_ms.p90"] = 1000.0 * p90(steps)
    run.info["step_samples_beyond_p90"] = sum(s > p90(steps) for s in steps)
    if "d1" in plans[-1]:
        run.layer_extra["trainer.checkpoint_bytes"] = plans[-1]["d1"]["checkpoint_bytes"]
    run.layer_extra["metrics.auc"] = run.info.get("arm_c_auc", 0.0)
    run.layer_extra["metrics.ap"] = run.info.get("arm_c_ap", 0.0)
    videos = len(steps) * (arm_c.batch_normal + arm_c.batch_abnormal)
    return {
        "setup_s": setup_s,
        "work_per_s": videos / sum(durations),
        "op_ms.p50": 1000.0 * statistics.median(steps),
    }, window, len(plans), sum(durations)


# ---------------------------------------------------------------------
# score


def score_pass(run: Run, data: Path, ckpt: Path, out: Path) -> tuple[float, str]:
    """eval, export-scores, mine; returns (eval seconds, eval's stdout)."""
    start = clock()
    text = run_cli(run, ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(out / "eval")])
    eval_s = clock() - start
    run_cli(run, ["export-scores", "--checkpoint", str(ckpt), "--data", str(data),
                  "--out", str(out / "scores")])
    run_cli(run, ["mine", "--scores", str(out / "scores" / "scores.csv"),
                  "--out", str(out / "mined")])
    return eval_s, text


SCORE_FILES = ("eval/frame_scores.csv", "scores/scores.csv", "mined/mined.csv")


def score_workload(run: Run):
    n_videos = 30 if run.small else SCORE_VIDEOS
    ckpt_config = cli.ablation_train_config(
        TrainConfig(epochs=1 if run.small else SCORE_CKPT_EPOCHS), "c", run.seed)

    def setup(where: Path):
        synthdata.generate_dataset(SynthConfig(seed=REF_SYNTH_SEED + run.seed), where / "ref")
        triples = triples_of(synthdata.load_split(where / "ref", "train"))
        trainer.train(triples, ckpt_config, out_dir=where / "model")
        synthdata.generate_dataset(
            SynthConfig(seed=SCORE_SYNTH_SEED + run.seed, n_normal_train=0,
                        n_abnormal_train=0, n_normal_test=n_videos // 2,
                        n_abnormal_test=n_videos - n_videos // 2), where / "test")
        return where

    setup_s, where = run.setups(setup)
    data, ckpt = where / "test", where / "model" / "checkpoint.wvck"
    score_pass(run, where / "ref", ckpt, run.work / "warm-up")
    install_base(run)
    before = run.tracer.snapshot()
    out = run.work / "score"
    eval_times, passes = run.op_samples, []

    def one_pass(rep: int):
        mark = run.tracer.snapshot()
        eval_s, text = score_pass(run, data, ckpt, out)
        eval_times.append(eval_s)
        files = [out / name for name in SCORE_FILES]
        passes.append({
            "eval": text,
            "files": [sha256(p) if p.exists() else None for p in files],
            "bytes": sum(p.stat().st_size for p in files if p.exists()),
            "counts": run.signature(mark),
        })

    durations = run.measure(one_pass)
    window = delta(run.tracer.snapshot(), before)
    for rep, p in enumerate(passes[1:], start=1):
        run.check(f"pass {rep} repeats pass 0 (eval line, file bytes, counts)", p == passes[0])
    check_score_outputs(run, data, ckpt, out, passes[-1]["eval"])
    run.layer_extra["cli.csv_bytes_written"] = passes[-1]["bytes"]
    run.info["eval_videos_per_s"] = n_videos / statistics.median(eval_times)
    run.info["eval_line"] = passes[-1]["eval"].strip()
    return {
        "setup_s": setup_s,
        "work_per_s": n_videos * len(durations) / sum(durations),
        "op_ms.p50": 1000.0 * statistics.median(eval_times),
    }, window, len(durations), sum(durations)


def check_score_outputs(run: Run, data: Path, ckpt: Path, out: Path, eval_text: str):
    """eval's AUC/AP, scores.csv and mined.csv against independent recomputation."""
    frames = read_csv(out / "eval" / "frame_scores.csv")[1:]
    record = EvalRecord(frame_scores=np.array([float(r[2]) for r in frames]),
                        frame_labels=np.array([int(r[3]) for r in frames]))
    auc, ap = evaluate(record)
    run.layer_extra["metrics.auc"], run.layer_extra["metrics.ap"] = auc, ap
    expected = f"AUC={auc:.6f} AP={ap:.6f}"
    run.check("eval's AUC/AP equal metrics recomputed from frame_scores.csv",
              eval_text.strip() == expected, f"{eval_text.strip()!r} vs {expected!r}")

    model, _ = encoder.load_checkpoint(ckpt)
    rows, videos = [], []
    for v in synthdata.load_split(data, "test"):
        with tensor.no_grad():
            scores = model.forward(v.features).scores.data
        rows.extend([v.record.id, str(t), repr(float(s)), str(v.record.video_label)]
                    for t, s in enumerate(scores))
        videos.append((v.record.id, v.record.video_label, scores.astype(np.float64)))
    run.check("scores.csv holds the model's scores",
              read_csv(out / "scores" / "scores.csv")[1:] == rows)

    mined = mine_batch(videos, MiningConfig())
    expected_mined = [[name, vid, str(t)] for name, group in (
        ("HA", mined.hard_abnormal), ("EA", mined.easy_abnormal),
        ("HN", mined.hard_normal), ("EN", mined.easy_normal)) for vid, t in group]
    run.check("mined.csv equals mine_batch on the model's scores",
              read_csv(out / "mined" / "mined.csv")[1:] == expected_mined)
    run.info["mined_counts"] = mined.counts()


# ---------------------------------------------------------------------
# gradcheck


def gradcheck_workload(run: Run):
    seeds = 1 if run.small else GRADCHECK_SEEDS
    names = list(spec.VERIFICATION_CASES)
    setup_s, _ = run.setups(lambda where: verification.run_all(seeds=1))
    install_base(run)
    before = run.tracer.snapshot()
    passes = []

    def one_pass(rep: int):
        mark = run.tracer.snapshot()
        ok, report = run.attempt("verification.run_all", verification.run_all,
                                 seeds=seeds, count=False)
        if ok:
            passes.append((report, run.signature(mark)))

    durations = run.measure(one_pass)
    window = delta(run.tracer.snapshot(), before)
    run.op_samples = durations
    run.attempted += window[0]["verification.grad_check"].calls
    for rep, (report, counts) in enumerate(passes):
        for row in report.rows:
            if not row.passed:
                run.failed += 1
                run.problems.append(f"pass {rep}: gradcheck {row.name} failed ({row.note})")
        run.check(f"pass {rep}: report passes", report.passed)
        run.check(f"pass {rep}: report covers every case at {seeds} seeds",
                  [r.name for r in report.rows] == names
                  and all(r.seeds == seeds for r in report.rows))
        run.check(f"pass {rep}: counts repeat pass 0", counts == passes[0][1])
    return {
        "setup_s": setup_s,
        "work_per_s": len(names) * seeds * len(durations) / sum(durations),
        "op_ms.p50": 1000.0 * statistics.median(durations),
    }, window, len(durations), sum(durations)


WORKLOADS = {"train": train_workload, "score": score_workload,
             "gradcheck": gradcheck_workload}


# ---------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(wvad.__file__).resolve().parent.parent != src:
        print(f"wvad imported from {wvad.__file__}, not from {src}", file=sys.stderr)
        return 2
    run = Run(args)
    env = environment()
    stray = {v: x for v, x in env["threads"].items() if x != "1"}
    run.check("child sees one BLAS/OpenMP thread", not stray, str(stray))
    try:
        if run.traced:
            install_layers(run)
        whole_before = run.tracer.snapshot()
        e2e, window, reps, seconds = WORKLOADS[args.workload](run)
        whole = delta(run.tracer.snapshot(), whole_before)
        run.tracer.close()
        e2e["peak_rss_mb"] = run.peak_rss_mb
        if run.traced:
            run.layer_extra.update(isolated_layers(args.seed))
            values = layer_metrics(run, window, whole, reps, seconds, e2e["work_per_s"],
                                   cost_per_span())
            table = spec.PER_LAYER
        else:
            values, table = e2e, spec.END_TO_END
    finally:
        run.tracer.close()
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, (unit, _) in table.items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "repetitions": reps,
              "measured_s": seconds, "environment": env, "readouts": run.info,
              "end_to_end": e2e, "problems": run.problems, "result": result,
              "op_samples_s": run.op_samples}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}  {reps} repetitions in {seconds:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in sorted(run.info.items()):
        print(f"  {key} = {value}")
    for problem in run.problems:
        print(problem)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"checks: {run.attempted - run.failed}/{run.attempted} passed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
