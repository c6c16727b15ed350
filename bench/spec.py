"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the root of the repository declares the same tables;
``run.py --self-check`` fails when the two differ or when a run reports a
name or unit that is not declared here.

Every workload reports every metric. An end-to-end metric means the same
thing to the user on each workload, measured on that workload's operation
and unit of work (see bench/README.md). A per-layer metric reads 0 where its layer does no work
on a workload, which is itself a prediction: ``score`` must show no loss,
backward or Adam time.
"""

WORKLOADS = ("train", "score", "gradcheck")

# set to 1 for every run; a child that sees another value fails a check
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "work_per_s": ("1/s", "higher"),
    "op_ms.p50": ("ms", "lower"),
}

VERIFICATION_CASES = (
    "arithmetic", "broadcast", "matmul", "getitem", "reshape_transpose",
    "reductions", "exp_log_sqrt", "activations", "clip", "concat",
    "gather_rows", "softmax", "topk_mean", "layer_norm", "l2_normalize",
    "dws_conv1d", "attention", "dropout", "full_objective",
)

PER_LAYER = {
    "tensor.graph_nodes_per_step": ("count", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.backward_calls": ("count", "lower"),
    "encoder.forward_ms_per_video": ("ms", "lower"),
    "encoder.forward_nograd_ms_per_video": ("ms", "lower"),
    "encoder.conv_ms": ("ms", "lower"),
    "encoder.attention_ms": ("ms", "lower"),
    "encoder.ln_ff_ms": ("ms", "lower"),
    "encoder.input_proj_ms": ("ms", "lower"),
    "encoder.heads_ms": ("ms", "lower"),
    "encoder.checkpoint_load_ms": ("ms", "lower"),
    "losses.total_ms": ("ms", "lower"),
    "losses.hinge_ms": ("ms", "lower"),
    "losses.video_ms": ("ms", "lower"),
    "losses.reg_ms": ("ms", "lower"),
    "losses.contrastive_ms": ("ms", "lower"),
    "mining.batch_ms": ("ms", "lower"),
    "mining.calls": ("count", "lower"),
    "mining.n_ha": ("count", "higher"),
    "mining.n_ea": ("count", "higher"),
    "mining.n_hn": ("count", "higher"),
    "mining.n_en": ("count", "higher"),
    "mining.useful_ratio": ("ratio", "higher"),
    "trainer.step_ms": ("ms", "lower"),
    "trainer.step_ms.p90": ("ms", "lower"),
    "trainer.step_other_ms": ("ms", "lower"),
    "trainer.adam_ms": ("ms", "lower"),
    "trainer.checkpoint_save_ms": ("ms", "lower"),
    "trainer.checkpoint_bytes": ("bytes", "lower"),
    "trainer.steps": ("count", "higher"),
    "metrics.evaluate_ms": ("ms", "lower"),
    "metrics.frames": ("count", "higher"),
    "metrics.auc": ("ratio", "higher"),
    "metrics.ap": ("ratio", "higher"),
    "synthdata.generate_s": ("s", "lower"),
    "synthdata.load_split_ms": ("ms", "lower"),
    "synthdata.videos_loaded": ("count", "higher"),
    "cli.eval_ms": ("ms", "lower"),
    "cli.export_scores_ms": ("ms", "lower"),
    "cli.mine_ms": ("ms", "lower"),
    "cli.csv_bytes_written": ("bytes", "lower"),
    **{f"verification.case_ms.{case}": ("ms", "lower") for case in VERIFICATION_CASES},
    "verification.objective_evals": ("count", "lower"),
    "bench.trace_spans": ("count", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.traced_work_per_s": ("1/s", "higher"),
}
