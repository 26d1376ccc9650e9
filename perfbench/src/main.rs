//! Wall-clock benchmark of GNN-RDM: three workloads through the public
//! entry points `rdm_core::train_gcn` and `rdm_serve::serve` on `P = 2`
//! ranks.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--source <digest>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` additionally runs the workload traced and reports the
//! per-crate metrics instead. Both print a human-readable report and end
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/run.py` builds this binary and is the usual way to run it.

mod attrib;
mod outside;
mod serving;
mod stats;
mod train;

use attrib::{Attribution, Kind};
use rdm_dense::KernelMode;
use rdm_graph::dataset::{Dataset, DatasetSpec};

/// Ranks in every workload.
pub const P: usize = 2;

pub const WORKLOADS: [&str; 3] = ["train-dense", "train-sparse-pipelined", "serve-full-cached"];

/// The graph every workload runs on: N = 20 000, 200 000 generated edges
/// (about 404k nonzeros after symmetrization and self-loops), 64 input
/// features, 16 classes.
pub fn dataset(seed: u64) -> Dataset {
    DatasetSpec::synthetic("perfbench", 20_000, 200_000, 64, 16).instantiate(seed)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    pub source: String,
}

impl Args {
    /// Wall budget of the untraced measurement.
    pub fn untraced_budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "none".into(),
        source: "none".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = num(&val)?,
            "--seconds" => a.seconds = num(&val)? as f64,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            "--commit" => a.commit = val,
            "--source" => a.source = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    if a.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports: operations attempted and failed, and its
/// metrics (end-to-end or per-layer, by trace mode).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// End-to-end metrics, measured with tracing off. An *operation* is a
/// training epoch or a served request.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub op_ms: f64,
    pub wire_kb_per_op: f64,
    pub accuracy: f64,
    pub loss: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
            m("op_ms", self.op_ms, "ms"),
            m("wire_kb_per_op", self.wire_kb_per_op, "KB"),
            m("accuracy", self.accuracy, "share"),
            m("loss", self.loss, "nats"),
        ]
    }
}

/// Per-crate metrics from the traced run and the outside timers. A
/// *step* is a training epoch or a serving batch; metrics of a layer a
/// workload does not run read 0.
#[derive(Default)]
pub struct Layers {
    pub graph_gen_s: f64,
    pub model_plan_select_ms: f64,
    pub model_plan_id: f64,
    pub model_sim_over_measured: f64,
    pub dense_gemm_ms: f64,
    pub dense_gemm_gflops: f64,
    pub dense_gemm_nn_gflops: f64,
    pub dense_gemm_nt_gflops: f64,
    pub dense_gemm_tn_gflops: f64,
    pub dense_gfma_per_step: f64,
    pub dense_pool_fresh_steady: f64,
    pub sparse_spmm_ms: f64,
    pub sparse_spmm_gflops: f64,
    pub sparse_gfma_per_step: f64,
    pub comm_redistribute_ms: f64,
    pub comm_redist_gbps: f64,
    pub comm_messages_per_step: f64,
    pub comm_wall_ms: f64,
    pub comm_allreduce_ms: f64,
    pub comm_wire_ratio: f64,
    pub comm_retries: f64,
    pub core_unspanned_ms: f64,
    pub serve_batch_ms_p50: f64,
    pub serve_batch_ms_p99: f64,
    pub serve_batch_unspanned_ms: f64,
    pub serve_mean_batch: f64,
    pub serve_cache_hit_rate: f64,
    pub serve_virtual_p50_us: f64,
    pub serve_virtual_p99_us: f64,
    pub serve_pool_fresh_steady: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// Print the attribution and per-shape GEMM tables of the traced
    /// steps, fill the metrics read off them, and time the traced GEMM
    /// shapes from outside in kernel mode `mode`.
    pub fn from_trace(
        &mut self,
        a: &Attribution,
        (step, steps): (&str, &str),
        feats: &[usize],
        mode: KernelMode,
    ) {
        let shapes = a.gemm_shapes();
        let lines = a.table(step, steps).into_iter().chain(outside::gemm_table(
            &shapes,
            feats,
            a.per_rank_wall_ms()[0],
        ));
        for line in lines {
            println!("{line}");
        }
        [
            self.dense_gemm_nn_gflops,
            self.dense_gemm_nt_gflops,
            self.dense_gemm_tn_gflops,
        ] = outside::gemm_rates(&shapes, feats, mode);
        self.dense_gemm_ms = a.max_ms(Kind::Gemm);
        self.dense_gemm_gflops = a.gemm_gflops();
        self.dense_gfma_per_step = a.gemm_gfma_per_step();
        self.sparse_spmm_ms = a.max_ms(Kind::Spmm);
        self.sparse_spmm_gflops = a.spmm_gflops();
        self.sparse_gfma_per_step = a.spmm_gfma_per_step();
        self.comm_redistribute_ms = a.max_ms(Kind::Redistribute);
        self.comm_redist_gbps = a.redist_gbps();
        self.comm_messages_per_step = a.messages_per_step();
        self.comm_allreduce_ms = a.max_ms(Kind::AllReduce);
        self.comm_wire_ratio = a.wire_ratio();
        self.comm_retries = a.retries() as f64;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("graph.gen_s", self.graph_gen_s, "s"),
            m("model.plan_select_ms", self.model_plan_select_ms, "ms"),
            m("model.plan_id", self.model_plan_id, "id"),
            m(
                "model.sim_over_measured",
                self.model_sim_over_measured,
                "ratio",
            ),
            m("dense.gemm_ms", self.dense_gemm_ms, "ms"),
            m("dense.gemm_gflops", self.dense_gemm_gflops, "GFLOP/s"),
            m("dense.gemm_nn_gflops", self.dense_gemm_nn_gflops, "GFLOP/s"),
            m("dense.gemm_nt_gflops", self.dense_gemm_nt_gflops, "GFLOP/s"),
            m("dense.gemm_tn_gflops", self.dense_gemm_tn_gflops, "GFLOP/s"),
            m("dense.gfma_per_step", self.dense_gfma_per_step, "GFMA"),
            m(
                "dense.pool_fresh_steady",
                self.dense_pool_fresh_steady,
                "count",
            ),
            m("sparse.spmm_ms", self.sparse_spmm_ms, "ms"),
            m("sparse.spmm_gflops", self.sparse_spmm_gflops, "GFLOP/s"),
            m("sparse.gfma_per_step", self.sparse_gfma_per_step, "GFMA"),
            m("comm.redistribute_ms", self.comm_redistribute_ms, "ms"),
            m("comm.redist_gbps", self.comm_redist_gbps, "GB/s"),
            m(
                "comm.messages_per_step",
                self.comm_messages_per_step,
                "count",
            ),
            m("comm.wall_ms", self.comm_wall_ms, "ms"),
            m("comm.allreduce_ms", self.comm_allreduce_ms, "ms"),
            m("comm.wire_ratio", self.comm_wire_ratio, "ratio"),
            m("comm.retries", self.comm_retries, "count"),
            m("core.unspanned_ms", self.core_unspanned_ms, "ms"),
            m("serve.batch_ms_p50", self.serve_batch_ms_p50, "ms"),
            m("serve.batch_ms_p99", self.serve_batch_ms_p99, "ms"),
            m(
                "serve.batch_unspanned_ms",
                self.serve_batch_unspanned_ms,
                "ms",
            ),
            m("serve.mean_batch", self.serve_mean_batch, "requests"),
            m("serve.cache_hit_rate", self.serve_cache_hit_rate, "share"),
            m("serve.virtual_p50_us", self.serve_virtual_p50_us, "us"),
            m("serve.virtual_p99_us", self.serve_virtual_p99_us, "us"),
            m(
                "serve.pool_fresh_steady",
                self.serve_pool_fresh_steady,
                "count",
            ),
            m("trace.overhead_pct", self.trace_overhead_pct, "%"),
        ]
    }
}

/// Print metrics one per line, aligned.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds as u64, args.trace as u8
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = rdm_dense::kernels::detect_width().lanes();
    let stamp = format!(
        "host nproc={nproc} P={P} lanes={lanes} commit={} source={}",
        args.commit, args.source
    );
    println!("{stamp}");
    let out = match args.workload.as_str() {
        "train-dense" => train::run(&train::DENSE, &args),
        "train-sparse-pipelined" => train::run(&train::SPARSE_PIPELINED, &args),
        "serve-full-cached" => serving::run(&serving::FULL_CACHED, &args),
        _ => unreachable!("validated in parse_args"),
    };
    println!("{stamp}");
    println!(
        "operations attempted {} failed {}",
        out.attempted, out.failed
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
