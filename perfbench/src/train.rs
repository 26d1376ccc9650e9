//! Training workloads: repeated same-seed `train_gcn` calls of a fixed
//! epoch count until the time budget is spent.

use crate::attrib::{Attribution, Kind};
use crate::outside::{peak_rss_mb, select_plan, timed, StealMeter};
use crate::stats::{median, tail};
use crate::{dataset, print_metrics, Args, EndToEnd, Layers, Outcome, P};
use rdm_core::{train_gcn, TrainReport, TrainerConfig};
use rdm_graph::dataset::Dataset;
use rdm_model::GnnShape;
use std::time::Instant;

pub struct TrainSpec {
    /// Self-loop-free row aggregation (`D⁻¹A`) instead of GCN
    /// normalization.
    row_aggregation: bool,
    hidden: usize,
    lr: f32,
    sparse: bool,
    overlap: Option<usize>,
    /// Epochs per `train_gcn` call; the loss trajectory and final
    /// accuracy are those of this many epochs.
    epochs: usize,
    /// Final test accuracy every call must reach.
    acc_floor: f32,
}

/// The paper's core full-batch job: GCN aggregation, dense blocking wire.
pub const DENSE: TrainSpec = TrainSpec {
    row_aggregation: false,
    hidden: 128,
    lr: 0.01,
    sparse: false,
    overlap: None,
    epochs: 12,
    acc_floor: 0.9,
};

/// Communication-heavy job: indexed-strip wire plus chunked all-to-all.
pub const SPARSE_PIPELINED: TrainSpec = TrainSpec {
    row_aggregation: true,
    hidden: 32,
    lr: 0.05,
    sparse: true,
    overlap: Some(4),
    epochs: 20,
    acc_floor: 0.9,
};

impl TrainSpec {
    fn config(&self, trace: bool) -> TrainerConfig {
        let mut c = TrainerConfig::rdm_auto(P)
            .hidden(self.hidden)
            .lr(self.lr)
            .epochs(self.epochs)
            .fast_kernels();
        if self.sparse {
            c = c.sparse();
        }
        if let Some(chunks) = self.overlap {
            c = c.overlap(chunks);
        }
        if trace {
            c = c.trace();
        }
        c
    }

    fn dataset(&self, seed: u64) -> Dataset {
        let ds = dataset(seed);
        if self.row_aggregation {
            ds.with_row_aggregation()
        } else {
            ds
        }
    }
}

/// One timed `train_gcn` call on a freshly generated dataset.
struct Call {
    report: TrainReport,
    gen_s: f64,
    /// Wall of the call not inside any epoch: set-up before epoch 0 plus
    /// the per-epoch bookkeeping and report assembly.
    outside_epochs_s: f64,
    /// Share of the call's wall the hypervisor stole (see `StealMeter`).
    steal: f64,
}

impl Call {
    /// Set-up seconds with the stolen share removed.
    fn setup_s(&self) -> f64 {
        (self.gen_s + self.outside_epochs_s) * (1.0 - self.steal)
    }
}

fn call(spec: &TrainSpec, seed: u64, trace: bool) -> Call {
    let steal = StealMeter::start();
    let (ds, gen_s) = timed(|| spec.dataset(seed));
    let (report, wall_s) = timed(|| train_gcn(&ds, &spec.config(trace)).expect("valid config"));
    let in_epochs: f64 = report.epochs.iter().map(|e| e.wall.as_secs_f64()).sum();
    Call {
        report,
        gen_s,
        outside_epochs_s: wall_s - in_epochs,
        steal: steal.share(gen_s + wall_s),
    }
}

fn calls_for(spec: &TrainSpec, seed: u64, trace: bool, budget_s: f64) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    loop {
        calls.push(call(spec, seed, trace));
        if start.elapsed().as_secs_f64() >= budget_s {
            return calls;
        }
    }
}

/// Steady epochs (epoch 0 of each call is pool warm-up) of all calls.
fn steady(calls: &[Call]) -> impl Iterator<Item = &rdm_core::EpochMetrics> {
    calls.iter().flat_map(|c| c.report.epochs.iter().skip(1))
}

/// Steady epoch walls in ms, each with its call's stolen share removed.
fn steady_wall_ms(calls: &[Call]) -> Vec<f64> {
    calls
        .iter()
        .flat_map(|c| {
            let kept = 1.0 - c.steal;
            c.report
                .epochs
                .iter()
                .skip(1)
                .map(move |e| e.wall.as_secs_f64() * 1e3 * kept)
        })
        .collect()
}

/// Failed epochs of `calls` against the reference loss trajectory `want`:
/// an epoch fails when its loss differs in any bit, when it allocates
/// fresh workspace after warm-up, or when it is a call's last epoch and
/// test accuracy is below the floor.
fn failed_epochs(calls: &[Call], want: &[u32], floor: f32) -> u64 {
    let mut failed = 0;
    for c in calls {
        let n = c.report.epochs.len();
        for (i, e) in c.report.epochs.iter().enumerate() {
            let bad = want.get(i) != Some(&e.loss.to_bits())
                || (i > 0 && e.ws_fresh() > 0)
                || (i + 1 == n && e.test_acc < floor);
            failed += bad as u64;
        }
    }
    failed
}

pub fn run(spec: &TrainSpec, args: &Args) -> Outcome {
    // One warm-up call gives the reference trajectory; it is checked but
    // excluded from every timing.
    let warm = [call(spec, args.seed, false)];
    let calls = calls_for(spec, args.seed, false, args.untraced_budget());
    let reference = &warm[0].report;
    let want: Vec<u32> = reference.epochs.iter().map(|e| e.loss.to_bits()).collect();
    let last = reference.epochs.last().unwrap();
    let mut attempted: u64 = warm
        .iter()
        .chain(&calls)
        .map(|c| c.report.epochs.len() as u64)
        .sum();
    let mut failed =
        failed_epochs(&warm, &want, spec.acc_floor) + failed_epochs(&calls, &want, spec.acc_floor);
    let walls = steady_wall_ms(&calls);
    let setup_s = median(&calls.iter().map(Call::setup_s).collect::<Vec<_>>());
    let wire_kb = median(
        &steady(&calls)
            .map(|e| e.total_bytes as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let (tail_ms, tail_pct) = tail(&walls);
    println!(
        "{} (auto-selected), {} calls x {} epochs, fast kernels",
        reference.algo,
        calls.len(),
        spec.epochs
    );
    println!("end-to-end, tracing off:");
    println!(
        "  epoch_ms            {:>12.3} ms  (median of {} epochs, epoch 0 of each call excluded, steal removed)",
        median(&walls),
        walls.len()
    );
    println!(
        "  epoch_ms as clocked {:>12.3} ms  (the same epochs with steal left in)",
        median(
            &steady(&calls)
                .map(|e| e.wall.as_secs_f64() * 1e3)
                .collect::<Vec<_>>()
        )
    );
    println!(
        "  epoch_ms_tail       {:>12.3} ms  (p{tail_pct:.0} of {} epochs)",
        tail_ms,
        walls.len()
    );
    let per_call: Vec<String> = calls
        .iter()
        .map(|c| format!("{:.1}", median(&steady_wall_ms(std::slice::from_ref(c)))))
        .collect();
    println!("  epoch_ms per call   {}", per_call.join(" "));
    let steal_pct: Vec<String> = calls
        .iter()
        .map(|c| format!("{:.1}", 100.0 * c.steal))
        .collect();
    println!("  steal % per call    {}", steal_pct.join(" "));
    println!("  comm_mb_per_epoch   {:>12.6} MB", wire_kb / 1e3);
    println!("  final_loss          {:>12.6}", last.loss);
    println!(
        "  test_acc            {:>12.6}     (floor {})",
        last.test_acc, spec.acc_floor
    );
    println!("  setup_s             {setup_s:>12.6} s");

    if !args.trace {
        let e2e = EndToEnd {
            setup_s,
            peak_rss_mb: peak_rss_mb(),
            op_ms: median(&walls),
            wire_kb_per_op: wire_kb,
            accuracy: last.test_acc as f64,
            loss: last.loss as f64,
        };
        let metrics = e2e.metrics();
        print_metrics("end-to-end metrics (op = one epoch):", &metrics);
        return Outcome {
            attempted,
            failed,
            metrics,
        };
    }

    // Traced run: same calls with tracing on; the trajectory must not move.
    let traced = calls_for(spec, args.seed, true, args.seconds - args.untraced_budget());
    attempted += traced
        .iter()
        .map(|c| c.report.epochs.len() as u64)
        .sum::<u64>();
    failed += failed_epochs(&traced, &want, spec.acc_floor);
    let attr = Attribution::from_runs(traced.iter().map(|c| {
        c.report
            .traces
            .as_deref()
            .expect("traced run records traces")
    }));

    let ds = spec.dataset(args.seed);
    let cfg = spec.config(false);
    let shape = GnnShape::gcn(
        ds.n(),
        ds.adj_norm.nnz(),
        ds.spec.feature_size,
        spec.hidden,
        ds.spec.labels,
        2,
    );
    let sigma = if spec.sparse {
        1.0 - ds.adj_norm.empty_row_fraction()
    } else {
        1.0
    };
    let (plan, plan_ms) = select_plan(&shape, P, &cfg.device, sigma);
    let ran = reference.epochs[0].plan_id;
    if ran != Some(plan.id()) {
        println!(
            "note: outside plan selection picked id {} but the run executed {ran:?}",
            plan.id()
        );
    }
    let feats = [ds.spec.feature_size, spec.hidden, ds.spec.labels];
    let traced_walls = steady_wall_ms(&traced);
    let sim: f64 = steady(&traced).map(|e| e.sim.total_s).sum();
    let measured: f64 = steady(&traced).map(|e| e.wall.as_secs_f64()).sum();

    let mut l = Layers::default();
    l.from_trace(&attr, ("epoch", "epochs"), &feats, cfg.kernels);
    l.graph_gen_s = median(&calls.iter().map(|c| c.gen_s).collect::<Vec<_>>());
    l.model_plan_select_ms = plan_ms;
    l.model_plan_id = ran.unwrap_or(plan.id()) as f64;
    l.model_sim_over_measured = sim / measured;
    l.dense_pool_fresh_steady = steady(&warm)
        .chain(steady(&calls))
        .chain(steady(&traced))
        .map(|e| e.ws_fresh() as f64)
        .sum();
    l.comm_wall_ms = median(
        &steady(&traced)
            .map(|e| e.comm_wall.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    l.core_unspanned_ms = attr.max_ms(Kind::Unspanned);
    l.trace_overhead_pct = 100.0 * (median(&traced_walls) / median(&walls) - 1.0);
    let metrics = l.metrics();
    print_metrics("per-layer metrics (step = one epoch):", &metrics);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
