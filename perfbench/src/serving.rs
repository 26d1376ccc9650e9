//! Serving workload: repeated same-seed `serve` sessions over one
//! request stream until the time budget is spent, each checked request
//! by request against a direct engine forward.

use crate::attrib::{Attribution, Kind};
use crate::outside::{peak_rss_mb, select_plan, timed, StealMeter};
use crate::stats::{median, quantile};
use crate::{dataset, print_metrics, Args, EndToEnd, Layers, Outcome, P};
use rdm_comm::Cluster;
use rdm_core::infer::forward_logits;
use rdm_core::ops::OpCounters;
use rdm_core::plan::Plan;
use rdm_core::{train_gcn, TrainerConfig, WeightSnapshot};
use rdm_dense::kernels::{self, Mode};
use rdm_dense::part_range;
use rdm_graph::dataset::Dataset;
use rdm_model::GnnShape;
use rdm_serve::{serve, BatchPolicy, InferRequest, LoadGen, ServeConfig, ServeOutput};
use std::time::Instant;

/// Exact full-graph inference on the fast kernels.
pub struct ServeSpec {
    /// Aggregation-cache rows per rank (0 = off).
    cache: usize,
    max_batch: usize,
    /// Zipf tiers of the target stream (0 = uniform).
    zipf: u32,
    requests: usize,
}

/// Full-graph inference with the layer-0 aggregation cache.
pub const FULL_CACHED: ServeSpec = ServeSpec {
    cache: 4096,
    max_batch: 8,
    zipf: 12,
    requests: 1024,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Epochs of the fixed-seed training run that produces the served
/// weights.
const SNAPSHOT_EPOCHS: usize = 10;

impl ServeSpec {
    fn config(&self, trace: bool) -> ServeConfig {
        let mut c = ServeConfig::new(P).fast_kernels();
        c.cache = self.cache;
        c.policy = BatchPolicy::new(self.max_batch, 2_000);
        c.trace = trace;
        c
    }

    /// Eight clients, 50 µs mean gap: a batch fills to `max_batch` long
    /// before its 2 ms wait runs out, so every seed serves the same number
    /// of equally sized batches and only the targets differ.
    fn stream(&self, seed: u64, n: usize) -> Vec<InferRequest> {
        LoadGen::new(seed ^ 0x10AD, 8, 50, self.requests)
            .zipf(self.zipf)
            .generate(n)
    }
}

/// Dataset generation plus snapshot training plus session bring-up (a
/// session over an empty stream), timed.
struct Setup {
    ds: Dataset,
    snap: WeightSnapshot,
    gen_s: f64,
    /// Wall of the whole set-up with the stolen share removed.
    total_s: f64,
}

fn setup(spec: &ServeSpec, seed: u64) -> Setup {
    let steal = StealMeter::start();
    let (ds, gen_s) = timed(|| dataset(seed));
    let (snap, snap_s) = timed(|| {
        let cfg = TrainerConfig::rdm_auto(P)
            .hidden(128)
            .epochs(SNAPSHOT_EPOCHS)
            .fast_kernels();
        train_gcn(&ds, &cfg)
            .expect("valid config")
            .weights
            .expect("training returns weights")
    });
    let (_, up_s) = timed(|| serve(&ds, &snap, &[], &spec.config(false)).expect("empty session"));
    let wall_s = gen_s + snap_s + up_s;
    Setup {
        ds,
        snap,
        gen_s,
        total_s: wall_s * (1.0 - steal.share(wall_s)),
    }
}

/// The plan `serve` auto-selects: priced for the full-graph serving shape
/// at full replication on the dense wire, exactly as the engine prices it.
fn serving_plan(ds: &Dataset, cfg: &ServeConfig) -> (Plan, f64) {
    let shape = GnnShape::gcn(
        ds.n(),
        ds.adj_norm.nnz(),
        ds.features.cols(),
        128,
        ds.num_classes(),
        2,
    );
    select_plan(&shape, P, &cfg.device, 1.0)
}

/// Expected logits per request: a direct engine forward of the full
/// graph under `plan` in kernel mode `mode`.
fn expected_logits(s: &Setup, reqs: &[InferRequest], plan: &Plan, mode: Mode) -> Vec<Vec<f32>> {
    let out = Cluster::new(P).run(|ctx| {
        kernels::set_mode(mode);
        let weights = s.snap.to_weights();
        let mut ops = OpCounters::default();
        let l = forward_logits(
            ctx,
            &s.ds.adj_norm,
            &s.ds.features,
            &weights,
            plan,
            false,
            &mut ops,
        );
        let start = part_range(s.ds.n(), P, ctx.rank()).start;
        (start, l.local.as_slice().to_vec(), l.cols)
    });
    let mut rows = vec![Vec::new(); s.ds.n()];
    for (start, flat, cols) in &out.results {
        for (i, row) in flat.chunks(*cols).enumerate() {
            rows[start + i] = row.to_vec();
        }
    }
    reqs.iter()
        .map(|r| rows[r.target as usize].clone())
        .collect()
}

struct Session {
    out: ServeOutput,
    wall_s: f64,
    /// Share of `wall_s` the hypervisor stole (see `StealMeter`).
    steal: f64,
}

impl Session {
    /// Session wall with the stolen share removed.
    fn net_s(&self) -> f64 {
        self.wall_s * (1.0 - self.steal)
    }
}

fn sessions_for(
    s: &Setup,
    reqs: &[InferRequest],
    cfg: &ServeConfig,
    budget_s: f64,
) -> Vec<Session> {
    let start = Instant::now();
    let mut v = Vec::new();
    loop {
        let steal = StealMeter::start();
        let (out, wall_s) = timed(|| serve(&s.ds, &s.snap, reqs, cfg).expect("valid session"));
        v.push(Session {
            out,
            wall_s,
            steal: steal.share(wall_s),
        });
        if start.elapsed().as_secs_f64() >= budget_s {
            return v;
        }
    }
}

/// Failed requests: missing, duplicated or not bitwise equal to the
/// direct forward; plus one per session that allocated fresh workspace
/// after warm-up.
fn failed_requests(sessions: &[Session], want: &[Vec<f32>]) -> u64 {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut failed = 0u64;
    for s in sessions {
        let rep = &s.out.report;
        let mut seen = vec![false; want.len()];
        for r in &rep.requests {
            let fresh = r.idx < want.len() && !std::mem::replace(&mut seen[r.idx], true);
            if !fresh || bits(&r.logits) != bits(&want[r.idx]) {
                failed += 1;
            }
        }
        failed += seen.iter().filter(|&&x| !x).count() as u64;
        failed += (rep.ws_fresh_steady > 0) as u64;
    }
    failed
}

/// Share of requests whose argmax class is the label, and their mean
/// softmax cross-entropy.
fn quality(out: &ServeOutput, labels: &[u32]) -> (f64, f64) {
    let reqs = &out.report.requests;
    let mut hits = 0usize;
    let mut xent = 0.0f64;
    for r in reqs {
        let label = labels[r.target as usize] as usize;
        hits += (r.predicted_class() == label) as usize;
        let max = r.logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let lse = max
            + r.logits
                .iter()
                .map(|&x| (x as f64 - max).exp())
                .sum::<f64>()
                .ln();
        xent += lse - r.logits[label] as f64;
    }
    let n = reqs.len().max(1) as f64;
    (hits as f64 / n, xent / n)
}

pub fn run(spec: &ServeSpec, args: &Args) -> Outcome {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setups: Vec<Setup> = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let s = setup(spec, args.seed);
        // The served weights come from a fixed-seed run: every set-up
        // must reproduce them byte for byte.
        if let Some(first) = setups.first() {
            failed += (s.snap.to_bytes() != first.snap.to_bytes()) as u64;
        }
        setups.push(s);
    }
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let gen_s = median(&setups.iter().map(|s| s.gen_s).collect::<Vec<_>>());
    let s = setups.pop().unwrap();
    drop(setups);

    let cfg = spec.config(false);
    let reqs = spec.stream(args.seed, s.ds.n());
    let (plan, plan_ms) = serving_plan(&s.ds, &cfg);
    let want = expected_logits(&s, &reqs, &plan, cfg.kernels);

    // One warm-up session, checked but excluded from every timing.
    let warm = sessions_for(&s, &reqs, &cfg, 0.0);
    let sessions = sessions_for(&s, &reqs, &cfg, args.untraced_budget());
    attempted += ((warm.len() + sessions.len()) * reqs.len()) as u64;
    failed += failed_requests(&warm, &want) + failed_requests(&sessions, &want);
    let per_req_ms: Vec<f64> = sessions
        .iter()
        .map(|x| 1e3 * x.net_s() / reqs.len() as f64)
        .collect();
    let first = &sessions[0].out;
    let (acc, loss) = quality(first, &s.ds.labels);
    let kb_per_req = first.report.payload_bytes as f64 / 1e3 / reqs.len() as f64;
    println!(
        "RDM(id={}) (auto-selected), {} sessions x {} requests in {} batches, fast kernels",
        plan.id(),
        sessions.len(),
        reqs.len(),
        first.report.batches.len(),
    );
    println!("end-to-end, tracing off:");
    println!(
        "  serve_rps           {:>12.3} 1/s (requests over the median session wall, {} sessions, steal removed)",
        1e3 / median(&per_req_ms),
        sessions.len()
    );
    println!(
        "  serve_rps as clocked{:>12.3} 1/s (the same sessions with steal left in)",
        reqs.len() as f64 / median(&sessions.iter().map(|x| x.wall_s).collect::<Vec<_>>())
    );
    let per_session: Vec<String> = per_req_ms
        .iter()
        .map(|ms| format!("{:.0}", 1e3 / ms))
        .collect();
    println!("  serve_rps per session {}", per_session.join(" "));
    let steal_pct: Vec<String> = sessions
        .iter()
        .map(|x| format!("{:.1}", 100.0 * x.steal))
        .collect();
    println!("  steal % per session {}", steal_pct.join(" "));
    println!("  serve_kb_per_request{kb_per_req:>12.6} KB");
    println!("  serve_acc           {acc:>12.6}");
    println!(
        "  cache_hit_rate      {:>12.6}",
        first.report.cache_hit_rate()
    );
    println!("  setup_s             {setup_s:>12.6} s");

    if !args.trace {
        let e2e = EndToEnd {
            setup_s,
            peak_rss_mb: peak_rss_mb(),
            op_ms: median(&per_req_ms),
            wire_kb_per_op: kb_per_req,
            accuracy: acc,
            loss,
        };
        let metrics = e2e.metrics();
        print_metrics("end-to-end metrics (op = one request):", &metrics);
        return Outcome {
            attempted,
            failed,
            metrics,
        };
    }

    let traced = sessions_for(
        &s,
        &reqs,
        &spec.config(true),
        args.seconds - args.untraced_budget(),
    );
    attempted += (traced.len() * reqs.len()) as u64;
    failed += failed_requests(&traced, &want);
    let attr = Attribution::from_runs(traced.iter().map(|t| {
        t.out
            .traces
            .as_deref()
            .expect("traced session records traces")
    }));
    let (mut virt_us, mut batches, mut comm_s) = (0.0, 0usize, 0.0);
    for t in &traced {
        let rep = &t.out.report;
        virt_us += rep
            .batches
            .iter()
            .skip(1)
            .map(|b| b.service_us as f64)
            .sum::<f64>();
        batches += rep.batches.len();
        comm_s += t.out.stats.comm_time.as_secs_f64();
    }
    let batch_walls = attr.step_walls_ms();
    let rep = &traced[0].out.report;
    let feats = [s.ds.features.cols(), 128, s.ds.num_classes()];

    let mut l = Layers::default();
    l.from_trace(&attr, ("batch", "batches"), &feats, cfg.kernels);
    l.graph_gen_s = gen_s;
    l.model_plan_select_ms = plan_ms;
    l.model_plan_id = plan.id() as f64;
    l.model_sim_over_measured = virt_us / 1e3 / batch_walls.iter().sum::<f64>();
    let fresh: u64 = warm
        .iter()
        .chain(&sessions)
        .chain(&traced)
        .map(|x| x.out.report.ws_fresh_steady)
        .sum();
    l.dense_pool_fresh_steady = fresh as f64;
    l.comm_wall_ms = 1e3 * comm_s / (P * batches) as f64;
    l.serve_batch_ms_p50 = quantile(&batch_walls, 0.5);
    l.serve_batch_ms_p99 = quantile(&batch_walls, 0.99);
    l.serve_batch_unspanned_ms = attr.max_ms(Kind::Unspanned);
    l.serve_mean_batch = reqs.len() as f64 / rep.batches.len() as f64;
    l.serve_cache_hit_rate = rep.cache_hit_rate();
    l.serve_virtual_p50_us = rep.p50_us() as f64;
    l.serve_virtual_p99_us = rep.p99_us() as f64;
    l.serve_pool_fresh_steady = fresh as f64;
    let traced_s: Vec<f64> = traced.iter().map(Session::net_s).collect();
    let untraced_s: Vec<f64> = sessions.iter().map(Session::net_s).collect();
    l.trace_overhead_pct = 100.0 * (median(&traced_s) / median(&untraced_s) - 1.0);
    let metrics = l.metrics();
    print_metrics("per-layer metrics (step = one batch):", &metrics);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
