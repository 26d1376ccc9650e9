//! Traced-run attribution: self time per span kind inside every step
//! (training epoch or serving batch), per rank.
//!
//! A span's self time is its duration minus the durations of its direct
//! child spans, so the self times of everything inside a step — plus the
//! step span's own self time, the *unspanned* remainder — sum exactly to
//! the step span's duration.

use rdm_trace::{EventData, RankTrace, Span, TraceCollective};

/// Rows of the attribution table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Gemm,
    Spmm,
    Redistribute,
    AllReduce,
    Serve,
    Unspanned,
}

pub const KINDS: [Kind; 6] = [
    Kind::Gemm,
    Kind::Spmm,
    Kind::Redistribute,
    Kind::AllReduce,
    Kind::Serve,
    Kind::Unspanned,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Gemm => "gemm",
            Kind::Spmm => "spmm",
            Kind::Redistribute => "redistribute",
            Kind::AllReduce => "allreduce",
            Kind::Serve => "serve",
            Kind::Unspanned => "unspanned",
        }
    }
}

/// A kernel span shorter than this did no work inside itself: the
/// chunk-pipelined path runs its kernels inside the `Redistribute` span
/// and afterwards emits an empty aggregate `Spmm`/`Gemm` span of the
/// blocking shape. Such marker spans count toward the schedule and the
/// FMA totals but not toward kernel rates.
const MARKER_NS: u64 = 2_000;

/// One step on one rank.
#[derive(Clone, Debug, Default)]
pub struct Step {
    pub idx: usize,
    pub wall_ns: u64,
    /// Self time per [`KINDS`] entry.
    pub self_ns: [u64; 6],
    /// Payload bytes this rank sent, and their dense equivalent.
    pub bytes: u64,
    pub dense_bytes: u64,
    pub redist_bytes: u64,
    pub messages: u64,
    pub retries: u64,
    /// FMAs by span shape, markers included.
    pub gemm_fma: f64,
    pub spmm_fma: f64,
    /// FMAs and self time of the kernel spans that did their work inside
    /// themselves (markers excluded).
    pub gemm_rate_fma: f64,
    pub gemm_rate_ns: u64,
    pub spmm_rate_fma: f64,
    pub spmm_rate_ns: u64,
    /// `(m, n, k)` and self time of every working `Gemm` span.
    pub gemm_shapes: Vec<((usize, usize, usize), u64)>,
}

impl Step {
    pub fn self_ms(&self, k: Kind) -> f64 {
        self.self_ns[k as usize] as f64 / 1e6
    }
}

fn kind_of(s: &Span) -> Option<Kind> {
    match s {
        Span::Gemm { .. } => Some(Kind::Gemm),
        Span::Spmm { .. } => Some(Kind::Spmm),
        Span::Redistribute { .. } => Some(Kind::Redistribute),
        Span::AllReduce { .. } => Some(Kind::AllReduce),
        Span::Serve { .. } => Some(Kind::Serve),
        Span::Epoch { .. } | Span::Batch { .. } => Some(Kind::Unspanned),
    }
}

/// Split one rank's trace into steps. Events outside any `Epoch` or
/// `Batch` span (set-up traffic) are ignored.
pub fn steps(trace: &RankTrace) -> Vec<Step> {
    struct Open {
        span: Span,
        start: u64,
        child_ns: u64,
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut cur: Option<Step> = None;
    let mut out = Vec::new();
    for e in &trace.events {
        match e.data {
            EventData::Begin(span) => {
                match span {
                    Span::Epoch { idx } | Span::Batch { idx, .. } => {
                        cur = Some(Step {
                            idx,
                            ..Step::default()
                        })
                    }
                    _ => {}
                }
                stack.push(Open {
                    span,
                    start: e.ts_ns,
                    child_ns: 0,
                });
            }
            EventData::End => {
                let open = stack.pop().expect("trace nesting is validated");
                let dur = e.ts_ns - open.start;
                let own = dur - open.child_ns;
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
                let Some(step) = cur.as_mut() else { continue };
                if let Some(k) = kind_of(&open.span) {
                    step.self_ns[k as usize] += own;
                }
                match open.span {
                    Span::Epoch { .. } | Span::Batch { .. } => {
                        step.wall_ns = dur;
                        out.push(cur.take().unwrap());
                    }
                    Span::Gemm { m, n, k, .. } => {
                        let fma = (m * n * k) as f64;
                        step.gemm_fma += fma;
                        if dur >= MARKER_NS {
                            step.gemm_rate_fma += fma;
                            step.gemm_rate_ns += own;
                            step.gemm_shapes.push(((m, n, k), own));
                        }
                    }
                    Span::Spmm { cols, nnz, .. } => {
                        let fma = (nnz * cols) as f64;
                        step.spmm_fma += fma;
                        if dur >= MARKER_NS {
                            step.spmm_rate_fma += fma;
                            step.spmm_rate_ns += own;
                        }
                    }
                    _ => {}
                }
            }
            EventData::Collective {
                kind,
                bytes,
                dense_bytes,
                ..
            } => {
                if let Some(step) = cur.as_mut() {
                    step.bytes += bytes as u64;
                    step.dense_bytes += dense_bytes as u64;
                    step.messages += 1;
                    if kind == TraceCollective::Redistribute {
                        step.redist_bytes += bytes as u64;
                    }
                }
            }
            EventData::Retry { .. } => {
                if let Some(step) = cur.as_mut() {
                    step.retries += 1;
                }
            }
            _ => {}
        }
    }
    out
}

/// One `Gemm` shape as traced on rank 0.
pub struct GemmShape {
    pub shape: (usize, usize, usize),
    pub per_step: f64,
    pub ms_per_step: f64,
}

/// Steps of every rank, warm-up step 0 dropped.
pub struct Attribution {
    /// `ranks[r]` holds rank `r`'s steady steps in order.
    pub ranks: Vec<Vec<Step>>,
}

impl Attribution {
    /// Steady steps of one or more traced runs on the same ranks.
    pub fn from_runs<'a>(runs: impl IntoIterator<Item = &'a [RankTrace]>) -> Self {
        let mut ranks: Vec<Vec<Step>> = Vec::new();
        for traces in runs {
            ranks.resize_with(traces.len(), Vec::new);
            for (mine, t) in ranks.iter_mut().zip(traces) {
                mine.extend(steps(t).into_iter().filter(|s| s.idx > 0));
            }
        }
        Attribution { ranks }
    }

    pub fn steps(&self) -> usize {
        self.ranks.first().map_or(0, Vec::len)
    }

    fn all(&self) -> impl Iterator<Item = &Step> {
        self.ranks.iter().flatten()
    }

    /// Mean self time per step of `k` on each rank, in ms.
    pub fn per_rank_ms(&self, k: Kind) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|s| s.iter().map(|x| x.self_ms(k)).sum::<f64>() / s.len().max(1) as f64)
            .collect()
    }

    /// Mean step wall on each rank, in ms.
    pub fn per_rank_wall_ms(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|s| s.iter().map(|x| x.wall_ns as f64 / 1e6).sum::<f64>() / s.len().max(1) as f64)
            .collect()
    }

    /// Mean self time per step of `k` on the rank where it is largest.
    pub fn max_ms(&self, k: Kind) -> f64 {
        self.per_rank_ms(k).into_iter().fold(0.0, f64::max)
    }

    /// Step walls taken on the slowest rank of each step, in ms.
    pub fn step_walls_ms(&self) -> Vec<f64> {
        (0..self.steps())
            .map(|i| {
                self.ranks
                    .iter()
                    .map(|r| r[i].wall_ns as f64 / 1e6)
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Steps whose self times do not sum to the step wall (always 0 unless
    /// the trace is malformed).
    pub fn unbalanced_steps(&self) -> usize {
        self.all()
            .filter(|s| s.self_ns.iter().sum::<u64>() != s.wall_ns)
            .count()
    }

    fn per_step(&self, f: impl Fn(&Step) -> f64) -> f64 {
        self.all().map(f).sum::<f64>() / self.steps().max(1) as f64
    }

    /// Achieved GEMM rate over working `Gemm` spans, GFLOP/s.
    pub fn gemm_gflops(&self) -> f64 {
        let fma: f64 = self.all().map(|s| s.gemm_rate_fma).sum();
        let ns: u64 = self.all().map(|s| s.gemm_rate_ns).sum();
        rate(2.0 * fma, ns)
    }

    /// Achieved SpMM rate over working `Spmm` spans, GFLOP/s.
    pub fn spmm_gflops(&self) -> f64 {
        let fma: f64 = self.all().map(|s| s.spmm_rate_fma).sum();
        let ns: u64 = self.all().map(|s| s.spmm_rate_ns).sum();
        rate(2.0 * fma, ns)
    }

    /// GEMM FMAs per step summed over ranks, in billions.
    pub fn gemm_gfma_per_step(&self) -> f64 {
        self.per_step(|s| s.gemm_fma) / 1e9
    }

    pub fn spmm_gfma_per_step(&self) -> f64 {
        self.per_step(|s| s.spmm_fma) / 1e9
    }

    /// Redistribution payload over `Redistribute` self time, GB/s.
    pub fn redist_gbps(&self) -> f64 {
        let bytes: u64 = self.all().map(|s| s.redist_bytes).sum();
        let ns: u64 = self
            .all()
            .map(|s| s.self_ns[Kind::Redistribute as usize])
            .sum();
        rate(bytes as f64, ns)
    }

    pub fn messages_per_step(&self) -> f64 {
        self.per_step(|s| s.messages as f64)
    }

    /// Actual wire bytes over dense-equivalent bytes.
    pub fn wire_ratio(&self) -> f64 {
        let bytes: u64 = self.all().map(|s| s.bytes).sum();
        let dense: u64 = self.all().map(|s| s.dense_bytes).sum();
        if dense == 0 {
            1.0
        } else {
            bytes as f64 / dense as f64
        }
    }

    pub fn retries(&self) -> u64 {
        self.all().map(|s| s.retries).sum()
    }

    /// Working `Gemm` shapes of rank 0, each with its count and self
    /// time (ms) per step.
    pub fn gemm_shapes(&self) -> Vec<GemmShape> {
        let mut out: Vec<GemmShape> = Vec::new();
        let Some(rank0) = self.ranks.first() else {
            return out;
        };
        let steps = rank0.len().max(1) as f64;
        for &(shape, ns) in rank0.iter().flat_map(|s| &s.gemm_shapes) {
            let i = match out.iter().position(|g| g.shape == shape) {
                Some(i) => i,
                None => {
                    out.push(GemmShape {
                        shape,
                        per_step: 0.0,
                        ms_per_step: 0.0,
                    });
                    out.len() - 1
                }
            };
            out[i].per_step += 1.0 / steps;
            out[i].ms_per_step += ns as f64 / 1e6 / steps;
        }
        out
    }

    /// The attribution table: mean self time per step per kind, per rank
    /// and the max over ranks; each rank's column sums to its mean step
    /// wall.
    pub fn table(&self, step: &str, steps: &str) -> Vec<String> {
        let p = self.ranks.len();
        let mut lines = vec![format!(
            "self time per {step} (ms, mean over {} traced {steps}, warm-up {step} 0 excluded)",
            self.steps()
        )];
        let mut head = format!("  {:<14}", "span");
        for r in 0..p {
            head += &format!("{:>18}", format!("rank {r}"));
        }
        head += &format!("{:>10}", "max");
        lines.push(head);
        let walls = self.per_rank_wall_ms();
        for k in KINDS {
            let per = self.per_rank_ms(k);
            let mut line = format!("  {:<14}", k.name());
            for (v, w) in per.iter().zip(&walls) {
                line += &format!(
                    "{:>18}",
                    format!("{v:.3} ({:.1}%)", 100.0 * v / w.max(1e-12))
                );
            }
            line += &format!("{:>10.3}", per.iter().copied().fold(0.0, f64::max));
            lines.push(line);
        }
        let mut line = format!("  {:<14}", format!("= {step} wall"));
        for w in &walls {
            line += &format!("{:>18}", format!("{w:.3}"));
        }
        line += &format!("{:>10.3}", walls.iter().copied().fold(0.0, f64::max));
        lines.push(line);
        lines.push(format!(
            "  rows sum to the traced {step} wall on every rank: {} ({} unbalanced {steps})",
            if self.unbalanced_steps() == 0 {
                "yes"
            } else {
                "NO"
            },
            self.unbalanced_steps()
        ));
        lines
    }
}

fn rate(num: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        num / ns as f64
    }
}
