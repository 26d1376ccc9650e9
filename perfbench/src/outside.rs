//! Timers the benchmark wraps around public calls into single crates,
//! plus host facts.

use crate::attrib::GemmShape;
use crate::stats::median;
use rdm_core::plan::{best_plan_with_ra_sparsity, Plan};
use rdm_dense::kernels::{self, Mode};
use rdm_dense::{gemm, gemm_nt, gemm_tn, Mat};
use rdm_model::{DeviceModel, GnnShape};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// `best_plan_with_ra_sparsity` at full replication, as the trainer and
/// the serving engine call it, with the median time of one call in ms.
pub fn select_plan(shape: &GnnShape, p: usize, device: &DeviceModel, sigma: f64) -> (Plan, f64) {
    let mut times = Vec::with_capacity(51);
    let mut plan = None;
    for _ in 0..51 {
        let (pl, s) = timed(|| {
            black_box(best_plan_with_ra_sparsity(
                black_box(shape),
                p,
                p,
                device,
                sigma,
            ))
        });
        times.push(s * 1e3);
        plan = Some(pl);
    }
    (plan.unwrap(), median(&times))
}

/// GEMM variant of a traced `Gemm { m, n, k }` span, recovered from the
/// layer widths `feats`: weight gradients reduce over rows
/// (`m × n = f_l × f_{l+1}`), forward products map `f_l → f_{l+1}`, and
/// backward propagation maps `f_{l+1} → f_l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Nn,
    Nt,
    Tn,
}

pub fn classify(shape: (usize, usize, usize), feats: &[usize]) -> Option<Variant> {
    let (m, n, k) = shape;
    let pairs = || feats.windows(2).map(|w| (w[0], w[1]));
    if pairs().any(|p| p == (m, n)) {
        Some(Variant::Tn)
    } else if pairs().any(|p| p == (k, n)) {
        Some(Variant::Nn)
    } else if pairs().any(|p| p == (n, k)) {
        Some(Variant::Nt)
    } else {
        None
    }
}

/// Median seconds of one `variant` call at `(m, n, k)` in `mode`.
fn time_gemm(variant: Variant, (m, n, k): (usize, usize, usize), mode: Mode) -> f64 {
    let (a, b) = match variant {
        Variant::Nn => (Mat::random(m, k, 1.0, 1), Mat::random(k, n, 1.0, 2)),
        Variant::Nt => (Mat::random(m, k, 1.0, 1), Mat::random(n, k, 1.0, 2)),
        Variant::Tn => (Mat::random(k, m, 1.0, 1), Mat::random(k, n, 1.0, 2)),
    };
    let call = || match variant {
        Variant::Nn => gemm(&a, &b),
        Variant::Nt => gemm_nt(&a, &b),
        Variant::Tn => gemm_tn(&a, &b),
    };
    kernels::with_mode(mode, || {
        drop(black_box(call()));
        let times: Vec<f64> = (0..5).map(|_| timed(|| black_box(call())).1).collect();
        median(&times)
    })
}

/// Achieved GFLOP/s per variant over the traced shapes, each shape
/// weighted by how often it runs per step. A variant that never runs
/// reports 0.
pub fn gemm_rates(shapes: &[GemmShape], feats: &[usize], mode: Mode) -> [f64; 3] {
    [Variant::Nn, Variant::Nt, Variant::Tn].map(|v| {
        let (mut flop, mut secs) = (0.0, 0.0);
        for g in shapes {
            if classify(g.shape, feats) == Some(v) {
                let (m, n, k) = g.shape;
                flop += g.per_step * 2.0 * (m * n * k) as f64;
                secs += g.per_step * time_gemm(v, g.shape, mode);
            }
        }
        if secs > 0.0 {
            flop / secs / 1e9
        } else {
            0.0
        }
    })
}

/// Per-shape lines of the traced GEMM time, largest first.
pub fn gemm_table(shapes: &[GemmShape], feats: &[usize], step_ms: f64) -> Vec<String> {
    let mut sorted: Vec<&GemmShape> = shapes.iter().collect();
    sorted.sort_by(|a, b| b.ms_per_step.partial_cmp(&a.ms_per_step).unwrap());
    let mut lines = vec!["traced gemm self time by shape, rank 0 (m, n, k)".to_string()];
    for g in sorted {
        let v = classify(g.shape, feats).map_or("?", |v| match v {
            Variant::Nn => "nn",
            Variant::Nt => "nt",
            Variant::Tn => "tn",
        });
        lines.push(format!(
            "  {:<20} {v}  x{:<4.1} {:>9.3} ms ({:.1}% of step)",
            format!("{:?}", g.shape),
            g.per_step,
            g.ms_per_step,
            100.0 * g.ms_per_step / step_ms.max(1e-12)
        ));
    }
    lines
}

/// Ticks per second of the CPU times in `/proc/stat` (`USER_HZ`, which
/// the kernel fixes at 100 for user space).
const USER_HZ: f64 = 100.0;

/// CPUs named by a kernel CPU list such as `0-1,4`.
fn cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|r| {
            let (a, b) = r.split_once('-').unwrap_or((r, r));
            Some(a.trim().parse::<usize>().ok()?..=b.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Steal ticks of `cpus` in the text of `/proc/stat`.
fn steal_ticks(stat: &str, cpus: &[usize]) -> u64 {
    stat.lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let cpu: usize = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            if !cpus.contains(&cpu) {
                return None;
            }
            // user nice system idle iowait irq softirq steal
            fields.nth(7)?.parse::<u64>().ok()
        })
        .sum()
}

/// Seconds the hypervisor has stolen from the CPUs this process may run
/// on (`Cpus_allowed_list`), averaged over those CPUs; 0 on a host
/// without steal accounting.
fn stolen_s() -> f64 {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    let cpus = CPUS.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        cpu_list(
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap_or(""),
        )
    });
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    steal_ticks(&stat, cpus) as f64 / USER_HZ / cpus.len().max(1) as f64
}

/// Measures the share of a wall interval that a shared host's hypervisor
/// ran other guests on this process's CPUs. Scaling a wall by one minus
/// that share gives the wall the program would have taken had the host
/// left it its CPUs, which is what the end-to-end times report.
pub struct StealMeter(f64);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(stolen_s())
    }

    /// Stolen share of the `wall_s` seconds since `start`, in `[0, 0.9]`.
    pub fn share(&self, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            return 0.0;
        }
        ((stolen_s() - self.0) / wall_s).clamp(0.0, 0.9)
    }
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_follow_layer_widths() {
        let feats = [64, 128, 16];
        assert_eq!(classify((10000, 128, 64), &feats), Some(Variant::Nn));
        assert_eq!(classify((10000, 16, 128), &feats), Some(Variant::Nn));
        assert_eq!(classify((10000, 64, 128), &feats), Some(Variant::Nt));
        assert_eq!(classify((10000, 128, 16), &feats), Some(Variant::Nt));
        assert_eq!(classify((64, 128, 10000), &feats), Some(Variant::Tn));
        assert_eq!(classify((128, 16, 10000), &feats), Some(Variant::Tn));
        assert_eq!(classify((10000, 7, 7), &feats), None);
    }

    #[test]
    fn steal_of_allowed_cpus() {
        assert_eq!(cpu_list("\t0-1,4\n"), vec![0, 1, 4]);
        assert_eq!(cpu_list(""), Vec::<usize>::new());
        let stat = "cpu  9 9 9 9 9 9 9 90 0 0\n\
                    cpu0 1 1 1 1 1 1 1 30 0 0\n\
                    cpu1 1 1 1 1 1 1 1 20 0 0\n\
                    cpu2 1 1 1 1 1 1 1 40 0 0\n\
                    intr 5 5 5\n";
        assert_eq!(steal_ticks(stat, &[0, 1]), 50);
        assert_eq!(steal_ticks(stat, &[2]), 40);
        assert_eq!(steal_ticks(stat, &[]), 0);
    }
}
