//! Sweep driver and reporting for the per-figure benchmark binaries.
//!
//! Every figure binary runs a **sweep**: the full grid of message
//! sizes × processor counts × implementations for one collective,
//! measured in virtual time by the root crate's harness. Each of the
//! `fig06`–`fig08` binaries prints the absolute series (Figures 6–8)
//! and the `T_SRM/T_MPI` ratios of the same sweep (Figures 9–11);
//! Figure 12 sweeps processor counts for the barrier.
//!
//! Environment:
//! * `SRM_BENCH_FAST=1` — coarse grid (fewer sizes, fewer processor
//!   counts, fewer iterations); used by CI's smoke run.

use simnet::{MachineConfig, SimTime, Topology};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::fmt::Write as _;

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct Point {
    /// Implementation measured.
    pub imp: Impl,
    /// Total processor count.
    pub nprocs: usize,
    /// Payload bytes.
    pub len: usize,
    /// Mean virtual time per call, microseconds.
    pub us: f64,
}

/// A complete sweep for one operation.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// All measured points.
    pub points: Vec<Point>,
}

/// Is the fast (coarse) grid requested?
pub fn fast_mode() -> bool {
    std::env::var("SRM_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Message-size grid (bytes): the paper sweeps 8 B – 8 MB.
pub fn size_grid() -> Vec<usize> {
    if fast_mode() {
        vec![8, 512, 8 << 10, 128 << 10, 2 << 20]
    } else {
        // Powers of four from 8 B to 8 MB (plus the 8 MB endpoint).
        let mut v: Vec<usize> = (0..11).map(|i| 8usize << (2 * i)).collect();
        v.push(8 << 20);
        v.dedup();
        v
    }
}

/// Processor-count grid: 16-way nodes, like the paper's runs.
pub fn proc_grid() -> Vec<Topology> {
    let nodes: &[usize] = if fast_mode() {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    nodes.iter().map(|&n| Topology::sp_16way(n)).collect()
}

/// Iterations appropriate for a payload size (big messages are slow to
/// simulate and self-average well).
pub fn iters_for(len: usize) -> usize {
    if fast_mode() {
        2
    } else if len <= 64 << 10 {
        5
    } else if len <= 1 << 20 {
        3
    } else {
        2
    }
}

/// Measure the full sweep for `op`.
pub fn sweep(op: Op) -> Sweep {
    let machine = MachineConfig::ibm_sp_colony();
    let mut points = Vec::new();
    for topo in proc_grid() {
        for &len in &size_grid() {
            for imp in Impl::ALL {
                let opts = HarnessOpts {
                    iters: iters_for(len),
                    ..Default::default()
                };
                let wall = std::time::Instant::now();
                let m = measure(imp, machine.clone(), topo, op, len, opts);
                eprintln!(
                    "[run] {} {} P={} len={} -> {:.1}us (wall {:.1?})",
                    op.name(),
                    imp.name(),
                    topo.nprocs(),
                    len,
                    m.per_call.as_us(),
                    wall.elapsed()
                );
                points.push(Point {
                    imp,
                    nprocs: topo.nprocs(),
                    len,
                    us: m.per_call.as_us(),
                });
            }
        }
    }
    Sweep { points }
}

/// Barrier sweep: time vs processor count for all implementations
/// (the paper's Figure 12, which stops at 16 nodes), continued to 256
/// nodes = 4 096 processors. The fast grid keeps one point past the
/// paper, SRM only: a 1 024-rank world in CI's smoke run.
pub fn sweep_barrier() -> Vec<Point> {
    let machine = MachineConfig::ibm_sp_colony();
    let fast = fast_mode();
    let nodes: &[usize] = if fast {
        &[1, 4, 16, 64]
    } else {
        &[1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256]
    };
    let mut points = Vec::new();
    for &n in nodes {
        let topo = Topology::sp_16way(n);
        let imps = if fast && n > 16 {
            &Impl::ALL[..1]
        } else {
            &Impl::ALL[..]
        };
        for &imp in imps {
            let opts = HarnessOpts {
                iters: if fast { 3 } else { 8 },
                ..Default::default()
            };
            let m = measure(imp, machine.clone(), topo, Op::Barrier, 8, opts);
            eprintln!(
                "[run] barrier {} P={} -> {:.1}us",
                imp.name(),
                topo.nprocs(),
                m.per_call.as_us()
            );
            points.push(Point {
                imp,
                nprocs: topo.nprocs(),
                len: 0,
                us: m.per_call.as_us(),
            });
        }
    }
    points
}

impl Sweep {
    /// The measured time for (imp, nprocs, len), if present.
    pub fn get(&self, imp: Impl, nprocs: usize, len: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.imp == imp && p.nprocs == nprocs && p.len == len)
            .map(|p| p.us)
    }

    /// Distinct processor counts, ascending.
    pub fn procs(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.points.iter().map(|p| p.nprocs).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct sizes, ascending.
    pub fn sizes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.points.iter().map(|p| p.len).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Print the left panel of Figures 6–8: absolute SRM time vs size, one
/// column per processor count.
pub fn print_absolute_panel(title: &str, s: &Sweep) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len()));
    let procs = s.procs();
    let mut header = format!("{:>10}", "bytes");
    for p in &procs {
        let _ = write!(header, " {:>12}", format!("P={p} (us)"));
    }
    println!("{header}");
    for len in s.sizes() {
        let mut row = format!("{len:>10}");
        for &p in &procs {
            match s.get(Impl::Srm, p, len) {
                Some(us) => {
                    let _ = write!(row, " {us:>12.1}");
                }
                None => {
                    let _ = write!(row, " {:>12}", "-");
                }
            }
        }
        println!("{row}");
    }
}

/// Print the right panel of Figures 6–8: SRM vs both MPIs at the
/// largest processor count, small-message range.
pub fn print_comparison_panel(title: &str, s: &Sweep, max_len: usize) {
    let p = *s.procs().last().expect("sweep has data");
    println!("\n{title} (P={p}, sizes <= {max_len} B)");
    println!("{}", "-".repeat(60));
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "bytes", "SRM (us)", "IBM MPI (us)", "MPICH (us)"
    );
    for len in s.sizes().into_iter().filter(|&l| l <= max_len) {
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>12.1}",
            len,
            s.get(Impl::Srm, p, len).unwrap_or(f64::NAN),
            s.get(Impl::IbmMpi, p, len).unwrap_or(f64::NAN),
            s.get(Impl::Mpich, p, len).unwrap_or(f64::NAN),
        );
    }
}

/// Print Figures 9–11: `T_SRM/T_MPI × 100 %` vs size, one column per
/// processor count, one block per baseline. Values < 100 mean SRM wins.
pub fn print_ratio_panels(title: &str, s: &Sweep) {
    for base in [Impl::IbmMpi, Impl::Mpich] {
        println!(
            "\n{title}: T_SRM/T_{} x 100% (lower is better)",
            base.name()
        );
        println!("{}", "-".repeat(60));
        let procs = s.procs();
        let mut header = format!("{:>10}", "bytes");
        for p in &procs {
            let _ = write!(header, " {:>9}", format!("P={p}"));
        }
        println!("{header}");
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for len in s.sizes() {
            let mut row = format!("{len:>10}");
            for &p in &procs {
                match (s.get(Impl::Srm, p, len), s.get(base, p, len)) {
                    (Some(a), Some(b)) if b > 0.0 => {
                        let r = 100.0 * a / b;
                        lo = lo.min(r);
                        hi = hi.max(r);
                        let _ = write!(row, " {r:>8.0}%");
                    }
                    _ => {
                        let _ = write!(row, " {:>9}", "-");
                    }
                }
            }
            println!("{row}");
        }
        println!(
            "range: {:.0}%..{:.0}%  (improvement {:.0}%..{:.0}%)",
            lo,
            hi,
            100.0 - hi,
            100.0 - lo
        );
    }
}

/// Improvement band `(min%, max%)` of SRM over `base` across a sweep:
/// `100 - ratio`, i.e. "SRM outperforms by X%".
pub fn improvement_band(s: &Sweep, base: Impl) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for p in &s.points {
        if p.imp != Impl::Srm {
            continue;
        }
        if let Some(b) = s.get(base, p.nprocs, p.len) {
            if b > 0.0 {
                let impr = 100.0 - 100.0 * p.us / b;
                lo = lo.min(impr);
                hi = hi.max(impr);
            }
        }
    }
    (lo, hi)
}

/// A tiny timing helper for ablation binaries: measure one config.
pub fn one(imp: Impl, machine: MachineConfig, topo: Topology, op: Op, len: usize) -> SimTime {
    let opts = HarnessOpts {
        iters: iters_for(len),
        ..Default::default()
    };
    measure(imp, machine, topo, op, len, opts).per_call
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sane() {
        let sizes = size_grid();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sizes.first().unwrap(), 8);
        assert_eq!(*sizes.last().unwrap(), 8 << 20);
        assert!(proc_grid().iter().all(|t| t.tasks_per_node() == 16));
    }

    #[test]
    fn iters_scale_down_with_size() {
        assert!(iters_for(8) >= iters_for(1 << 20));
        assert!(iters_for(1 << 20) >= iters_for(8 << 20));
    }

    #[test]
    fn improvement_band_math() {
        let s = Sweep {
            points: vec![
                Point {
                    imp: Impl::Srm,
                    nprocs: 16,
                    len: 8,
                    us: 20.0,
                },
                Point {
                    imp: Impl::IbmMpi,
                    nprocs: 16,
                    len: 8,
                    us: 80.0,
                },
                Point {
                    imp: Impl::Srm,
                    nprocs: 16,
                    len: 64,
                    us: 50.0,
                },
                Point {
                    imp: Impl::IbmMpi,
                    nprocs: 16,
                    len: 64,
                    us: 100.0,
                },
            ],
        };
        let (lo, hi) = improvement_band(&s, Impl::IbmMpi);
        assert_eq!(lo, 50.0);
        assert_eq!(hi, 75.0);
    }
}
